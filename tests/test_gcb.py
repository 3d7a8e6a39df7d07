import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from twosc import gcb
from twosc.canon import are_isomorphic
from twosc.core import Graph, GraphError, LoopError, bits, has_triangle
from twosc.enumeration import graph_classes
from twosc.gcb import (
    GcbSpec,
    InvalidGcbSpecError,
    SampleBudgetError,
    assemble,
    build_gcb,
    decompose_triangle_free,
    expected_edge_count,
    sample_gcb_spec,
    validate_gcb_spec,
)
from twosc.graphs import (
    complete_bipartite,
    cycle_graph,
    minimal_with_triangle,
    path_graph,
    petersen_graph,
    capped_k33,
)
from twosc.io import FormatError, graph6_decode, graph6_encode
from twosc.recognition import NotTwoSelfCenteredError, condition_verdict, conditions_ok
from twosc.sbic import HasTriangleError, SbicWitness, verify_sbic

from conftest import assert_immutable_value, triangle_free_two_sc_graphs


# n = 22 with k = l = 0 after decomposition; the former readings both
# rejected it with connector_without_cross_neighbor
BOTH_SIDES_EMPTY = "UhOc?tD?L@BrdCPSQa@TFPQCiOG`?SAGmD?UAaw_"


def empty_spec(k: int, l: int) -> GcbSpec:
    return GcbSpec(k, l, Graph(()), SbicWitness((), ()))


def printed_zero_l_rule(spec: GcbSpec) -> bool:
    """The l = 0 rule as printed, kept as the documented wrong reading.

    It asks every b-set for a disjoint a-set even when k = 0, and repeats
    the k = 0 rule's pair clause on the a-sets instead of mirroring it.
    It rejects valid decompositions of the Petersen graph and of
    J@zeea_cA@_.
    """
    if spec.l:
        return True
    a, b = spec.witness.a_masks, spec.witness.b_masks
    if any(all(m & p for p in a) for m in b):
        return False
    return all(
        any(not (a[i] & p) and not (a[j] & p) for p in b)
        for i, j in combinations(range(len(a)), 2)
        if not a[i] & a[j]
    )


def builds_two_sc(spec: GcbSpec) -> bool:
    """The definition that validation must match on specs with an SBIC."""
    g = assemble(spec)
    return g.two_sc and not has_triangle(g)


def independent_sets(x: Graph) -> list[int]:
    return [m for m in range(1, 1 << x.n) if not any(x.adj[v] & m for v in bits(m))]


def exhaustive_sbic_specs(max_core: int, max_sets: int, max_side: int):
    """Every spec over a labelled triangle-free core with at most
    ``max_core`` vertices, families of at most ``max_sets`` independent
    sets (as multisets) that form an SBIC, and k, l <= ``max_side``."""
    for n in range(max_core + 1):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            x = Graph.from_edges(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])
            if has_triangle(x):
                continue
            families = [f for size in range(max_sets + 1)
                        for f in combinations_with_replacement(independent_sets(x), size)]
            for a in families:
                for b in families:
                    witness = SbicWitness(a, b)
                    if verify_sbic(x, witness).passed:
                        for k in range(max_side + 1):
                            for l in range(max_side + 1):
                                yield GcbSpec(k, l, x, witness)


def _grow(x: Graph, m: int, avoid: int = 0) -> int:
    """Extend the independent set m, in vertex order, avoiding ``avoid``."""
    for v in range(x.n):
        if not (avoid | m) >> v & 1 and not x.adj[v] & m:
            m |= 1 << v
    return m


def _repair(x: Graph, a: list[int], b: list[int]) -> SbicWitness:
    """Add sets to the families until they form an SBIC of x."""
    while True:
        report = verify_sbic(x, SbicWitness(tuple(a), tuple(b)))
        if report.passed:
            return SbicWitness(tuple(a), tuple(b))
        if not report.covering.ok:
            bad = report.covering.counterexample
            (a if bad["family"] == "a" else b).append(_grow(x, 1 << bad["uncovered_vertex"]))
        elif not report.distant_pairs_share_set.ok:
            u, v = report.distant_pairs_share_set.counterexample["pair"]
            a.append(_grow(x, 1 << u | 1 << v))
        elif not report.a_far_vertices_escape.ok:
            bad = report.a_far_vertices_escape.counterexample
            b.append(_grow(x, 1 << bad["vertex"], a[bad["index"]]))
        else:
            bad = report.b_far_vertices_escape.counterexample
            a.append(_grow(x, 1 << bad["vertex"], b[bad["index"]]))


@st.composite
def sbic_specs(draw, max_core: int = 6):
    """Specs over a triangle-free core of 1..max_core vertices whose
    drawn families are completed to an SBIC, with k, l <= 2."""
    n = draw(st.integers(1, max_core))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] & adj[v] and draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    x = Graph(tuple(adj))
    sets = st.sampled_from(independent_sets(x))
    witness = _repair(x, draw(st.lists(sets, max_size=3)), draw(st.lists(sets, max_size=3)))
    return GcbSpec(draw(st.integers(0, 2)), draw(st.integers(0, 2)), x, witness)


class TestValidate:
    def test_plain_bipartite_passes(self):
        assert validate_gcb_spec(empty_spec(2, 2)).passed

    def test_empty_core_needs_big_sides(self):
        validation = validate_gcb_spec(empty_spec(0, 0))
        assert not validation.passed
        assert not validation.empty_core_iff_no_connectors.ok

    def test_singleton_core(self):
        spec = GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))
        validation = validate_gcb_spec(spec)
        assert validation.passed
        assert validation.empty_family_sides.ok
        assert validation.singleton_core_needs_side.ok
        # with both sides empty the singleton-core rule rejects it
        bare = GcbSpec(0, 0, Graph((0,)), SbicWitness((1,), (1,)))
        assert not validate_gcb_spec(bare).singleton_core_needs_side.ok

    def test_no_connectors_on_nonempty_core_fails(self):
        spec = GcbSpec(2, 2, Graph((0,)), SbicWitness((), ()))
        validation = validate_gcb_spec(spec)
        assert not validation.passed

    def test_spec_is_an_immutable_value(self):
        assert_immutable_value(lambda: decompose_triangle_free(petersen_graph())[0], "witness")
        assert empty_spec(2, 3) != empty_spec(3, 2) != (2, 3)
        spec = empty_spec(2, 3)
        assert repr(spec) == (
            "GcbSpec(k=2, l=3, x=Graph(n=0, edges=[]), witness=SbicWitness(a_masks=(), b_masks=()))"
        )

    @pytest.mark.parametrize("k, l", [(-1, 2), (2, -1), (-3, -3)])
    def test_negative_side_size_is_a_typed_error(self, k, l):
        # rejected where the spec is made, so validation never sees one
        with pytest.raises(GraphError, match="non-negative"):
            empty_spec(k, l)
        doc = {"k": k, "l": l, "x": {"n": 0, "edges": []}}
        with pytest.raises(FormatError, match="non-negative"):
            GcbSpec.from_json(doc)

    def test_readings_must_be_known(self):
        # build_gcb keeps a keyword that accepts the one value PRINTED
        assert build_gcb(empty_spec(2, 2), zero_l_reading=gcb.PRINTED) == build_gcb(empty_spec(2, 2))
        for other in ("symmetric", "other"):
            with pytest.raises(ValueError):
                build_gcb(empty_spec(2, 2), zero_l_reading=other)


class TestOracle:
    # A spec with an SBIC passes validation iff it builds a triangle-free
    # 2-self-centered graph; the zero-side rules are what this pins.

    def test_exhaustive_small_specs(self):
        specs = list(exhaustive_sbic_specs(max_core=3, max_sets=3, max_side=2))
        assert len(specs) > 4000
        wrong = [spec for spec in specs if validate_gcb_spec(spec).passed != builds_two_sc(spec)]
        assert wrong == []
        # the printed reading is wrong inside this range
        assert any(
            printed_zero_l_rule(spec) != validate_gcb_spec(spec).zero_l.ok for spec in specs
        )

    @settings(max_examples=200, deadline=None)
    @given(sbic_specs(max_core=6))
    def test_random_specs(self, spec):
        assert validate_gcb_spec(spec).passed == builds_two_sc(spec)


class TestBuild:
    def test_complete_bipartite(self):
        assert build_gcb(empty_spec(2, 3)) == complete_bipartite(2, 3)

    def test_four_cycle(self):
        assert are_isomorphic(build_gcb(empty_spec(2, 2)), cycle_graph(4))

    def test_singleton_core_builds_five_cycle(self):
        spec = GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))
        assert are_isomorphic(build_gcb(spec), cycle_graph(5))

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidGcbSpecError):
            build_gcb(empty_spec(1, 3))

    def test_edge_count_formula(self):
        for spec in (empty_spec(2, 3), GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))):
            assert build_gcb(spec).edge_count == expected_edge_count(spec)


class TestDecompose:
    def test_complete_bipartite(self):
        spec, roles = decompose_triangle_free(complete_bipartite(2, 3))
        assert {spec.k, spec.l} == {2, 3}
        assert spec.x.n == 0 and spec.r == 0 and spec.s == 0
        assert assemble(spec) == complete_bipartite(2, 3).relabel(roles.order)

    def test_four_cycle(self):
        g = cycle_graph(4)
        spec, roles = decompose_triangle_free(g)
        assert assemble(spec) == g.relabel(roles.order)

    def test_capped_bipartite_has_core(self):
        g = capped_k33()
        spec, roles = decompose_triangle_free(g)
        assert spec.x.n > 0
        assert assemble(spec) == g.relabel(roles.order)
        assert validate_gcb_spec(spec).passed

    def test_petersen_round_trip(self):
        pet = petersen_graph()
        spec, roles = decompose_triangle_free(pet)
        rebuilt = assemble(spec)
        assert rebuilt == pet.relabel(roles.order)
        assert are_isomorphic(rebuilt, pet)

    def test_petersen_separates_zero_l_readings(self):
        # The peeling of the Petersen graph has an empty L side; the
        # zero-l rule accepts it, the printed reading does not.
        spec, roles = decompose_triangle_free(petersen_graph())
        assert spec.l == 0
        assert validate_gcb_spec(spec).passed
        assert not printed_zero_l_rule(spec)
        assert build_gcb(spec) == petersen_graph().relabel(roles.order)

    def test_printed_reading_rejects_a_class_representative(self):
        # one of the three smallest class representatives it rejects
        g = graph6_decode("J@zeea_cA@_")
        spec, roles = decompose_triangle_free(g)
        assert (spec.k, spec.l) == (2, 0)
        assert validate_gcb_spec(spec).passed
        assert not printed_zero_l_rule(spec)
        assert build_gcb(spec) == g.relabel(roles.order)

    def test_both_sides_empty(self):
        # with k = l = 0 no connector needs a cross neighbour to reach a
        # side, which both former readings demanded
        g = graph6_decode(BOTH_SIDES_EMPTY)
        spec, roles = decompose_triangle_free(g)
        assert (g.n, spec.k, spec.l) == (22, 0, 0)
        assert validate_gcb_spec(spec).passed
        assert build_gcb(spec) == g.relabel(roles.order)

    def test_verdict_independent_of_labels(self):
        # the printed reading rejected 133 of these 200 relabellings
        g = graph6_decode("IEDkGFhKO")
        for seed in range(200):
            order = list(range(g.n))
            random.Random(seed).shuffle(order)
            h = g.relabel(order)
            spec, roles = decompose_triangle_free(h)
            assert validate_gcb_spec(spec).passed, seed
            assert build_gcb(spec) == h.relabel(roles.order), seed

    def test_witness_properties(self):
        for g in (capped_k33(), petersen_graph(), cycle_graph(5)):
            spec, roles = decompose_triangle_free(g)
            report = verify_sbic(spec.x, spec.witness)
            assert report.passed
            covered_a = 0
            for m in spec.witness.a_masks:
                covered_a |= m
            covered_b = 0
            for m in spec.witness.b_masks:
                covered_b |= m
            if spec.x.n:
                assert covered_a == covered_b == spec.x.full_mask

    @settings(max_examples=150, deadline=None)
    @given(triangle_free_two_sc_graphs(max_n=14))
    def test_round_trip_on_random_graphs(self, g):
        # beyond the exhaustive n <= 8 of the battery and criterion 6
        assert g.two_sc and not has_triangle(g)
        spec, roles = decompose_triangle_free(g)
        assert verify_sbic(spec.x, spec.witness).passed
        assert validate_gcb_spec(spec).passed
        assert assemble(spec) == g.relabel(roles.order)
        assert build_gcb(spec) == g.relabel(roles.order)

    def test_requires_triangle_free(self):
        with pytest.raises(HasTriangleError):
            decompose_triangle_free(minimal_with_triangle())

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            decompose_triangle_free(path_graph(4))


# --- the edge-list round trip, kept as the reference ------------------------


def ref_assemble(spec: GcbSpec) -> Graph:
    k, l, r, s = spec.k, spec.l, spec.r, spec.s
    off_l, off_y, off_z, off_x = k, k + l, k + l + r, k + l + r + s
    edges = []
    for a in range(k):
        edges += [(a, off_l + t) for t in range(l)] + [(a, off_y + i) for i in range(r)]
    for b in range(l):
        edges += [(off_l + b, off_z + j) for j in range(s)]
    for i, m in enumerate(spec.witness.a_masks):
        edges += [(off_y + i, off_x + t) for t in bits(m)]
    for j, m in enumerate(spec.witness.b_masks):
        edges += [(off_z + j, off_x + t) for t in bits(m)]
    for i, m in enumerate(spec.witness.a_masks):
        edges += [(off_y + i, off_z + j) for j, p in enumerate(spec.witness.b_masks) if not m & p]
    edges += [(off_x + u, off_x + v) for u, v in spec.x.edges()]
    return Graph.from_edges(spec.total_vertices, edges)


def ref_decompose_triangle_free(g: Graph):
    if not g.two_sc:
        raise NotTwoSelfCenteredError("decomposition requires a 2-self-centered graph")
    if has_triangle(g):
        raise HasTriangleError("decomposition requires triangle-free input")
    full = g.full_mask
    y_prime = gcb.greedy_max_independent(g, full)
    z_prime = gcb.greedy_max_independent(g, full & ~y_prime)
    x_mask = full & ~(y_prime | z_prime)
    k_vertices = tuple(v for v in bits(z_prime) if not g.adj[v] & x_mask)
    l_vertices = tuple(v for v in bits(y_prime) if not g.adj[v] & x_mask)
    y_vertices = tuple(v for v in bits(y_prime) if g.adj[v] & x_mask)
    z_vertices = tuple(v for v in bits(z_prime) if g.adj[v] & x_mask)
    x_vertices = tuple(bits(x_mask))
    pos_in_x = {v: i for i, v in enumerate(x_vertices)}

    def to_core_mask(mask: int) -> int:
        return sum(1 << pos_in_x[v] for v in bits(mask))

    core = Graph.from_edges(
        len(x_vertices), [(pos_in_x[u], pos_in_x[v]) for u, v in g.edges() if u in pos_in_x and v in pos_in_x]
    )
    witness = SbicWitness(
        tuple(to_core_mask(g.adj[y] & x_mask) for y in y_vertices),
        tuple(to_core_mask(g.adj[z] & x_mask) for z in z_vertices),
    )
    spec = GcbSpec(len(k_vertices), len(l_vertices), core, witness)
    return spec, gcb.GcbRoles(k_vertices, l_vertices, y_vertices, z_vertices, x_vertices)


def assert_round_trip_matches_reference(g: Graph) -> None:
    spec, roles = decompose_triangle_free(g)
    ref_spec, ref_roles = ref_decompose_triangle_free(g)
    assert (spec, roles) == (ref_spec, ref_roles), g
    assert spec.to_json() == ref_spec.to_json() and roles.to_json() == ref_roles.to_json(), g
    assert assemble(spec) == ref_assemble(spec) == g.relabel(roles.order), g


class TestMatchesEdgeListReference:
    def test_every_triangle_free_two_sc_class_up_to_eight_and_relabellings(self):
        examined = 0
        for n in range(4, 9):
            for g in graph_classes(n):
                if not g.two_sc or has_triangle(g):
                    continue
                examined += 1
                assert_round_trip_matches_reference(g)
                for seed in range(8):
                    order = list(range(n))
                    random.Random(seed).shuffle(order)
                    assert_round_trip_matches_reference(g.relabel(order))
        assert examined == 20

    @settings(max_examples=150, deadline=None)
    @given(triangle_free_two_sc_graphs(max_n=24))
    def test_random_triangle_free_two_sc_graphs(self, g):
        assert_round_trip_matches_reference(g)

    def test_sampled_specs(self):
        for budget in range(4, 25):
            for seed in range(10):
                spec = sample_gcb_spec(budget, seed)
                assert assemble(spec) == ref_assemble(spec), (budget, seed)

    @pytest.mark.parametrize("k, l, a, b", [
        (1, 1, (0b10,), (0b1,)),
        (1, 1, (0b1,), (0b1, 0b100)),
        (30, 0, (1 << 40,), (0b1,)),
    ])
    def test_sets_outside_the_core_raise(self, k, l, a, b):
        spec = GcbSpec(k, l, Graph((0,)), SbicWitness(a, b))
        for build in (assemble, ref_assemble):
            with pytest.raises(GraphError):
                build(spec)


class TestSample:
    def test_smallest_budget_forces_four_cycle(self):
        for seed in range(5):
            spec = sample_gcb_spec(4, seed)
            assert (spec.k, spec.l, spec.x.n) == (2, 2, 0)
            assert are_isomorphic(build_gcb(spec), cycle_graph(4))

    def test_budget_too_small(self):
        with pytest.raises(SampleBudgetError):
            sample_gcb_spec(3, 0)

    def test_deterministic_per_seed(self):
        assert sample_gcb_spec(10, 42) == sample_gcb_spec(10, 42)

    def test_samples_build_valid_graphs(self):
        for seed in range(50):
            spec = sample_gcb_spec(10, seed)
            assert spec.total_vertices <= 10
            g = build_gcb(spec)
            assert not has_triangle(g)
            assert condition_verdict(g).is_2sc
            assert g.edge_count == expected_edge_count(spec)


class TestSerialization:
    def test_core_edges_are_checked(self):
        doc = {"k": 2, "l": 2, "x": {"n": 2, "edges": [[0, 1], [1, 1]]}, "a_family": [[0], [1]], "b_family": [[0], [1]]}
        with pytest.raises(LoopError, match="self-loop at vertex 1"):
            GcbSpec.from_json(doc)
        for n in (-1, 65):
            doc = {"k": 2, "l": 2, "x": {"n": n, "edges": []}}
            with pytest.raises(FormatError, match="'x.n' must lie in 0..64"):
                GcbSpec.from_json(doc)

    def test_spec_json_round_trip(self):
        spec, roles = decompose_triangle_free(capped_k33())
        doc = spec.to_json()
        doc["roles"] = roles.to_json()
        again = GcbSpec.from_json(doc)
        assert again == spec
        assert assemble(again) == assemble(spec)


# sha256 of the decompose documents of pinned_decompose_inputs() (the
# spec, roles and input graph6 that ``twosc decompose`` prints), one
# sorted-key JSON line each, each followed by the graph6 of the graph
# that ``build_gcb`` makes from the document.  The peeling order and
# the layout decide these.
DECOMPOSE_DIGEST = "586a47aceb588597daed4b85964be650da366e184b73cbb29ce3847b8b98725b"


def pinned_decompose_inputs() -> list[Graph]:
    """64 seeded triangle-free 2SC graphs with n = 9..24.

    Each is a maximal triangle-free graph (the pairs added in a random
    order, each unless it closes a triangle) with a random share of its
    edges then deleted wherever the property survives.
    """
    rng = random.Random(20)
    out = []
    while len(out) < 64:
        n = rng.randint(9, 24)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if not conditions_ok(adj, n):
            continue
        q = rng.choice((0.0, 0.3, 0.7))
        rng.shuffle(pairs)
        for u, v in pairs:
            if adj[u] >> v & 1 and rng.random() < q:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                if not conditions_ok(adj, n):
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
        out.append(Graph(tuple(adj)))
    return out


def test_decompose_outputs_pinned_above_eight():
    gs = pinned_decompose_inputs()
    assert min(g.n for g in gs) == 9 and max(g.n for g in gs) == 24
    lines = []
    for g in gs:
        spec, roles = decompose_triangle_free(g)
        doc = spec.to_json()
        doc["roles"] = roles.to_json()
        doc["graph6"] = graph6_encode(g)
        built = build_gcb(GcbSpec.from_json(doc))
        assert built == g.relabel(roles.order)
        lines.append(json.dumps(doc, sort_keys=True) + "\n" + graph6_encode(built) + "\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == DECOMPOSE_DIGEST
