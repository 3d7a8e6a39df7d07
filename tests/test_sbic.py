import random
from typing import Sequence

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twosc.core import Graph, bits, distance_profile, has_triangle, triangles
from twosc.enumeration import graph_classes
from twosc.gcb import GcbSpec
from twosc.graphs import complete_bipartite, complete_graph, cycle_graph, empty_graph, path_graph
from twosc.sbic import (
    ConditionVerdict,
    HasTriangleError,
    SbicReport,
    SbicWitness,
    WitnessError,
    _stranded,
    construct_sbic,
    verify_sbic,
)

from conftest import assert_immutable_value, disjoint_unions, graphs


def witness(a, b) -> SbicWitness:
    return SbicWitness.from_families(a, b)


class TestVerify:
    def test_single_vertex(self):
        x = empty_graph(1)
        assert verify_sbic(x, witness([[0]], [[0]])).passed

    def test_two_isolated_vertices_cohoused(self):
        x = empty_graph(2)
        report = verify_sbic(x, witness([[0, 1]], [[0, 1]]))
        assert report.passed

    def test_two_isolated_vertices_apart_fail(self):
        x = empty_graph(2)
        report = verify_sbic(x, witness([[0], [1]], [[0], [1]]))
        assert not report.distant_pairs_share_set.ok
        assert report.distant_pairs_share_set.counterexample == {"pair": [0, 1]}

    def test_path_cover_gap(self):
        x = path_graph(4)
        report = verify_sbic(x, witness([[0, 2]], [[1, 3]]))
        assert not report.covering.ok
        assert not report.passed

    def test_dependent_set_rejected_by_covering(self):
        x = path_graph(3)
        report = verify_sbic(x, witness([[0, 1], [2]], [[0, 2], [1]]))
        assert not report.covering.ok
        assert report.covering.counterexample["edge"] == [0, 1]

    def test_triangle_condition(self):
        x = complete_graph(3)
        report = verify_sbic(x, witness([[0], [1], [2]], [[0], [1], [2]]))
        assert not report.triangle_free.ok

    def test_escape_conditions(self):
        # path a-b-c-d: vertex 3 is far from {0}, so some disjoint set of the
        # other family must hold it
        x = path_graph(4)
        good = witness([[0], [1], [2], [3], [0, 3]], [[0], [1], [2], [3], [0, 3]])
        assert verify_sbic(x, good).passed
        lacking = witness([[0], [1], [2], [3], [0, 3]], [[0, 3], [1], [2]])
        report = verify_sbic(x, lacking)
        assert not report.a_far_vertices_escape.ok

    def test_empty_families_only_for_empty_core(self):
        assert verify_sbic(Graph(()), SbicWitness((), ())).passed
        report = verify_sbic(empty_graph(1), SbicWitness((), ()))
        assert not report.passed and not report.covering.ok

    def test_out_of_range_raises(self):
        with pytest.raises(WitnessError):
            verify_sbic(empty_graph(2), SbicWitness((0b100,), (0b01,)))

    def test_empty_set_rejected(self):
        with pytest.raises(WitnessError):
            SbicWitness((0,), (1,))

    def test_negative_mask_rejected(self):
        with pytest.raises(WitnessError):
            SbicWitness((-1,), (1,))

    @pytest.mark.parametrize("a, b", [([1], (2,)), ([1], [2]), ((1, 3), range(1, 3)), ((), ())])
    def test_any_sequence_of_int_masks_is_stored_as_tuples(self, a, b):
        w = SbicWitness(a, b)
        assert (w.a_masks, w.b_masks) == (tuple(a), tuple(b))
        assert type(w.a_masks) is tuple and type(w.b_masks) is tuple
        same = SbicWitness(tuple(a), tuple(b))
        assert w == same and hash(w) == hash(same)
        assert hash(GcbSpec(1, 1, empty_graph(2), w)) == hash(GcbSpec(1, 1, empty_graph(2), same))

    @pytest.mark.parametrize("a, b", [
        (("a",), ()),
        ((1.5,), (1,)),
        ((1,), (None,)),
        ((True,), (1,)),
        ((1,), "1"),
        (5, ()),
        ((1,), None),
    ])
    def test_anything_but_int_masks_raises_witness_error(self, a, b):
        with pytest.raises(WitnessError):
            SbicWitness(a, b)

    def test_immutable_value(self):
        assert_immutable_value(lambda: SbicWitness((1, 6), (2,)), "a_masks")
        assert SbicWitness((1,), (2,)) != SbicWitness((2,), (1,)) != ((2,), (1,))

    def test_negative_vertex_id_raises(self):
        with pytest.raises(WitnessError):
            SbicWitness.from_families([[-1]], [[0]])
        with pytest.raises(WitnessError):
            SbicWitness.from_families([[0]], [[1, -2]])

    @pytest.mark.parametrize("vertex", [64, 10**6, 2**70])
    def test_vertex_id_above_the_cap_raises(self, vertex):
        # rejected before a mask is built: 1 << 2**70 raises OverflowError
        with pytest.raises(WitnessError):
            SbicWitness.from_families([[0, vertex]], [[1]])

    def test_vertex_id_at_the_cap_is_accepted(self):
        witness = SbicWitness.from_families([[63]], [[0, 63]])
        assert witness.a_masks == (1 << 63,) and witness.b_masks == (1 | 1 << 63,)


class TestConstruct:
    def test_single_vertex(self):
        w = construct_sbic(empty_graph(1))
        assert w.families() == ([[0]], [[0]])

    def test_edgeless_triple(self):
        x = empty_graph(3)
        w = construct_sbic(x)
        assert verify_sbic(x, w).passed

    def test_six_cycle_antipodes_cohoused(self):
        x = cycle_graph(6)
        w = construct_sbic(x)
        report = verify_sbic(x, w)
        assert report.passed
        for u, v in ((0, 3), (1, 4), (2, 5)):
            pair = 1 << u | 1 << v
            assert any(m & pair == pair for m in w.a_masks + w.b_masks)

    def test_rejects_triangles(self):
        with pytest.raises(HasTriangleError):
            construct_sbic(complete_graph(3))

    def test_exhaustive_small_graphs(self):
        for n in range(1, 8):
            for g in graph_classes(n):
                if has_triangle(g):
                    continue
                w = construct_sbic(g)
                assert verify_sbic(g, w).passed and w == ref_construct_sbic(g), g

    def test_exhaustive_eight_vertices(self):
        checked = 0
        for g in graph_classes(8):
            if has_triangle(g):
                continue
            w = construct_sbic(g)
            assert verify_sbic(g, w).passed and w == ref_construct_sbic(g), g
            checked += 1
        assert checked > 0


class TestFamilyOrderStability:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_permutation_stable(self, rng):
        x = cycle_graph(6)
        w = construct_sbic(x)
        a, b = [list(m) for m in (w.a_masks, w.b_masks)]
        rng.shuffle(a)
        rng.shuffle(b)
        assert verify_sbic(x, SbicWitness(tuple(a), tuple(b))).passed

    def test_diameter_two_pairs_vacuous(self):
        # connected, triangle-free, diameter 2: the far-pair condition never fires
        for x in (complete_bipartite(3, 3), cycle_graph(5)):
            singletons = [[v] for v in range(x.n)]
            report = verify_sbic(x, witness(singletons, singletons))
            assert report.distant_pairs_share_set.ok


# --- the distance_profile forms, kept as the reference ----------------------


def _set_distance(row: Sequence[int], mask: int) -> int:
    return min(row[v] for v in bits(mask))


def ref_verify_sbic(x: Graph, witness: SbicWitness) -> SbicReport:
    n = x.n
    full = x.full_mask
    for m in witness.a_masks + witness.b_masks:
        if m & ~full:
            raise WitnessError("witness set references vertices outside the graph")

    tri = triangles(x)
    c_triangle = ConditionVerdict(not tri, tri[0] if tri else None)

    c_cover = ConditionVerdict(True)
    for name, masks in (("a", witness.a_masks), ("b", witness.b_masks)):
        union = 0
        for m in masks:
            union |= m
        if union != full:
            missing = next(bits(full & ~union), None) if full else None
            c_cover = ConditionVerdict(False, {"family": name, "uncovered_vertex": missing})
            break
        bad = None
        for i, m in enumerate(masks):
            for v in bits(m):
                inside = x.adj[v] & m
                if inside:
                    bad = {"family": name, "index": i, "edge": [v, next(bits(inside))]}
                    break
            if bad:
                break
        if bad:
            c_cover = ConditionVerdict(False, bad)
            break

    if n == 0:
        vacuous = ConditionVerdict(True)
        return SbicReport(c_triangle, c_cover, vacuous, vacuous, vacuous)

    dist = distance_profile(x).distances

    c_pairs = ConditionVerdict(True)
    for u in range(n):
        row = dist[u]
        for v in range(u + 1, n):
            if row[v] < 3 and row[v] < n:
                continue
            pair_mask = 1 << u | 1 << v
            if any(m & pair_mask == pair_mask for m in witness.a_masks):
                continue
            if any(m & pair_mask == pair_mask for m in witness.b_masks):
                continue
            c_pairs = ConditionVerdict(False, {"pair": [u, v]})
            break
        if not c_pairs.ok:
            break

    def escape(from_masks, to_masks, name):
        for u in range(n):
            row = dist[u]
            for i, m in enumerate(from_masks):
                if _set_distance(row, m) < 2:
                    continue
                if not any(not (m & other) and other >> u & 1 for other in to_masks):
                    return ConditionVerdict(False, {"vertex": u, "family": name, "index": i})
        return ConditionVerdict(True)

    c_a = escape(witness.a_masks, witness.b_masks, "a")
    c_b = escape(witness.b_masks, witness.a_masks, "b")
    return SbicReport(c_triangle, c_cover, c_pairs, c_a, c_b)


def ref_grow_independent(x: Graph, seed_mask: int, forbidden: int) -> int:
    """Extend seed_mask, in vertex order, to a maximal independent set avoiding forbidden."""
    m = seed_mask
    for v in range(x.n):
        if not (forbidden | m) >> v & 1 and not x.adj[v] & m:
            m |= 1 << v
    return m


def ref_construct_sbic(x: Graph) -> SbicWitness:
    """The covering by a repair loop: grow a shared set for each unhoused
    far pair and an escape set for each stranded vertex, until none is left."""
    if has_triangle(x):
        raise HasTriangleError("covering construction requires triangle-free input")
    n = x.n
    if n == 0:
        return SbicWitness((), ())
    a = [1 << v for v in range(n)]
    b = [1 << v for v in range(n)]
    dist = distance_profile(x).distances
    for _ in range(2 * n * n + n * n * 4 + 8):
        new_a: list[int] = []
        new_b: list[int] = []
        for u in range(n):
            row = dist[u]
            for v in range(u + 1, n):
                if row[v] < 3 and row[v] < n:
                    continue
                pair_mask = 1 << u | 1 << v
                if any(m & pair_mask == pair_mask for m in a):
                    continue
                if any(m & pair_mask == pair_mask for m in b):
                    continue
                grown = ref_grow_independent(x, pair_mask, 0)
                if grown not in new_a:
                    new_a.append(grown)

        def repairs(from_masks, to_masks):
            added: list[int] = []
            for u in range(n):
                row = dist[u]
                for m in from_masks:
                    if _set_distance(row, m) < 2:
                        continue
                    if any(not (m & other) and other >> u & 1 for other in to_masks):
                        continue
                    grown = ref_grow_independent(x, 1 << u, m)
                    if grown not in added:
                        added.append(grown)
            return added

        new_b.extend(repairs(a + new_a, b))
        new_a.extend(m for m in repairs(b + new_b, a + new_a) if m not in new_a)
        if not new_a and not new_b:
            break
        a.extend(new_a)
        b.extend(new_b)
    witness = SbicWitness(tuple(a), tuple(b))
    assert ref_verify_sbic(x, witness).passed
    return witness


@st.composite
def sparse_graphs(draw, max_n: int = 16):
    """G(n, p) with small p, where far pairs and far sets are common."""
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.1, 0.2, 0.3)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(tuple(adj))


any_graphs = st.one_of(graphs(min_n=0, max_n=16), disjoint_unions(max_n=16), sparse_graphs())


@st.composite
def graphs_with_witnesses(draw):
    """A graph and random non-empty families, sometimes padded to cover it."""
    g = draw(any_graphs)
    if g.n == 0:
        return g, SbicWitness((), ())
    sets = st.lists(st.integers(1, g.full_mask), max_size=6)
    a, b = draw(sets), draw(sets)
    if draw(st.booleans()):
        a += [1 << v for v in range(g.n)]
        b += [1 << v for v in range(g.n)]
    return g, SbicWitness(tuple(a), tuple(b))


class TestMatchesDistanceProfileReference:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_witnesses())
    def test_random_witnesses(self, case):
        g, w = case
        assert verify_sbic(g, w).to_json() == ref_verify_sbic(g, w).to_json()

    @settings(max_examples=200, deadline=None)
    @given(any_graphs, st.integers(0, 2**32 - 1))
    def test_construct_and_partial_witnesses(self, g, seed):
        if has_triangle(g):
            return
        w = construct_sbic(g)
        assert w == ref_construct_sbic(g)
        # dropping sets exercises every failing condition on real families
        rng = random.Random(seed)
        a = tuple(m for m in w.a_masks if rng.random() < 0.7)
        b = tuple(m for m in w.b_masks if rng.random() < 0.7)
        part = SbicWitness(a, b)
        assert verify_sbic(g, part).to_json() == ref_verify_sbic(g, part).to_json()


def ref_stranded(x: Graph, from_masks, to_masks):
    """Reference: each (u, i) by a scan of every vertex and set, as the escape masks replaced."""
    for u, adj_u in enumerate(x.adj):
        near = adj_u | 1 << u
        for i, m in enumerate(from_masks):
            if not m & near and not any(not (m & other) and other >> u & 1 for other in to_masks):
                yield u, i


class TestEscapeMasks:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_witnesses())
    def test_stranded_pairs_match_the_scan(self, case):
        g, w = case
        for from_masks, to_masks in ((w.a_masks, w.b_masks), (w.b_masks, w.a_masks)):
            assert list(_stranded(g, from_masks, to_masks)) == list(ref_stranded(g, from_masks, to_masks))

    def test_an_escape_must_be_disjoint_from_the_set(self):
        # path 0-1-2-3: 3 is far from {0}; {0, 3} holds 3 but meets {0}
        x = path_graph(4)
        for w in (witness([[0], [1], [2], [3]], [[0, 3], [1], [2]]),
                  witness([[0], [1], [2], [3]], [[1], [2], [0, 3]])):
            report = verify_sbic(x, w)
            assert report.a_far_vertices_escape.counterexample == {"vertex": 0, "family": "a", "index": 3}
            assert report.to_json() == ref_verify_sbic(x, w).to_json()


def ref_far_masks(g: Graph) -> list[int]:
    """Reference: per vertex u, the complement of the two-level neighborhood N[u] and N(N(u))."""
    out = []
    for u in range(g.n):
        reach = g.adj[u] | 1 << u
        for v in bits(g.adj[u]):
            reach |= g.adj[v]
        out.append(g.full_mask & ~reach)
    return out


class TestFarPairsFromTheKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(any_graphs, graphs(min_n=17, max_n=40)))
    def test_far_rows_match_the_two_level_walk(self, g):
        far = ref_far_masks(g)
        assert list(g.common.rows(g.common.far)) == far
        # and agree with the distance profile, unreachable pairs included
        if g.n:
            profile = distance_profile(g)
            assert far == [
                sum(1 << v for v, d in enumerate(row) if d >= 3 or d == profile.infinity) for row in profile.distances
            ]
