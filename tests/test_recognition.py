import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twosc.canon import are_isomorphic
from twosc.core import (
    Graph,
    bits,
    complement,
    component_masks,
    connected_components,
    distance_profile,
    edit,
    is_star,
    mask_of,
)
from twosc.enumeration import connected_classes, graph_classes
from twosc.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    capped_k33,
    star_graph,
)
from twosc.recognition import (
    ComplementComponent,
    MaximalityCertificate,
    MinimalityWitness,
    NotTwoSelfCenteredError,
    check_bipartite_proposition,
    check_triangle_free_lemma,
    complement_star_certificate,
    complete_bipartite_parts,
    condition_verdict,
    conditions_ok,
    critical_triples,
    edge_maximal_by_definition,
    edit_keeps_two_sc,
    greedy_edge_maximal,
    greedy_edge_minimal,
    has_critical_triple,
    is_edge_maximal,
    is_edge_minimal,
    is_two_self_centered,
    metric_two_self_centered,
    star_edit_keeps_two_sc,
)

from conftest import disjoint_unions, graphs, two_sc_graphs


def five_cycle_with_chord() -> Graph:
    return edit(cycle_graph(5), add=(0, 2))


class TestTwoSelfCentered:
    def test_complete_graphs_are_not(self):
        for n in range(2, 7):
            verdict = is_two_self_centered(complete_graph(n))
            assert not verdict.is_2sc
            assert verdict.violating_vertex is not None

    def test_four_cycle_is(self):
        verdict = is_two_self_centered(cycle_graph(4))
        assert verdict.is_2sc
        assert verdict.violating_vertex is None and verdict.violating_pair is None

    def test_path_is_not(self):
        verdict = is_two_self_centered(path_graph(4))
        assert not verdict.is_2sc
        assert verdict.violating_pair == (0, 3)
        assert not metric_two_self_centered(path_graph(4))

    def test_star_is_not(self):
        assert not is_two_self_centered(star_graph(3)).is_2sc

    def test_petersen_is(self):
        assert is_two_self_centered(petersen_graph()).is_2sc

    def test_disconnected_is_not(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        verdict = is_two_self_centered(g)
        assert not verdict.is_2sc and verdict.violating_pair is not None

    def test_fast_test_matches_verdict_on_every_class_up_to_seven(self):
        # The battery and the input guards use the early-exit bool form;
        # it must agree with the reporting form everywhere.
        for n in range(1, 8):
            for g in graph_classes(n):
                assert conditions_ok(g.adj, n) == condition_verdict(g).is_2sc, g

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=12))
    def test_fast_test_matches_verdict_on_random_graphs(self, g):
        assert conditions_ok(g.adj, g.n) == condition_verdict(g).is_2sc

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(graphs(max_n=16), two_sc_graphs(max_n=16)))
    def test_verdict_matches_the_metric_on_random_graphs(self, g):
        # the battery compares the two exhaustively only up to n = 8; few
        # graphs drawn edge by edge are 2SC, so 2SC ones are drawn as well
        assert condition_verdict(g).is_2sc == metric_two_self_centered(g), g

    @settings(max_examples=200, deadline=None)
    @given(disjoint_unions(max_n=16))
    def test_verdict_matches_the_metric_on_unions_and_their_complements(self, g):
        for h in (g, complement(g)):
            assert condition_verdict(h).is_2sc == metric_two_self_centered(h), h


class TestEdgeMaximal:
    def test_four_cycle(self):
        cert = is_edge_maximal(cycle_graph(4))
        assert cert.maximal
        assert [c.vertices for c in cert.components] == [(0, 2), (1, 3)]
        assert all(c.star for c in cert.components)

    def test_five_cycle_is_not(self):
        cert = is_edge_maximal(cycle_graph(5))
        assert not cert.maximal
        assert cert.complement_connected
        # the definitional route agrees: some chord keeps the property
        assert not edge_maximal_by_definition(cycle_graph(5))

    def test_star_forest_complement(self):
        # complement made of one two-leaf star and one single-edge star
        comp = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        g = complement(comp)
        cert = is_edge_maximal(g)
        assert cert.maximal
        assert edge_maximal_by_definition(g)

    def test_complete_bipartite_is_not(self):
        assert not is_edge_maximal(complete_bipartite(3, 3)).maximal

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            is_edge_maximal(path_graph(4))

    @settings(max_examples=200, deadline=None)
    @given(two_sc_graphs(max_n=14))
    def test_certificate_matches_the_definition_on_random_graphs(self, g):
        # the greedy supergraph is edge-maximal, so both verdicts are reached
        for h in (g, greedy_edge_maximal(g)):
            assert complement_star_certificate(h).maximal == edge_maximal_by_definition(h), h

    def test_definition_requires_two_self_centered(self):
        for g in (path_graph(4), complete_graph(5), star_graph(4)):
            with pytest.raises(NotTwoSelfCenteredError):
                edge_maximal_by_definition(g)


class TestEdgeMinimal:
    def test_four_cycle(self):
        assert is_edge_minimal(cycle_graph(4)).minimal

    def test_petersen(self):
        assert is_edge_minimal(petersen_graph()).minimal

    def test_chorded_cycle_is_not(self):
        witness = is_edge_minimal(five_cycle_with_chord())
        assert not witness.minimal
        assert witness.removable_edge == (0, 2)

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            is_edge_minimal(complete_graph(4))


def toggled(adj, u, v) -> list[int]:
    """adj with the pair uv flipped: added when absent, deleted when present."""
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return out


def sweep_edge_minimal(g: Graph) -> MinimalityWitness:
    """Reference: the first edge whose deletion passes the full O(n^2) test."""
    for u, v in g.edges():
        if conditions_ok(toggled(g.adj, u, v), g.n):
            return MinimalityWitness(False, (u, v))
    return MinimalityWitness(True)


def sweep_edge_maximal(g: Graph) -> bool:
    """Reference: no absent edge whose addition passes the full O(n^2) test."""
    n = g.n
    return not any(
        not g.has_edge(u, v) and conditions_ok(toggled(g.adj, u, v), n)
        for u in range(n)
        for v in range(u + 1, n)
    )


def assert_rule_matches_full_test(g: Graph) -> None:
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            assert edit_keeps_two_sc(g.adj, n, u, v) == conditions_ok(toggled(g.adj, u, v), n), (g, u, v)
    assert is_edge_minimal(g) == sweep_edge_minimal(g)
    assert edge_maximal_by_definition(g) == sweep_edge_maximal(g)


class TestOneEdgeRule:
    """edit_keeps_two_sc against conditions_ok on the edited adjacency."""

    def test_every_two_sc_class_up_to_eight(self):
        examined = 0
        for n in range(4, 9):
            for g in graph_classes(n):
                if conditions_ok(g.adj, n):
                    examined += 1
                    assert_rule_matches_full_test(g)
        assert examined == 3360

    @settings(max_examples=200, deadline=None)
    @given(two_sc_graphs(max_n=14))
    def test_random_two_sc_graphs(self, g):
        assert_rule_matches_full_test(g)


class TestStarEditRule:
    """star_edit_keeps_two_sc against conditions_ok on the edited adjacency.

    No real star step fails the rule (none with n <= 8), so these random
    edits are what reach its failing branches.
    """

    @settings(max_examples=200, deadline=None)
    @given(two_sc_graphs(max_n=14), st.integers(0, 2**32 - 1))
    def test_delete_one_edge_add_any_absent_pairs(self, g, seed):
        rng = random.Random(seed)
        n = g.n
        absent = [(a, b) for a in range(n) for b in range(a + 1, n) if not g.adj[a] >> b & 1]
        for u, v in g.edges():
            for q in (0.0, 0.05, 0.2):
                added = [e for e in absent if rng.random() < q]
                adj = toggled(g.adj, u, v)
                for a, b in added:
                    adj = toggled(adj, a, b)
                assert star_edit_keeps_two_sc(adj, n, u, v, added) == conditions_ok(adj, n), (g, u, v, added)

    def test_four_cycle_minus_an_edge_fails(self):
        # C4 is 2SC; deleting (0, 3) leaves the path P4, with degree 1 at 0 and 3
        assert not star_edit_keeps_two_sc(path_graph(4).adj, 4, 0, 3, ())

    def test_deletion_alone_agrees_with_the_one_edge_rule(self):
        for n in range(4, 8):
            for g in graph_classes(n):
                if conditions_ok(g.adj, n):
                    for u, v in g.edges():
                        after = toggled(g.adj, u, v)
                        assert star_edit_keeps_two_sc(after, n, u, v, ()) == edit_keeps_two_sc(g.adj, n, u, v)


class TestCriticalTriples:
    def test_complete_bipartite_has_none(self):
        assert critical_triples(complete_bipartite(3, 3)) == []

    def test_four_cycle_has_none(self):
        assert critical_triples(cycle_graph(4)) == []

    def test_capped_bipartite_apex(self):
        triples = {(t.x, t.u, t.v) for t in critical_triples(capped_k33())}
        assert (0, 1, 2) in triples  # the apex covers its two anchors

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            critical_triples(path_graph(4))

    def test_existence_agrees_on_every_class_up_to_seven(self):
        examined = 0
        for n in range(4, 8):
            for g in graph_classes(n):
                if conditions_ok(g.adj, g.n):
                    examined += 1
                    assert has_critical_triple(g) == bool(critical_triples(g))
        assert examined > 0

    @given(two_sc_graphs(max_n=14))
    def test_existence_agrees_on_random_two_sc_graphs(self, g):
        assert has_critical_triple(g) == bool(critical_triples(g))


class TestBipartiteProposition:
    def test_complete_bipartite(self):
        assert check_bipartite_proposition(complete_bipartite(2, 3))

    def test_five_cycle(self):
        assert check_bipartite_proposition(cycle_graph(5))

    def test_six_cycle(self):
        assert check_bipartite_proposition(cycle_graph(6))

    def test_works_on_arbitrary_graphs(self):
        assert check_bipartite_proposition(path_graph(4))
        assert check_bipartite_proposition(complete_graph(5))


def profile_metric(g: Graph) -> bool:
    """Reference: radius = diameter = 2 read off the full distance profile."""
    if g.n == 0:
        return False
    profile = distance_profile(g)
    return profile.connected and profile.radius == 2 and profile.diameter == 2


def complement_graph_certificate(g: Graph) -> MaximalityCertificate:
    """Reference: the star test on a validated complement Graph and vertex lists."""
    comp = complement(g)
    parts = connected_components(comp)
    pieces = []
    for part in parts:
        star = is_star(comp, part)
        inside = mask_of(part)
        center = max(part, key=lambda v: ((comp.adj[v] & inside).bit_count(), -v)) if star else None
        pieces.append(ComplementComponent(tuple(part), star, center))
    disconnected = len(parts) >= 2
    return MaximalityCertificate(
        disconnected and all(piece.star for piece in pieces), not disconnected, tuple(pieces)
    )


def colouring_parts(g: Graph) -> tuple[list[int], list[int]] | None:
    """Reference: 2-colour from vertex 0 by search, then count the edges."""
    n = g.n
    if n == 0 or len(component_masks(g.adj, n)) != 1:
        return None
    color = [-1] * n
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in bits(g.adj[u]):
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    side = [v for v in range(n) if color[v] == 0]
    other = [v for v in range(n) if color[v] == 1]
    if g.edge_count != len(side) * len(other):
        return None
    return side, other


def assert_matches_references(g: Graph) -> None:
    assert metric_two_self_centered(g) == profile_metric(g), g
    assert complement_star_certificate(g).to_json() == complement_graph_certificate(g).to_json(), g
    assert complete_bipartite_parts(g) == colouring_parts(g), g


class TestMaskFormsMatchReferences:
    """The mask forms of the metric oracle, the complement-star certificate
    and the complete-bipartite test against their earlier forms."""

    def test_every_class_up_to_seven(self):
        assert_matches_references(Graph(()))
        for n in range(1, 8):
            for g in graph_classes(n):
                assert_matches_references(g)

    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=0, max_n=16))
    def test_random_graphs(self, g):
        assert_matches_references(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=0, max_n=3))
    def test_random_graphs_up_to_three_vertices(self, g):
        assert_matches_references(g)

    @settings(max_examples=200, deadline=None)
    @given(disjoint_unions(max_n=16))
    def test_disconnected_graphs_and_their_complements(self, g):
        # the complement of complement(g) is the union g itself, so the
        # certificate of complement(g) sees the small parts, stars among them
        assert_matches_references(g)
        assert_matches_references(complement(g))


class TestTriangleFreeLemma:
    def test_petersen(self):
        assert check_triangle_free_lemma(petersen_graph())

    def test_four_cycle(self):
        assert check_triangle_free_lemma(cycle_graph(4))

    def test_vacuous_with_triangles(self):
        from twosc.graphs import minimal_with_triangle

        assert check_triangle_free_lemma(minimal_with_triangle())


class TestSandwich:
    def test_shrink_chorded_cycle(self):
        assert greedy_edge_minimal(five_cycle_with_chord()) == cycle_graph(5)

    def test_grow_five_cycle(self):
        grown = greedy_edge_maximal(cycle_graph(5))
        assert sorted(grown.edges()) == sorted(cycle_graph(5).edges() + [(0, 2), (1, 3)])
        assert is_edge_maximal(grown).maximal

    def test_fixed_points(self):
        assert greedy_edge_minimal(cycle_graph(4)) == cycle_graph(4)
        assert greedy_edge_maximal(cycle_graph(4)) == cycle_graph(4)

    def test_sandwich_brackets_input(self):
        g = five_cycle_with_chord()
        sub = greedy_edge_minimal(g)
        sup = greedy_edge_maximal(g)
        assert set(sub.edges()) <= set(g.edges()) <= set(sup.edges())
        assert is_edge_minimal(sub).minimal
        assert is_edge_maximal(sup).maximal


def restart_edge_minimal(g: Graph) -> Graph:
    """Reference: delete the first removable edge, then rescan from the start."""
    current = g
    while True:
        for u, v in current.edges():
            candidate = edit(current, remove=(u, v))
            if conditions_ok(candidate.adj, candidate.n):
                current = candidate
                break
        else:
            return current


def restart_edge_maximal(g: Graph) -> Graph:
    """Reference: add the first addable absent edge, then rescan from the start."""
    current = g
    while True:
        n = current.n
        for u in range(n):
            found = None
            for v in range(u + 1, n):
                if current.has_edge(u, v):
                    continue
                candidate = edit(current, add=(u, v))
                if conditions_ok(candidate.adj, candidate.n):
                    found = candidate
                    break
            if found is not None:
                current = found
                break
        else:
            return current


class TestGreedyMatchesRestart:
    def test_every_connected_class_up_to_seven(self):
        examined = 0
        for n in range(4, 8):
            for g in connected_classes(n):
                if not condition_verdict(g).is_2sc:
                    continue
                examined += 1
                assert greedy_edge_minimal(g) == restart_edge_minimal(g)
                assert greedy_edge_maximal(g) == restart_edge_maximal(g)
        assert examined > 0

    @settings(max_examples=150, deadline=None)
    @given(two_sc_graphs(max_n=14))
    def test_random_two_sc_graphs(self, g):
        assert greedy_edge_minimal(g) == restart_edge_minimal(g)
        assert greedy_edge_maximal(g) == restart_edge_maximal(g)
