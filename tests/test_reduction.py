import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from twosc import reduction
from twosc.canon import are_isomorphic
from twosc.core import Graph, GraphError, edit, has_triangle, triangles
from twosc.enumeration import graph_classes
from twosc.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    minimal_with_triangle,
    path_graph,
)
from twosc.io import graph6_decode
from twosc.recognition import (
    NotTwoSelfCenteredError,
    condition_verdict,
    conditions_ok,
    greedy_edge_minimal,
    has_critical_endpoint,
    is_edge_minimal,
)
from twosc.reduction import (
    EdgeNotInTriangleError,
    InvalidStepError,
    NoCriticalEndpointError,
    ReductionStep,
    ReductionTrace,
    TriangleFreeInputError,
    _step_fault,
    _triangles_left,
    apply_star_procedure,
    classify_edge_minimal_with_triangles,
    critical_partners,
    reduce_to_triangle_free,
    reduction_succeeds_in_any_order,
    replay_trace,
)

from conftest import graphs, two_sc_graphs


def five_cycle_with_chord():
    return edit(cycle_graph(5), add=(0, 2))


# 8 vertices, 13 edges, 4 triangles, edge-minimal.  The star step on its
# first qualifying edge (0, 1) adds 1-4 and 1-5 and so creates the
# triangle (1, 4, 5); another edge order reduces it to triangle-free.
ORDER_SENSITIVE_MINIMAL = "G}aHOs"


# Edge-minimal graphs, as labelled, on which the greedy order (always the
# first triangle edge with a critical endpoint) fails: the one known with
# n <= 8 and 13 with n = 9 found by the n <= 9 battery.
GREEDY_FAILS = (
    ORDER_SENSITIVE_MINIMAL,
    "HovTb?p", r"Hr\cmA_", "Hsza`eO", "H{d@?kM", "H}aH`SU", "H}aHpOX", "H}aIPgJ",
    "H}aIPoJ", "H}aK@SX", "H}aKPGR", "H}arQqG", "H}iQYCM", "H}mCJHS",
)

# Fixtures the reduction must reduce where the greedy order fails: the
# n = 8 graph, the n = 9 graph whose search visits the most states, and
# pinned_reduce_inputs()[11], with n = 10.
GREEDY_FAILS_FIXTURES = (ORDER_SENSITIVE_MINIMAL, "H}iQYCM", "IB?OD{Pqo")


def order_sensitive_minimal():
    return graph6_decode(ORDER_SENSITIVE_MINIMAL)


class TestCriticalPartners:
    def test_fixture_partners(self):
        g = minimal_with_triangle()
        # 6 is the unique common neighbor of 7 and 4
        assert critical_partners(g, 6, 7) == [4]
        # 3 uniquely joins 6 to both 0 and 2
        assert critical_partners(g, 3, 6) == [0, 2]

    def test_no_partner_through_adjacent(self):
        g = cycle_graph(4)
        assert critical_partners(g, 0, 1) == []


class TestApplyStep:
    def test_fixture_edge_six_seven(self):
        g = minimal_with_triangle()
        result, step = apply_star_procedure(g, 6, 7)
        assert step.removed_edge == (6, 7)
        assert (4, 7) in step.added_edges
        assert set(step.added_edges) == {(4, 7), (5, 6)}
        assert condition_verdict(result).is_2sc
        assert len(triangles(result)) < len(triangles(g))

    def test_fixture_edge_three_six(self):
        g = minimal_with_triangle()
        result, step = apply_star_procedure(g, 3, 6)
        assert step.u_partners == (0, 2)
        assert step.v_partners == (4,)
        assert set(step.added_edges) == {(0, 6), (2, 6), (3, 4)}
        assert not triangles(result)
        # the record is exactly what its JSON holds
        assert ReductionStep._fields == ("u", "v", "u_partners", "v_partners")
        assert step == (3, 6, (0, 2), (4,)) and step.removed_edge == (3, 6)

    @pytest.mark.parametrize("tamper", [
        {"u_partners": (0,)},  # a partner dropped
        {"v_partners": (1, 4)},  # a vertex added
        {"u_partners": (4,), "v_partners": (0, 2)},  # the partners swapped
        {"u_partners": (2, 0)},  # a partner tuple reordered
    ])
    def test_replay_rejects_a_tampered_step(self, tamper):
        g = minimal_with_triangle()
        result, step = apply_star_procedure(g, 3, 6)
        assert replay_trace(g, ReductionTrace((step,), result, True))
        assert not replay_trace(g, ReductionTrace((step._replace(**tamper),), result, True))

    def test_triangle_free_edge_rejected(self):
        with pytest.raises(EdgeNotInTriangleError):
            apply_star_procedure(cycle_graph(4), 0, 1)

    def test_non_edge_rejected(self):
        with pytest.raises(EdgeNotInTriangleError):
            apply_star_procedure(cycle_graph(4), 0, 2)

    def test_no_critical_endpoint(self):
        # the chord of a chorded five-cycle lies on a triangle, but neither
        # endpoint is the unique common neighbor of the other and anything
        g = five_cycle_with_chord()
        assert critical_partners(g, 0, 2) == []
        assert critical_partners(g, 2, 0) == []
        with pytest.raises(NoCriticalEndpointError):
            apply_star_procedure(g, 0, 2)

    def test_step_creating_a_triangle_raises(self):
        g = order_sensitive_minimal()
        with pytest.raises(InvalidStepError, match=r"created a new triangle.*\(1, 4, 5\)"):
            apply_star_procedure(g, 0, 1)
        assert issubclass(InvalidStepError, GraphError)

    def test_step_check_survives_optimize_flag(self):
        code = (
            "from twosc.io import graph6_decode\n"
            "from twosc.reduction import InvalidStepError, apply_star_procedure\n"
            "try:\n"
            f"    apply_star_procedure(graph6_decode({ORDER_SENSITIVE_MINIMAL!r}), 0, 1)\n"
            "except InvalidStepError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_step_fault_names_a_broken_property(self):
        # no real step on a 2SC graph breaks the property (TestStarStepRule),
        # so the full test's two outcomes are shown on hand-made edits
        broke = "step broke the 2-self-centered property"
        # deleting the chord (0, 2) leaves P4 (fails) or C4 (passes)
        assert _step_fault(list(path_graph(4).adj), 0, 2, 0, 0, False) == broke
        assert _step_fault(list(cycle_graph(4).adj), 0, 2, 0, 0, False) is None
        assert _triangles_left([(0, 1, 2)], 0, 2) == []

    @pytest.mark.parametrize("bad", [8, -1, -8, 99])
    def test_vertex_outside_the_graph_raises_graph_error(self, bad):
        # n = 8: ids n, -1 and -n used to raise IndexError or a plain
        # ValueError("negative shift count"), or index from the end
        g = order_sensitive_minimal()
        for args in ((bad, 0), (bad, 1), (0, bad), (bad, bad)):
            with pytest.raises(GraphError, match=f"vertex {bad} outside 0..7"):
                apply_star_procedure(g, *args)
            with pytest.raises(GraphError, match=f"vertex {bad} outside 0..7"):
                critical_partners(g, *args)
            one = ReductionTrace((ReductionStep(*args, (), ()),), g, True)
            with pytest.raises(GraphError, match=f"vertex {bad} outside 0..7"):
                replay_trace(g, one)


class TestReduce:
    def test_triangle_free_input_is_trivial(self):
        g = cycle_graph(4)
        trace = reduce_to_triangle_free(g)
        assert trace.succeeded and trace.steps == () and trace.final == g

    def test_fixture_reduces_in_one_step(self):
        trace = reduce_to_triangle_free(minimal_with_triangle())
        assert trace.succeeded
        assert len(trace.steps) == 1
        assert not triangles(trace.final)
        assert condition_verdict(trace.final).is_2sc

    def test_chorded_cycle_outcome(self):
        # not edge-minimal, so no guarantee applies; the run is recorded
        # and happens to succeed, landing on the complete bipartite graph
        trace = reduce_to_triangle_free(five_cycle_with_chord())
        assert trace.succeeded
        assert len(trace.steps) == 1
        assert are_isomorphic(trace.final, complete_bipartite(2, 3))

    def test_step_bound(self):
        g = minimal_with_triangle()
        trace = reduce_to_triangle_free(g)
        assert len(trace.steps) <= len(triangles(g))

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            reduce_to_triangle_free(complete_graph(4))


class TestClassify:
    def test_fixture_is_minimal(self):
        cls = classify_edge_minimal_with_triangles(minimal_with_triangle())
        assert cls.minimal
        assert cls.failing_edge is None
        assert cls.trace is not None and cls.trace.succeeded
        assert "every_triangle_edge_critical" not in cls.to_json()

    def test_chorded_cycle_is_not(self):
        cls = classify_edge_minimal_with_triangles(five_cycle_with_chord())
        assert not cls.minimal
        assert cls.failing_edge == (0, 2)
        assert cls.trace is None
        assert not is_edge_minimal(five_cycle_with_chord()).minimal

    def test_triangle_free_rejected(self):
        with pytest.raises(TriangleFreeInputError):
            classify_edge_minimal_with_triangles(cycle_graph(4))

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            classify_edge_minimal_with_triangles(path_graph(4))


class TestAnyOrderSearch:
    def test_fixture_succeeds(self):
        assert reduction_succeeds_in_any_order(minimal_with_triangle()) is True

    def test_no_valid_order(self):
        # 2SC and not minimal; every order of valid steps dead-ends
        g = graph6_decode("D}K")
        trace = reduce_to_triangle_free(g)
        assert not trace.succeeded and trace.steps == () and trace.final == g
        assert trace.failure_reason == "no order of valid star steps reaches a triangle-free graph"
        assert reduction_succeeds_in_any_order(g) is False

    def test_some_order_where_greedy_fails_on_a_graph_that_is_not_minimal(self):
        g = graph6_decode("E|pO")
        assert not is_edge_minimal(g).minimal
        assert not ref_reduce_to_triangle_free(g).succeeded
        trace = reduce_to_triangle_free(g)
        assert trace.succeeded and replay_trace(g, trace)
        assert reduction_succeeds_in_any_order(g) is True

    def test_exhausted_budget_is_undecided(self, monkeypatch):
        monkeypatch.setattr(reduction, "SEARCH_BUDGET", 1)
        g = order_sensitive_minimal()
        trace = reduce_to_triangle_free(g)
        assert not trace.succeeded and trace.steps == () and trace.final == g
        assert trace.failure_reason == "the search visited SEARCH_BUDGET nodes undecided"
        assert reduction_succeeds_in_any_order(g) is None

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            reduction_succeeds_in_any_order(graph6_decode("C{"))

    def test_chorded_cycle_succeeds(self):
        assert reduction_succeeds_in_any_order(five_cycle_with_chord()) is True

    def test_order_sensitive_minimal_has_a_working_order(self):
        g = order_sensitive_minimal()
        assert is_edge_minimal(g).minimal
        assert len(triangles(g)) == 4
        assert reduction_succeeds_in_any_order(g) is True

    @pytest.mark.parametrize("record", GREEDY_FAILS_FIXTURES)
    def test_reduces_where_the_greedy_order_fails(self, record):
        g = graph6_decode(record)
        assert is_edge_minimal(g).minimal
        assert not ref_reduce_to_triangle_free(g).succeeded
        trace = reduce_to_triangle_free(g)
        assert trace.succeeded and not has_triangle(trace.final) and trace.final.two_sc
        assert replay_trace(g, trace) and ref_replay_trace(g, trace)
        cls = classify_edge_minimal_with_triangles(g)
        assert cls.minimal and cls.trace == trace


# --- the Graph-per-step reduction, kept as the reference --------------------


def ref_critical_partners(g: Graph, x: int, anchor: int) -> list[int]:
    out = []
    a_adj = g.adj[anchor]
    for w in range(g.n):
        if w == anchor or a_adj >> w & 1:
            continue
        if a_adj & g.adj[w] == 1 << x:
            out.append(w)
    return out


def ref_raw_step(g: Graph, u: int, v: int) -> tuple[Graph, ReductionStep]:
    if not g.has_edge(u, v):
        raise EdgeNotInTriangleError(f"({u}, {v}) is not an edge")
    if not g.adj[u] & g.adj[v]:
        raise EdgeNotInTriangleError(f"edge ({u}, {v}) lies on no triangle")
    u_partners = tuple(ref_critical_partners(g, u, v))
    v_partners = tuple(ref_critical_partners(g, v, u))
    if not u_partners and not v_partners:
        raise NoCriticalEndpointError(
            f"neither endpoint of ({u}, {v}) is critical for the other endpoint and any vertex"
        )
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    added = []
    for w in u_partners:
        adj[v] |= 1 << w
        adj[w] |= 1 << v
        added.append((min(v, w), max(v, w)))
    for w in v_partners:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
        added.append((min(u, w), max(u, w)))
    step = ReductionStep(u, v, u_partners, v_partners)
    # the record derives the edges this builds
    assert step.added_edges == tuple(added) and step.removed_edge == (min(u, v), max(u, v))
    return Graph(tuple(adj)), step


def ref_step_fault(tris, result: Graph):
    after = triangles(result)
    if set(after) - set(tris):
        return "step created a new triangle", after
    if not conditions_ok(result.adj, result.n):
        return "step broke the 2-self-centered property", after
    return None, after


def ref_apply_star_procedure(g: Graph, u: int, v: int):
    result, step = ref_raw_step(g, u, v)
    tris = triangles(g)
    fault, after = ref_step_fault(tris, result)
    if fault is not None:
        created = sorted(set(after) - set(tris))
        raise InvalidStepError(f"{fault} on edge ({u}, {v})" + (f": {created}" if created else ""))
    return result, step


def ref_replay_trace(g: Graph, trace: ReductionTrace) -> bool:
    current = g
    tris = triangles(current)
    for step in trace.steps:
        nxt, redo = ref_raw_step(current, step.u, step.v)
        if redo.added_edges != step.added_edges:
            return False
        fault, tris = ref_step_fault(tris, nxt)
        if fault is not None:
            return False
        current = nxt
    return not tris and current == trace.final


def ref_pick_edge(g: Graph, tris):
    for tri in sorted(tris):
        a, b, c = tri
        for u, v in ((a, b), (a, c), (b, c)):
            if ref_critical_partners(g, u, v) or ref_critical_partners(g, v, u):
                return (u, v)
    return None


def ref_reduce_to_triangle_free(g: Graph) -> ReductionTrace:
    steps: list[ReductionStep] = []
    current = g
    tris = triangles(current)
    while tris:
        choice = ref_pick_edge(current, tris)
        if choice is None:
            return ReductionTrace(tuple(steps), current, False, "no triangle edge has a critical endpoint")
        current, step = ref_raw_step(current, *choice)
        steps.append(step)
        fault, tris = ref_step_fault(tris, current)
        if fault is not None:
            return ReductionTrace(tuple(steps), current, False, fault)
    return ReductionTrace(tuple(steps), current, True)


def ref_reduction_succeeds_in_any_order(g: Graph, limit: int = 200000) -> bool | None:
    """The search that takes any step lowering the triangle count, 2SC tested at the leaves."""
    dead_ends: set[tuple[int, ...]] = set()
    budget = limit

    def search(current: Graph) -> bool | None:
        nonlocal budget
        if budget <= 0:
            return None
        budget -= 1
        tris = triangles(current)
        if not tris:
            return current.two_sc
        key = current.adj
        if key in dead_ends:
            return False
        hit_limit = False
        for tri in tris:
            a, b, c = tri
            for u, v in ((a, b), (a, c), (b, c)):
                if not (ref_critical_partners(current, u, v) or ref_critical_partners(current, v, u)):
                    continue
                nxt, _ = ref_raw_step(current, u, v)
                if len(triangles(nxt)) >= len(tris):
                    continue
                sub = search(nxt)
                if sub:
                    return True
                if sub is None:
                    hit_limit = True
        if hit_limit:
            return None
        dead_ends.add(key)
        return False

    return search(g)


def outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def triangle_edges(g: Graph) -> list[tuple[int, int]]:
    return sorted({e for a, b, c in triangles(g) for e in ((a, b), (a, c), (b, c))})


def assert_steps_match_reference(g: Graph, both_orientations: bool = True) -> None:
    """Every star step on g and its one-step replay."""
    for a, b in triangle_edges(g):
        for u, v in ((a, b), (b, a)) if both_orientations else ((a, b),):
            assert outcome(apply_star_procedure, g, u, v) == outcome(ref_apply_star_procedure, g, u, v), (g, u, v)
            raw = outcome(ref_raw_step, g, u, v)
            if isinstance(raw[1], ReductionStep):
                one = ReductionTrace((raw[1],), raw[0], True)
                assert replay_trace(g, one) == ref_replay_trace(g, one), (g, u, v)


def assert_matches_reference(g: Graph, both_orientations: bool = True) -> None:
    """The reduction against the greedy and any-order references.

    Where the greedy order succeeds the search's first descent is that
    order, so the traces are equal; elsewhere the search succeeds iff
    some order does, and each success replays under both replays.
    """
    for x in range(g.n):
        for anchor in range(g.n):
            assert critical_partners(g, x, anchor) == ref_critical_partners(g, x, anchor)
    trace = reduce_to_triangle_free(g)
    ref = ref_reduce_to_triangle_free(g)
    if ref.succeeded:
        assert trace.steps == ref.steps and trace.final == ref.final, g
    else:
        assert trace.succeeded == (ref_reduction_succeeds_in_any_order(g) is True), g
    if trace.succeeded:
        assert replay_trace(g, trace) and ref_replay_trace(g, trace), g
    else:
        assert trace.steps == () and trace.final == g
    assert replay_trace(g, ref) == ref_replay_trace(g, ref), g
    assert_steps_match_reference(g, both_orientations)


class TestMatchesGraphPerStepReference:
    def test_every_two_sc_class_with_triangles_up_to_eight(self):
        examined = 0
        for n in range(4, 9):
            for g in graph_classes(n):
                if g.two_sc and has_triangle(g):
                    examined += 1
                    assert_matches_reference(g, both_orientations=False)
        assert examined == 3340

    @settings(max_examples=150, deadline=None)
    @given(two_sc_graphs(max_n=14))
    def test_random_two_sc_graphs(self, g):
        assert_matches_reference(g)

    def test_search_on_the_graphs_greedy_fails_and_the_pinned_inputs(self):
        named = [graph6_decode(s) for s in GREEDY_FAILS]
        for g in named:
            assert is_edge_minimal(g).minimal and not ref_reduce_to_triangle_free(g).succeeded, g
            assert ref_reduction_succeeds_in_any_order(g) is True, g
            assert_matches_reference(g)
        for g in pinned_reduce_inputs():
            assert_matches_reference(g, both_orientations=False)

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=3, max_n=10))
    def test_steps_on_arbitrary_graphs(self, g):
        # input not known to be 2SC: the full local test decides
        assert_steps_match_reference(g)


def step_keeps_two_sc(g: Graph, u: int, v: int) -> bool:
    """Whether the star step on uv of g leaves a 2-self-centered graph, by conditions_ok."""
    adj = list(g.adj)
    reduction._join_partners(adj, u, v, reduction._partners(adj, u, v), reduction._partners(adj, v, u))
    return conditions_ok(adj, g.n)


class TestStarStepRule:
    """The theorem of the reduction's docstring against conditions_ok.

    Every star step keeps a 2-self-centered graph 2-self-centered, so on
    such input the reduction tests only for new triangles.
    """

    def test_every_step_of_every_two_sc_class_with_triangles_up_to_eight(self):
        steps = 0
        for n in range(4, 9):
            for g in graph_classes(n):
                if not g.two_sc:
                    continue
                for u, v in triangle_edges(g):
                    if has_critical_endpoint(g.adj, u, v):
                        assert step_keeps_two_sc(g, u, v), (g, u, v)
                        steps += 1
        assert steps == 11266

    @settings(max_examples=150, deadline=None)
    @given(two_sc_graphs(max_n=14))
    def test_every_step_of_random_two_sc_graphs(self, g):
        for u, v in triangle_edges(g):
            if has_critical_endpoint(g.adj, u, v):
                assert step_keeps_two_sc(g, u, v), (g, u, v)


# sha256 of the reduce_to_triangle_free(...).to_json() documents of
# pinned_reduce_inputs(), one sorted-key JSON line each.  The reduction's
# edge order decides these traces, so changing that order changes it.
REDUCE_DIGEST = "2d534d33ed7af46be7096eb33e63f42d51644cdc50468cdaae313a3e21c5478a"


def pinned_reduce_inputs() -> list[Graph]:
    """64 seeded edge-minimal 2SC graphs with triangles and n = 9..24."""
    rng = random.Random(9)
    out = []
    while len(out) < 64:
        n = rng.randint(9, 24)
        p = rng.choice((0.45, 0.55))
        adj = None
        while adj is None or not conditions_ok(adj, n):
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
        g = greedy_edge_minimal(Graph(tuple(adj)))
        if has_triangle(g):
            out.append(g)
    return out


def test_reduce_outputs_pinned_above_eight():
    gs = pinned_reduce_inputs()
    assert min(g.n for g in gs) == 9 and max(g.n for g in gs) == 24
    traces = [reduce_to_triangle_free(g) for g in gs]
    # every input reduces, and each trace replays
    assert all(t.succeeded and replay_trace(g, t) for g, t in zip(gs, traces))
    docs = [t.to_json() for t in traces]
    text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
    assert hashlib.sha256(text.encode()).hexdigest() == REDUCE_DIGEST
