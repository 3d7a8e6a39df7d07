import subprocess
import sys

import pytest

from twosc.canon import are_isomorphic
from twosc.core import GraphError, edit, triangles
from twosc.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    minimal_with_triangle,
    path_graph,
)
from twosc.io import graph6_decode
from twosc.recognition import NotTwoSelfCenteredError, condition_verdict, is_edge_minimal
from twosc.reduction import (
    EdgeNotInTriangleError,
    InvalidStepError,
    NoCriticalEndpointError,
    TriangleFreeInputError,
    _step_fault,
    apply_star_procedure,
    classify_edge_minimal_with_triangles,
    critical_partners,
    reduce_to_triangle_free,
    reduction_succeeds_in_any_order,
)


def five_cycle_with_chord():
    return edit(cycle_graph(5), add=(0, 2))


# 8 vertices, 13 edges, 4 triangles, edge-minimal.  The star step on its
# first qualifying edge (0, 1) adds 1-4 and 1-5 and so creates the
# triangle (1, 4, 5); another edge order reduces it to triangle-free.
ORDER_SENSITIVE_MINIMAL = "G}aHOs"


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
        # no step on a graph with n <= 8 breaks the property, so the
        # check is exercised on a hand-made before/after pair
        fault, after = _step_fault([(0, 1, 2)], path_graph(4))
        assert fault == "step broke the 2-self-centered property" and after == []
        assert _step_fault([(0, 1, 2)], cycle_graph(4)) == (None, [])


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
        assert cls.every_triangle_edge_critical
        assert cls.trace is not None and cls.trace.succeeded

    def test_chorded_cycle_is_not(self):
        cls = classify_edge_minimal_with_triangles(five_cycle_with_chord())
        assert not cls.minimal
        assert not cls.every_triangle_edge_critical
        assert cls.failing_edge == (0, 2)
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

    def test_chorded_cycle_succeeds(self):
        assert reduction_succeeds_in_any_order(five_cycle_with_chord()) is True

    def test_order_sensitive_minimal_has_a_working_order(self):
        g = order_sensitive_minimal()
        assert is_edge_minimal(g).minimal
        assert len(triangles(g)) == 4
        assert reduction_succeeds_in_any_order(g) is True
