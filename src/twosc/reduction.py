"""The star rewriting step and the classification of minimal graphs with triangles.

The step removes one triangle edge uv and reconnects directly every pair
that depended on the removed edge: whenever u was the unique common
neighbor of v and some w, the edge vw is added (and symmetrically for v).
A step is valid when it creates no triangle and keeps the graph
2-self-centered; a valid step strictly lowers the triangle count, which
is what drives the classification.  The reading of arXiv:1910.12110
implemented here is an existence claim: on an edge-minimal graph *some*
order of valid steps reaches a triangle-free 2-self-centered graph.  Not
every order does: on ``G}aHOs`` the step on (0, 1) creates the triangle
(1, 4, 5).  ``reduce_to_triangle_free`` searches the orders, depth
first, and returns the first that succeeds as the trace.

A reduction edits one adjacency list in place (``_star_step``) and
builds a ``Graph`` only for its result.  A step's validity is read from
its own edits, not from the whole result:

- Triangles.  Every edge of a triangle that is new must have been added,
  so the step creates a triangle iff some added edge ab has a common
  neighbor afterwards.  When none does, the triangles left are those
  before the step minus the ones holding both u and v, in the same
  order.
- 2-self-centered.  The step deletes uv and adds edges, so on a
  2-self-centered graph ``recognition.star_edit_keeps_two_sc`` decides
  the property from the touched vertices and the pairs at u and v.
  Where the graph before the step is not known to be 2-self-centered
  (``apply_star_procedure``, and the first step of ``replay_trace``, on
  such input), the full local test runs on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import Graph, GraphError, bits, check_vertices, conditions_ok, triangles
from .recognition import NotTwoSelfCenteredError, _partners, has_critical_endpoint, star_edit_keeps_two_sc

# Nodes the reduction's search may visit before it gives up undecided.
SEARCH_BUDGET = 200000


class EdgeNotInTriangleError(GraphError):
    """The chosen pair is not an edge lying on a triangle."""


class NoCriticalEndpointError(GraphError):
    """Neither endpoint is the unique common neighbor of the other and anything."""


class TriangleFreeInputError(GraphError):
    """The operation requires at least one triangle."""


class InvalidStepError(GraphError):
    """A star step created a triangle or broke the 2-self-centered property."""


def critical_partners(g: Graph, x: int, anchor: int) -> list[int]:
    """All w, ascending, such that x is the unique common neighbor of anchor and w."""
    check_vertices(g.n, x, anchor)
    return list(bits(_partners(g.adj, x, anchor)))


@dataclass(frozen=True)
class ReductionStep:
    """One application of the star rewriting step.

    ``u_partners`` lists the w with u the unique common neighbor of
    (v, w) before the step; each such w gained the edge vw.  Symmetrically
    for ``v_partners``.
    """

    removed_edge: tuple[int, int]
    u: int
    v: int
    u_partners: tuple[int, ...]
    v_partners: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]

    def to_json(self) -> dict[str, Any]:
        """u, v and the partners; the removed and added edges follow from them."""
        return {
            "u": self.u,
            "v": self.v,
            "u_critical_partners": list(self.u_partners),
            "v_critical_partners": list(self.v_partners),
        }


def _star_step(adj: list[int], u: int, v: int) -> ReductionStep:
    """Apply the star step to the triangle edge uv, editing ``adj`` in place."""
    au, av = adj[u], adj[v]
    if not au >> v & 1:
        raise EdgeNotInTriangleError(f"({u}, {v}) is not an edge")
    if not au & av:
        raise EdgeNotInTriangleError(f"edge ({u}, {v}) lies on no triangle")
    u_mask, v_mask = _partners(adj, u, v), _partners(adj, v, u)
    if not u_mask and not v_mask:
        raise NoCriticalEndpointError(
            f"neither endpoint of ({u}, {v}) is critical for the other endpoint and any vertex"
        )
    return _join_partners(adj, u, v, u_mask, v_mask)


def _join_partners(adj: list[int], u: int, v: int, u_mask: int, v_mask: int) -> ReductionStep:
    """Delete the edge uv and join v to each w of ``u_mask``, u to each of ``v_mask``, in place."""
    adj[u] = adj[u] & ~(1 << v) | v_mask
    adj[v] = adj[v] & ~(1 << u) | u_mask
    u_partners, v_partners = tuple(bits(u_mask)), tuple(bits(v_mask))
    added = []
    for w in u_partners:
        adj[w] |= 1 << v
        added.append((min(v, w), max(v, w)))
    for w in v_partners:
        adj[w] |= 1 << u
        added.append((min(u, w), max(u, w)))
    return ReductionStep((min(u, v), max(u, v)), u, v, u_partners, v_partners, tuple(added))


def _step_fault(adj: list[int], step: ReductionStep, two_sc: bool) -> str | None:
    """Why ``step``, just applied to ``adj``, is invalid; None if it is valid.

    ``two_sc`` says whether the graph before the step is known to be
    2-self-centered: then the star-edit rule decides the property,
    otherwise the full local test runs on ``adj``.
    """
    for a, b in step.added_edges:
        if adj[a] & adj[b]:
            return "step created a new triangle"
    n = len(adj)
    if two_sc:
        kept = star_edit_keeps_two_sc(adj, n, step.u, step.v, step.added_edges)
    else:
        kept = conditions_ok(adj, n)
    return None if kept else "step broke the 2-self-centered property"


def _triangles_left(tris: list[tuple[int, int, int]], step: ReductionStep) -> list[tuple[int, int, int]]:
    """The triangles after a step that created none: those without both u and v."""
    u, v = step.u, step.v
    return [t for t in tris if not (u in t and v in t)]


def apply_star_procedure(g: Graph, u: int, v: int) -> tuple[Graph, ReductionStep]:
    """Apply one star rewriting step to the triangle edge uv.

    Requires that at least one endpoint be critical for the other
    endpoint and some vertex.  Raises GraphError for a vertex outside g,
    and InvalidStepError when the step is not valid for this edge: it
    creates a triangle (so the triangle count need not drop) or breaks
    the 2-self-centered property.
    """
    check_vertices(g.n, u, v)
    adj = list(g.adj)
    step = _star_step(adj, u, v)
    fault = _step_fault(adj, step, g.two_sc)
    result = Graph(tuple(adj))
    if fault is not None:
        created = sorted(set(triangles(result)) - set(triangles(g)))
        raise InvalidStepError(f"{fault} on edge ({u}, {v})" + (f": {created}" if created else ""))
    return result, step


@dataclass(frozen=True)
class ReductionTrace:
    """The ordered steps of an iterated reduction and its outcome."""

    steps: tuple[ReductionStep, ...]
    final: Graph
    succeeded: bool
    failure_reason: str | None = None

    def to_json(self) -> dict[str, Any]:
        from .io import graph6_encode

        return {
            "succeeded": self.succeeded,
            "failure_reason": self.failure_reason,
            "steps": [s.to_json() for s in self.steps],
            "final": graph6_encode(self.final),
        }


def replay_trace(g: Graph, trace: ReductionTrace) -> bool:
    """Re-run a successful trace, checking each guaranteed step invariant.

    Every step must reproduce its recorded edge additions, strictly lower
    the triangle count without creating any new triangle, and keep the
    graph 2-self-centered; the replay must end at the recorded final
    graph, triangle-free.  Raises GraphError for a step vertex outside g.
    """
    adj = list(g.adj)
    tris = triangles(g)
    two_sc = g.two_sc
    for step in trace.steps:
        check_vertices(g.n, step.u, step.v)
        redo = _star_step(adj, step.u, step.v)
        if redo.added_edges != step.added_edges or _step_fault(adj, redo, two_sc) is not None:
            return False
        tris = _triangles_left(tris, redo)
        two_sc = True
    return not tris and tuple(adj) == trace.final.adj


_NO_ORDER = "no order of valid star steps reaches a triangle-free graph"
_OUT_OF_BUDGET = "the search visited SEARCH_BUDGET nodes undecided"


def reduce_to_triangle_free(g: Graph) -> ReductionTrace:
    """Find an order of valid star steps that leaves no triangle.

    A depth-first search on one adjacency list.  At each node it tries
    the triangle edges with a critical endpoint, smallest triangle first
    and smallest edge inside it, pushes each valid step onto the trace
    and pops it when the search backtracks; the masks saved at the node
    undo the step, and dead ends are remembered by adjacency.  So the
    first descent is the order that always takes the first such edge,
    and wherever that order succeeds its trace is the result.  Every
    graph reached is 2-self-centered, since each step is, and the depth
    is at most the triangle count of g.

    On failure the trace has no steps, ``final`` is g and the reason
    says whether no order exists or the search visited ``SEARCH_BUDGET``
    nodes undecided; it never reports success then.  Raises
    NotTwoSelfCenteredError on input that is not 2-self-centered.
    """
    if not g.two_sc:
        raise NotTwoSelfCenteredError("reduction requires a 2-self-centered graph")
    adj = list(g.adj)
    steps: list[ReductionStep] = []
    dead_ends: set[tuple[int, ...]] = set()
    budget = SEARCH_BUDGET

    def search(tris: list[tuple[int, int, int]]) -> bool | None:
        nonlocal budget
        if budget <= 0:
            return None
        budget -= 1
        if not tris:
            return True
        key = tuple(adj)
        if key in dead_ends:
            return False
        hit_limit = False
        for a, b, c in tris:
            for u, v in ((a, b), (a, c), (b, c)):
                u_mask, v_mask = _partners(adj, u, v), _partners(adj, v, u)
                if not u_mask and not v_mask:
                    continue
                step = _join_partners(adj, u, v, u_mask, v_mask)
                if _step_fault(adj, step, True) is None:
                    steps.append(step)
                    sub = search(_triangles_left(tris, step))
                    if sub:
                        return True
                    steps.pop()
                    hit_limit = hit_limit or sub is None
                adj[:] = key
        if hit_limit:
            return None
        dead_ends.add(key)
        return False

    found = search(triangles(g))
    if not found:
        return ReductionTrace((), g, False, _NO_ORDER if found is False else _OUT_OF_BUDGET)
    return ReductionTrace(tuple(steps), Graph(tuple(adj)) if steps else g, True)


def reduction_succeeds_in_any_order(g: Graph) -> bool | None:
    """Whether ``reduce_to_triangle_free`` finds an order; None when its budget ran out.

    A thin wrapper over the reduction, kept because the benchmark's
    tracer wraps it by name.
    """
    trace = reduce_to_triangle_free(g)
    if trace.succeeded:
        return True
    return None if trace.failure_reason == _OUT_OF_BUDGET else False


@dataclass(frozen=True)
class TriangleClassification:
    """Evidence for the minimal-with-triangles test.

    ``failing_edge`` is the first triangle edge without a critical
    endpoint; the trace, present when there is none, is the reduction.
    """

    minimal: bool
    failing_edge: tuple[int, int] | None
    trace: ReductionTrace | None

    def __bool__(self) -> bool:
        return self.minimal

    def to_json(self) -> dict[str, Any]:
        return {
            "minimal": self.minimal,
            "failing_edge": list(self.failing_edge) if self.failing_edge else None,
            "trace": self.trace.to_json() if self.trace else None,
        }


def classify_edge_minimal_with_triangles(g: Graph) -> TriangleClassification:
    """The local condition, and the reduction as its evidence, on a 2-self-centered graph with triangles.

    ``minimal`` is the local condition: every edge of every triangle has
    an endpoint that is the only common neighbor of the other endpoint
    and some vertex; ``failing_edge`` is the first edge without one.
    That condition alone decides edge-minimality, by the deletion rule of
    ``recognition.edit_keeps_two_sc`` (deleting an edge on no triangle
    always breaks the property).  When it holds, the trace is
    ``reduce_to_triangle_free``'s, which by the classification succeeds.
    """
    if not g.two_sc:
        raise NotTwoSelfCenteredError("classification requires a 2-self-centered graph")
    tris = triangles(g)
    if not tris:
        raise TriangleFreeInputError("classification requires at least one triangle")
    for a, b, c in tris:
        for u, v in ((a, b), (a, c), (b, c)):
            if not has_critical_endpoint(g.adj, u, v):
                return TriangleClassification(False, (u, v), None)
    return TriangleClassification(True, None, reduce_to_triangle_free(g))
