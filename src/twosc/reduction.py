"""The star rewriting step and the classification of minimal graphs with triangles.

The step removes one triangle edge uv and reconnects directly every pair
that depended on the removed edge: whenever u was the unique common
neighbor of v and some w, the edge vw is added (and symmetrically for v).
A step is valid when it creates no triangle and keeps the graph
2-self-centered; a valid step strictly lowers the triangle count, which
is what drives the classification.  Not every triangle edge of an
edge-minimal graph gives a valid step: on ``G}aHOs`` the step on (0, 1)
creates the triangle (1, 4, 5), while another order of steps succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import Graph, GraphError, triangles
from .recognition import NotTwoSelfCenteredError


class EdgeNotInTriangleError(GraphError):
    """The chosen pair is not an edge lying on a triangle."""


class NoCriticalEndpointError(GraphError):
    """Neither endpoint is the unique common neighbor of the other and anything."""


class TriangleFreeInputError(GraphError):
    """The operation requires at least one triangle."""


class InvalidStepError(GraphError):
    """A star step created a triangle or broke the 2-self-centered property."""


def critical_partners(g: Graph, x: int, anchor: int) -> list[int]:
    """All w such that x is the unique common neighbor of anchor and w."""
    out = []
    a_adj = g.adj[anchor]
    for w in range(g.n):
        if w == anchor or a_adj >> w & 1:
            continue
        if a_adj & g.adj[w] == 1 << x:
            out.append(w)
    return out


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
        return {
            "removed": list(self.removed_edge),
            "u": self.u,
            "v": self.v,
            "u_critical_partners": list(self.u_partners),
            "v_critical_partners": list(self.v_partners),
            "added": [list(e) for e in self.added_edges],
        }


def _raw_step(g: Graph, u: int, v: int) -> tuple[Graph, ReductionStep]:
    if not g.has_edge(u, v):
        raise EdgeNotInTriangleError(f"({u}, {v}) is not an edge")
    if not g.adj[u] & g.adj[v]:
        raise EdgeNotInTriangleError(f"edge ({u}, {v}) lies on no triangle")
    u_partners = tuple(critical_partners(g, u, v))
    v_partners = tuple(critical_partners(g, v, u))
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
    step = ReductionStep((min(u, v), max(u, v)), u, v, u_partners, v_partners, tuple(added))
    return Graph(tuple(adj)), step


def _step_fault(tris: list[tuple[int, int, int]], result: Graph) -> tuple[str | None, list[tuple[int, int, int]]]:
    """Why a step from a graph with triangles ``tris`` to ``result`` is invalid.

    A valid step creates no triangle and keeps the graph 2-self-centered;
    it then strictly lowers the triangle count, because the removed edge
    lay on a triangle.  Returns the first violation (None if valid) with
    the triangles of ``result``.
    """
    after = triangles(result)
    if set(after) - set(tris):
        return "step created a new triangle", after
    if not result.two_sc:
        return "step broke the 2-self-centered property", after
    return None, after


def apply_star_procedure(g: Graph, u: int, v: int) -> tuple[Graph, ReductionStep]:
    """Apply one star rewriting step to the triangle edge uv.

    Requires that at least one endpoint be critical for the other
    endpoint and some vertex.  Raises InvalidStepError when the step is
    not valid for this edge: it creates a triangle (so the triangle count
    need not drop) or breaks the 2-self-centered property.
    """
    result, step = _raw_step(g, u, v)
    tris = triangles(g)
    fault, after = _step_fault(tris, result)
    if fault is not None:
        created = sorted(set(after) - set(tris))
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
    graph, triangle-free.
    """
    current = g
    tris = triangles(current)
    for step in trace.steps:
        nxt, redo = _raw_step(current, step.u, step.v)
        if redo.added_edges != step.added_edges:
            return False
        fault, tris = _step_fault(tris, nxt)
        if fault is not None:
            return False
        current = nxt
    return not tris and current == trace.final


def _pick_edge(g: Graph, tris: list[tuple[int, int, int]]) -> tuple[int, int] | None:
    """The first qualifying edge: smallest triangle, smallest edge inside it."""
    for tri in sorted(tris):
        a, b, c = tri
        for u, v in ((a, b), (a, c), (b, c)):
            if critical_partners(g, u, v) or critical_partners(g, v, u):
                return (u, v)
    return None


def reduce_to_triangle_free(g: Graph) -> ReductionTrace:
    """Iterate the star step until no triangle remains.

    Fails (succeeded=False) when no triangle edge has a critical endpoint
    or when the step on the first qualifying edge is invalid.  The second
    also happens on some edge-minimal inputs (``G}aHOs``), where another
    edge order succeeds.
    """
    if not g.two_sc:
        raise NotTwoSelfCenteredError("reduction requires a 2-self-centered graph")
    steps: list[ReductionStep] = []
    current = g
    tris = triangles(current)
    while tris:
        choice = _pick_edge(current, tris)
        if choice is None:
            return ReductionTrace(tuple(steps), current, False, "no triangle edge has a critical endpoint")
        current, step = _raw_step(current, *choice)
        steps.append(step)
        fault, tris = _step_fault(tris, current)
        if fault is not None:
            return ReductionTrace(tuple(steps), current, False, fault)
    return ReductionTrace(tuple(steps), current, True)


def reduction_succeeds_in_any_order(g: Graph, limit: int = 200000) -> bool | None:
    """Exhaustively try every edge choice order; None when the limit trips.

    Used by the harness to tell apart 'this order fails' from 'no order
    works' on graphs where the deterministic order gives up.
    """
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
                if not (critical_partners(current, u, v) or critical_partners(current, v, u)):
                    continue
                nxt, _ = _raw_step(current, u, v)
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


@dataclass(frozen=True)
class TriangleClassification:
    """Evidence for the minimal-with-triangles test.

    ``every_triangle_edge_critical`` is the local condition; the trace is
    the iterated reduction, present whenever the local condition held.
    """

    minimal: bool
    every_triangle_edge_critical: bool
    failing_edge: tuple[int, int] | None
    trace: ReductionTrace | None

    def __bool__(self) -> bool:
        return self.minimal

    def to_json(self) -> dict[str, Any]:
        return {
            "minimal": self.minimal,
            "every_triangle_edge_critical": self.every_triangle_edge_critical,
            "failing_edge": list(self.failing_edge) if self.failing_edge else None,
            "trace": self.trace.to_json() if self.trace else None,
        }


def classify_edge_minimal_with_triangles(g: Graph) -> TriangleClassification:
    """Decide edge-minimality of a 2-self-centered graph with triangles.

    The graph is edge-minimal iff every edge of every triangle has an
    endpoint critical for the other endpoint, and the iterated star
    reduction reaches a triangle-free 2-self-centered graph.
    """
    if not g.two_sc:
        raise NotTwoSelfCenteredError("classification requires a 2-self-centered graph")
    tris = triangles(g)
    if not tris:
        raise TriangleFreeInputError("classification requires at least one triangle")
    for tri in sorted(tris):
        a, b, c = tri
        for u, v in ((a, b), (a, c), (b, c)):
            if not (critical_partners(g, u, v) or critical_partners(g, v, u)):
                return TriangleClassification(False, False, (u, v), None)
    trace = reduce_to_triangle_free(g)
    return TriangleClassification(trace.succeeded, True, None, trace)
