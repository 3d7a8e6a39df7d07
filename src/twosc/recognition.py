"""Recognition predicates and certificates for 2-self-centered graphs.

A graph with n vertices has radius = diameter = 2 exactly when every
degree lies in [2, n-2] and every non-adjacent pair has a common
neighbor.  That local test is the production path everywhere; the metric
definition computed from the distance profile is kept as a cross-check
(asserted in debug runs, compared exhaustively by the harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .core import (
    Graph,
    GraphError,
    bits,
    component_masks,
    connected_components,
    complement,
    distance_profile,
    has_triangle,
    is_star,
)


class NotTwoSelfCenteredError(GraphError):
    """The operation is only defined for 2-self-centered input."""


def conditions_ok(adj: Sequence[int], n: int) -> bool:
    """Fast bool form of the degree-bound / common-neighbor test."""
    if n < 4:
        return False
    for v in range(n):
        d = adj[v].bit_count()
        if d < 2 or d > n - 2:
            return False
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if not au >> v & 1 and not au & adj[v]:
                return False
    return True


@dataclass(frozen=True)
class TwoScVerdict:
    """Outcome of the 2-self-centered test with the first violation found."""

    is_2sc: bool
    violating_vertex: int | None = None
    violating_pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_2sc

    def to_json(self) -> dict[str, Any]:
        return {
            "is_2sc": self.is_2sc,
            "violating_vertex": self.violating_vertex,
            "violating_pair": list(self.violating_pair) if self.violating_pair else None,
        }


def condition_verdict(g: Graph) -> TwoScVerdict:
    """Degree-bound and common-neighbor test, no metric computation."""
    adj, n = g.adj, g.n
    bad_vertex = None
    for v in range(n):
        d = adj[v].bit_count()
        if d < 2 or d > n - 2:
            bad_vertex = v
            break
    bad_pair = None
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if not au >> v & 1 and not au & adj[v]:
                bad_pair = (u, v)
                break
        if bad_pair:
            break
    if n == 0:
        bad_vertex = None  # vacuous loops above; the empty graph is still not 2sc
        return TwoScVerdict(False)
    return TwoScVerdict(bad_vertex is None and bad_pair is None, bad_vertex, bad_pair)


def metric_two_self_centered(g: Graph) -> bool:
    """The defining property, radius = diameter = 2, via shortest paths."""
    if g.n == 0:
        return False
    profile = distance_profile(g)
    return profile.connected and profile.radius == 2 and profile.diameter == 2


def is_two_self_centered(g: Graph) -> TwoScVerdict:
    """Test for radius = diameter = 2 and report the first violation if any."""
    verdict = condition_verdict(g)
    if __debug__:
        assert verdict.is_2sc == metric_two_self_centered(g), (
            f"local conditions disagree with the metric on {g!r}"
        )
    return verdict


def _require_two_sc(g: Graph) -> None:
    if not conditions_ok(g.adj, g.n):
        raise NotTwoSelfCenteredError("input graph is not 2-self-centered")


@dataclass(frozen=True)
class ComplementComponent:
    vertices: tuple[int, ...]
    star: bool
    center: int | None

    def to_json(self) -> dict[str, Any]:
        return {"vertices": list(self.vertices), "star": self.star, "center": self.center}


@dataclass(frozen=True)
class MaximalityCertificate:
    """Verdict on edge-maximality plus the complement decomposition evidence."""

    maximal: bool
    complement_connected: bool
    components: tuple[ComplementComponent, ...]

    def __bool__(self) -> bool:
        return self.maximal

    def to_json(self) -> dict[str, Any]:
        return {
            "maximal": self.maximal,
            "complement_connected": self.complement_connected,
            "components": [c.to_json() for c in self.components],
        }


def complement_star_certificate(g: Graph) -> MaximalityCertificate:
    """Evaluate the characterization: complement splits into stars of size >= 2."""
    comp = complement(g)
    parts = connected_components(comp)
    pieces = []
    all_stars = True
    for part in parts:
        star = is_star(comp, part)
        center = None
        if star:
            inside = 0
            for v in part:
                inside |= 1 << v
            center = max(part, key=lambda v: ((comp.adj[v] & inside).bit_count(), -v))
        else:
            all_stars = False
        pieces.append(ComplementComponent(tuple(part), star, center))
    disconnected = len(parts) >= 2
    return MaximalityCertificate(disconnected and all_stars, not disconnected, tuple(pieces))


def edge_maximal_by_definition(g: Graph) -> bool:
    """Direct check: no absent edge can be added keeping the graph 2-self-centered."""
    adj, n = list(g.adj), g.n
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            ok = conditions_ok(adj, n)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            if ok:
                return False
    return True


def is_edge_maximal(g: Graph) -> MaximalityCertificate:
    """Edge-maximality via the complement-star characterization.

    Raises NotTwoSelfCenteredError on other input.  Debug runs cross-check
    the answer against the definitional all-absent-edges sweep.
    """
    _require_two_sc(g)
    cert = complement_star_certificate(g)
    if __debug__:
        assert cert.maximal == edge_maximal_by_definition(g), (
            f"complement-star characterization disagrees with definition on {g!r}"
        )
    return cert


@dataclass(frozen=True)
class MinimalityWitness:
    """Verdict on edge-minimality; when false, an edge whose removal is safe."""

    minimal: bool
    removable_edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.minimal

    def to_json(self) -> dict[str, Any]:
        return {
            "minimal": self.minimal,
            "removable_edge": list(self.removable_edge) if self.removable_edge else None,
        }


def is_edge_minimal(g: Graph) -> MinimalityWitness:
    """True iff removing any single edge destroys the 2-self-centered property."""
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u, v in g.edges():
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        ok = conditions_ok(adj, n)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if ok:
            return MinimalityWitness(False, (u, v))
    return MinimalityWitness(True)


@dataclass(frozen=True)
class CriticalTriple:
    """x is the only common neighbor of the non-adjacent pair (u, v)."""

    x: int
    u: int
    v: int

    def to_json(self) -> dict[str, Any]:
        return {"vertex": self.x, "pair": [self.u, self.v]}


def critical_triples(g: Graph) -> list[CriticalTriple]:
    """All (x, {u, v}) with uv absent and x the unique common neighbor."""
    _require_two_sc(g)
    out = []
    adj, n = g.adj, g.n
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if au >> v & 1:
                continue
            common = au & adj[v]
            if common.bit_count() == 1:
                out.append(CriticalTriple(common.bit_length() - 1, u, v))
    return out


def has_critical_triple(g: Graph) -> bool:
    adj, n = g.adj, g.n
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if not au >> v & 1 and (au & adj[v]).bit_count() == 1:
                return True
    return False


def complete_bipartite_parts(g: Graph) -> tuple[list[int], list[int]] | None:
    """The bipartition if g is a complete bipartite graph, else None."""
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
    expected = len(side) * len(other)
    if g.edge_count != expected:
        return None
    return side, other


def check_bipartite_proposition(g: Graph) -> bool:
    """Per-graph equivalence check used by the verification harness.

    Left side: g is an edge-minimal 2-self-centered graph whose complement
    is disconnected.  Right side: g is complete bipartite with both sides
    of size >= 2.  Returns True when the two sides agree.
    """
    left = False
    if conditions_ok(g.adj, g.n):
        if len(component_masks(complement(g).adj, g.n)) >= 2:
            left = is_edge_minimal(g).minimal
    parts = complete_bipartite_parts(g)
    right = parts is not None and len(parts[0]) >= 2 and len(parts[1]) >= 2
    return left == right


def check_triangle_free_lemma(g: Graph) -> bool:
    """True iff (g triangle-free implies g edge-minimal); input must be 2sc."""
    _require_two_sc(g)
    if has_triangle(g):
        return True
    return is_edge_minimal(g).minimal


def greedy_edge_minimal(g: Graph) -> Graph:
    """An edge-minimal 2-self-centered spanning subgraph of g.

    Tries each edge of g once, in lexicographic order, and deletes it
    when the property survives.  One pass is enough: removing edges only
    shrinks degrees and common neighbourhoods, so a deletion that fails
    keeps failing after later deletions, and the result equals that of
    restarting the scan after every successful deletion.
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u, v in g.edges():
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        if not conditions_ok(adj, n):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(tuple(adj))


def greedy_edge_maximal(g: Graph) -> Graph:
    """An edge-maximal 2-self-centered spanning supergraph of g.

    Tries each absent edge of g once, in lexicographic order, and adds it
    when the property survives.  One pass is enough: on a 2-self-centered
    graph an addition fails only when an endpoint already has degree
    n - 2, and degrees only grow, so an addition that fails keeps failing
    after later additions, and the result equals that of restarting the
    scan after every successful addition.
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            if not conditions_ok(adj, n):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
    return Graph(tuple(adj))
