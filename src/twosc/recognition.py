"""Recognition predicates and certificates for 2-self-centered graphs.

A graph with n vertices has radius = diameter = 2 exactly when every
degree lies in [2, n-2] and every non-adjacent pair has a common
neighbor.  That local test, ``conditions_ok`` (defined in ``core``), is
the production path everywhere.  Each ``Graph`` value runs it at most
once: ``Graph.two_sc`` caches the answer, and the input guards, the
battery and the reduction read that flag.

The metric definition is kept as the oracle the harness and the tests
compare the local test against.  ``metric_two_self_centered``
computes it as a breadth-first search over bitmasks that stops after two
levels: from each vertex v, the closed neighborhood N[v] must miss some
vertex (eccentricity >= 2) and N[N[v]] must cover every vertex
(eccentricity <= 2).  It shares no code with the local test.

Edge-minimality, edge-maximality and the sandwich builders all ask
whether one edge edit keeps a 2-self-centered graph 2-self-centered.
``edit_keeps_two_sc`` answers that without rescanning every pair:

- adding the absent edge uv keeps the property iff deg u < n - 2 and
  deg v < n - 2;
- deleting the edge uv keeps it iff u and v have a common neighbor and
  neither endpoint is the only common neighbor of the other endpoint and
  some third vertex.

Proof: an edit of uv changes only the degrees of u and v and the common
neighborhoods of the pairs that contain u or v.  An addition only
shrinks the set of non-adjacent pairs and grows common neighborhoods, so
only the upper degree bound can fail.  A deletion makes uv a
non-adjacent pair, takes u out of the common neighborhood of v and each
w, and v out of that of u and each w, so only those pairs and the lower
degree bound deg u, deg v >= 3 can fail.  That bound follows from the
other two conditions.  Say N(u) = {v, x}: the common neighbor of u and v
must be x.  Every w outside N[u] has v or x as a common neighbor with u,
and v is not the only one, so w is adjacent to x.  Then x is adjacent to
every other vertex, which a 2-self-centered graph forbids.

The star step of ``reduction`` deletes one edge uv and adds several.
``star_edit_keeps_two_sc`` generalizes the deletion rule to that edit:
deleting uv from a 2-self-centered graph and adding any set of edges
keeps the property iff every touched vertex (u, v and the endpoints of
the added edges) has a degree in [2, n - 2], and every vertex not
adjacent to u shares a neighbor with u, and likewise for v.

Proof: only the touched vertices change degree, so every other degree
stays in range.  The only pair that the edit makes non-adjacent is uv.
No vertex other than u and v loses a neighbor, so the common
neighborhood of any pair that contains neither u nor v can only grow;
such a pair, if non-adjacent now, was non-adjacent before and had a
common neighbor, which it keeps.  The pairs left are those at u and at v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .core import Graph, GraphError, bits, complement_masks, component_masks, has_triangle
from .core import first_bad_degree, first_bad_pair
from .core import conditions_ok as conditions_ok  # re-exported: the guards' local test


class NotTwoSelfCenteredError(GraphError):
    """The operation is only defined for 2-self-centered input."""


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
    """Degree-bound and common-neighbor test; the violation scans run only where ``g.two_sc`` fails."""
    if g.two_sc:
        return TwoScVerdict(True)
    adj, n = g.adj, g.n
    bad_vertex, bad_pair = first_bad_degree(adj, n), first_bad_pair(adj, n)
    return TwoScVerdict(n >= 4 and bad_vertex is None and bad_pair is None, bad_vertex, bad_pair)


def metric_two_self_centered(g: Graph) -> bool:
    """The defining property, radius = diameter = 2, via shortest paths.

    Every eccentricity must be exactly 2.  The search from each vertex
    stops after its second level, and the first vertex whose eccentricity
    is at most 1, or at least 3 or infinite, decides the answer.
    """
    adj, n = g.adj, g.n
    if n == 0:
        return False
    full = (1 << n) - 1
    for v in range(n):
        first = adj[v]
        reach = first | 1 << v
        if reach == full:
            return False
        while first:
            low = first & -first
            reach |= adj[low.bit_length() - 1]
            first ^= low
        if reach != full:
            return False
    return True


def is_two_self_centered(g: Graph) -> TwoScVerdict:
    """Test for radius = diameter = 2 and report the first violation if any."""
    return condition_verdict(g)


def _require_two_sc(g: Graph) -> None:
    if not g.two_sc:
        raise NotTwoSelfCenteredError("input graph is not 2-self-centered")


def _partners(adj: Sequence[int], x: int, anchor: int) -> int:
    """The mask of the w with x the unique common neighbor of anchor and w.

    Such a w is adjacent to x, so only N(x) minus N[anchor] is walked.
    """
    a_adj, only = adj[anchor], 1 << x
    out = 0
    rest = adj[x] & ~a_adj & ~(1 << anchor)
    while rest:
        low = rest & -rest
        if a_adj & adj[low.bit_length() - 1] == only:
            out |= low
        rest ^= low
    return out


def has_critical_endpoint(adj: Sequence[int], u: int, v: int) -> bool:
    """Whether u or v is the unique common neighbor of the other endpoint and some w.

    On a triangle edge uv of a 2-self-centered graph this decides both
    rules that rest on it: deleting uv breaks the property iff it holds
    (``edit_keeps_two_sc``), and the star step on uv needs it.
    """
    return bool(_partners(adj, u, v) or _partners(adj, v, u))


def edit_keeps_two_sc(adj: Sequence[int], n: int, u: int, v: int) -> bool:
    """Whether toggling the pair uv of a 2-self-centered graph keeps it so.

    Adds uv when it is absent, deletes it when present; the caller must
    pass 2-self-centered ``adj``, for which the module docstring proves
    the rule.  O(1) for an addition, O(n) for a deletion.
    """
    au, av = adj[u], adj[v]
    if not au >> v & 1:
        return au.bit_count() < n - 2 and av.bit_count() < n - 2
    return bool(au & av) and not has_critical_endpoint(adj, u, v)


def star_edit_keeps_two_sc(adj: Sequence[int], n: int, u: int, v: int, added: Iterable[tuple[int, int]]) -> bool:
    """Whether deleting uv from a 2-self-centered graph and adding ``added`` keeps it so.

    ``adj`` is the adjacency after the edit; the caller must know the
    graph before it to be 2-self-centered, for which the module docstring
    proves the rule.  An endpoint x passes when N[x] and the neighbors
    of N(x) cover every vertex.  O(n + the number of added edges).
    """
    touched = 1 << u | 1 << v
    for a, b in added:
        touched |= 1 << a | 1 << b
    while touched:
        low = touched & -touched
        d = adj[low.bit_length() - 1].bit_count()
        if d < 2 or d > n - 2:
            return False
        touched ^= low
    full = (1 << n) - 1
    for x in (u, v):
        rest = adj[x]
        reach = rest | 1 << x
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        if reach != full:
            return False
    return True


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
    """Evaluate the characterization: complement splits into stars of size >= 2.

    Works on the complement's neighbor masks.  A component is a star when
    some member c is joined to every other member and every other member
    only to c; the center reported is the first such c, so the smaller
    endpoint of a single edge.
    """
    n = g.n
    co = complement_masks(g.adj, n)
    parts = component_masks(co, n)
    pieces = []
    all_stars = True
    for part in parts:
        members = tuple(bits(part))
        center = next((c for c in members if co[c] == part ^ (1 << c)), None)
        if center is not None and len(members) >= 2 and all(
            co[v] == 1 << center for v in members if v != center
        ):
            pieces.append(ComplementComponent(members, True, center))
        else:
            all_stars = False
            pieces.append(ComplementComponent(members, False, None))
    disconnected = len(parts) >= 2
    return MaximalityCertificate(disconnected and all_stars, not disconnected, tuple(pieces))


def edge_maximal_by_definition(g: Graph) -> bool:
    """Direct check: no absent edge can be added keeping the graph 2-self-centered.

    That is, no two non-adjacent vertices both have degree < n - 2.
    Raises NotTwoSelfCenteredError on other input.
    """
    _require_two_sc(g)
    adj, n = g.adj, g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] >> v & 1 and edit_keeps_two_sc(adj, n, u, v):
                return False
    return True


def is_edge_maximal(g: Graph) -> MaximalityCertificate:
    """Edge-maximality via the complement-star characterization.

    Raises NotTwoSelfCenteredError on other input.  The battery and the
    tests compare the answer with ``edge_maximal_by_definition``.
    """
    _require_two_sc(g)
    return complement_star_certificate(g)


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
    adj, n = g.adj, g.n
    for u, v in g.edges():
        if edit_keeps_two_sc(adj, n, u, v):
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


def _critical_triples(adj: Sequence[int], n: int) -> Iterator[tuple[int, int, int]]:
    """(x, u, v) for each absent uv, u < v in order, with x their only common neighbor."""
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if au >> v & 1:
                continue
            common = au & adj[v]
            if common.bit_count() == 1:
                yield common.bit_length() - 1, u, v


def critical_triples(g: Graph) -> list[CriticalTriple]:
    """All (x, {u, v}) with uv absent and x the unique common neighbor."""
    _require_two_sc(g)
    return [CriticalTriple(x, u, v) for x, u, v in _critical_triples(g.adj, g.n)]


def has_critical_triple(g: Graph) -> bool:
    return next(_critical_triples(g.adj, g.n), None) is not None


def complete_bipartite_parts(g: Graph) -> tuple[list[int], list[int]] | None:
    """The bipartition if g is a connected complete bipartite graph, else None.

    The side holding vertex 0 is every vertex outside N(0); g is complete
    bipartite on those sides iff each vertex of one side has exactly the
    other side as its neighborhood.  The single vertex counts, as
    ([0], []); larger graphs need an edge at vertex 0 to be connected.
    """
    adj, n = g.adj, g.n
    if n == 0:
        return None
    other = adj[0]
    if n > 1 and not other:
        return None
    side = ((1 << n) - 1) & ~other
    for v in range(n):
        if adj[v] != (other if side >> v & 1 else side):
            return None
    return list(bits(side)), list(bits(other))


def check_bipartite_proposition(g: Graph) -> bool:
    """The bipartite proposition on one graph, as the verification harness checks it.

    Left side: g is an edge-minimal 2-self-centered graph whose complement
    is disconnected.  Right side: g is complete bipartite with both sides
    of size >= 2.  Returns True when the two sides agree.
    """
    n = g.n
    disconnected = g.two_sc and len(component_masks(complement_masks(g.adj, n), n)) >= 2
    return _bipartite_sides_agree(g, disconnected and is_edge_minimal(g).minimal)


def _bipartite_sides_agree(g: Graph, left: bool) -> bool:
    """Whether the right side of the proposition holds for g exactly when ``left`` does."""
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
    restarting the scan after every successful deletion.  Every kept
    graph is 2-self-centered, so each deletion is decided by the one-edge
    rule of ``edit_keeps_two_sc``: the endpoints keep a common neighbor,
    and neither is the only common neighbor of the other and a third
    vertex.
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u, v in g.edges():
        if edit_keeps_two_sc(adj, n, u, v):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return Graph(tuple(adj))


def greedy_edge_maximal(g: Graph) -> Graph:
    """An edge-maximal 2-self-centered spanning supergraph of g.

    Tries each absent edge of g once, in lexicographic order, and adds it
    when the property survives.  One pass is enough: on a 2-self-centered
    graph an addition fails only when an endpoint already has degree
    n - 2, and degrees only grow, so an addition that fails keeps failing
    after later additions, and the result equals that of restarting the
    scan after every successful addition.  Every kept graph is
    2-self-centered, so by the one-edge rule of ``edit_keeps_two_sc`` an
    addition is decided by the two endpoint degrees alone.
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] >> v & 1 and edit_keeps_two_sc(adj, n, u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(tuple(adj))
