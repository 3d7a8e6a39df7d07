"""Recognition predicates and certificates for 2-self-centered graphs.

A graph with n vertices has radius = diameter = 2 exactly when every
degree lies in [2, n-2] and every non-adjacent pair has a common
neighbor.  That local test, ``conditions_ok`` (defined in ``core``), is
the production path everywhere.  Each ``Graph`` value runs it at most
once: ``Graph.two_sc`` caches the answer, and the input guards, the
battery and the reduction read that flag.

On a ``Graph`` value, every predicate about common neighbours reads the
graph's one common-neighbour kernel (``Graph.common``, computed at most
once per value by ``core.common_neighbours``): the pair half of the
local test and its first violating pair, the critical triples and
``has_critical_triple`` (the kernel's critical pairs), and
``is_edge_minimal`` (its deletable edges).  ``reduction`` reads it for
the critical endpoints of triangle edges, and ``sbic`` for the far
pairs.  Code that edits an adjacency list in place (``edit_keeps_two_sc``
and ``greedy_edge_minimal`` here, the star step and the reduction's
search in ``reduction``) keeps the scalar walk of ``_partners``: it
reads only the neighbours of the edited pair, while the kernel would
have to be recomputed after every edit: a ``greedy_edge_minimal`` that
did so after each deletion ran 2.4 times slower on the 2-self-centered
classes with n = 8 and 4.4 times slower at n = 20..24.
``reduction.critical_partners`` asks about one vertex and one anchor,
so it reads the same walk.

The metric definition is kept as the oracle the harness and the tests
compare the local test against.  ``metric_two_self_centered``
computes it as a breadth-first search over bitmasks that stops after two
levels: from each vertex v, the closed neighborhood N[v] must miss some
vertex (eccentricity >= 2) and N[N[v]] must cover every vertex
(eccentricity <= 2).  It shares no code with the local test, the kernel
or the scalar walk.

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

Read over the whole graph, the addition rule names the pairs that can
gain an edge.  Call a vertex *open* when its degree is below n - 2: an
absent pair passes exactly when both endpoints are open.  So a
2-self-centered graph is edge-maximal iff its open vertices are
pairwise adjacent, which ``edge_maximal_by_definition`` checks in O(n),
and ``greedy_edge_maximal`` tries only pairs of open vertices.  The
lexicographic scan of the absent pairs (u ascending, then v > u) that
the greedy builder stands for adds uv whenever u and v are both open at
that moment.  While u is fixed, its additions change only the degrees
of u and of those v, and degrees only grow, so a vertex that closes
never opens again.  The scan's turn of u therefore adds uv for each
open non-neighbour v above u, ascending, until u closes, and skips
everything else.  One pass over the open vertices, ascending, each
taking its open non-neighbours above it, is that scan without its
failing pairs: the same graph in O(n + the number of additions).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from .core import Graph, GraphError, _decoded, bits, complement_masks, component_masks
from .core import first_bad_degree
from .core import conditions_ok as conditions_ok  # re-exported: the guards' local test


class NotTwoSelfCenteredError(GraphError):
    """The operation is only defined for 2-self-centered input."""


class TwoScVerdict(NamedTuple):
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
    common = g.common
    bad_vertex, bad_pair = first_bad_degree(adj, n), next(common.pairs(common.far), None)
    return TwoScVerdict(False, bad_vertex, bad_pair)


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


class ComplementComponent(NamedTuple):
    vertices: tuple[int, ...]
    star: bool
    center: int | None

    def to_json(self) -> dict[str, Any]:
        return {"vertices": list(self.vertices), "star": self.star, "center": self.center}


class MaximalityCertificate(NamedTuple):
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

    By the addition rule of ``edit_keeps_two_sc`` that is: the open
    vertices, those of degree < n - 2, are pairwise adjacent.  One pass,
    O(n), which stops at the first open vertex that misses an earlier one.
    Raises NotTwoSelfCenteredError on other input.
    """
    _require_two_sc(g)
    top = g.n - 2
    opened = 0
    for v, m in enumerate(g.adj):
        if m.bit_count() < top:
            if opened & ~m:
                return False
            opened |= 1 << v
    return True


def is_edge_maximal(g: Graph) -> MaximalityCertificate:
    """Edge-maximality via the complement-star characterization.

    Raises NotTwoSelfCenteredError on other input.  The battery and the
    tests compare the answer with ``edge_maximal_by_definition``.
    """
    _require_two_sc(g)
    return complement_star_certificate(g)


class MinimalityWitness(NamedTuple):
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
    """True iff removing any single edge destroys the 2-self-centered property.

    The removable edge reported is the first in ``g.edges()`` order among
    the kernel's deletable edges.
    """
    _require_two_sc(g)
    common = g.common
    edge = next(common.pairs(common.deletable()), None)
    return MinimalityWitness(edge is None, edge)


class CriticalTriple(NamedTuple):
    """x is the only common neighbor of the non-adjacent pair (u, v)."""

    x: int
    u: int
    v: int

    def to_json(self) -> dict[str, Any]:
        return {"vertex": self.x, "pair": [self.u, self.v]}


def critical_triples(g: Graph) -> list[CriticalTriple]:
    """All (x, {u, v}) with uv absent and x the unique common neighbor, u < v in order.

    The pairs are the kernel's critical pairs, read row by row above the
    diagonal, and x is the one bit of N(u) & N(v).
    """
    _require_two_sc(g)
    adj, common = g.adj, g.common
    out = []
    for u, row in enumerate(common.rows(common.crit)):
        row >>= u + 1
        au = adj[u]
        while row:
            low = row & -row
            v = low.bit_length() + u
            out.append(CriticalTriple((au & adj[v]).bit_length() - 1, u, v))
            row ^= low
    return out


def has_critical_triple(g: Graph) -> bool:
    return bool(g.common.crit)


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


def bipartite_proposition_holds(g: Graph, cert: MaximalityCertificate | None, minimal: bool) -> bool:
    """Whether g is complete bipartite, both sides >= 2, exactly when it is minimal 2SC with a disconnected complement.

    ``cert`` is g's complement-star certificate, None when g is not 2SC, and ``minimal`` its edge-minimality.
    """
    left = cert is not None and not cert.complement_connected and minimal
    parts = complete_bipartite_parts(g)
    right = parts is not None and len(parts[0]) >= 2 and len(parts[1]) >= 2
    return left == right


def check_bipartite_proposition(g: Graph) -> bool:
    """``bipartite_proposition_holds`` on g alone; the benchmark's tracer wraps it by name."""
    cert = complement_star_certificate(g) if g.two_sc else None
    return bipartite_proposition_holds(g, cert, g.two_sc and is_edge_minimal(g).minimal)


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
    vertex.  Row u's edges to higher vertices are g's until u's turn, so
    the pass walks each row's upper mask.  Each deletion clears a pair
    u < v in both rows, so the result is built without a second
    validation (``core._decoded``).
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    for u in range(n):
        upper = adj[u] >> u + 1 << u + 1
        while upper:
            low = upper & -upper
            v = low.bit_length() - 1
            if edit_keeps_two_sc(adj, n, u, v):
                adj[u] ^= low
                adj[v] ^= 1 << u
            upper ^= low
    return _decoded(tuple(adj))


def greedy_edge_maximal(g: Graph) -> Graph:
    """An edge-maximal 2-self-centered spanning supergraph of g.

    Tries each absent edge of g once, in lexicographic order, and adds it
    when the property survives.  One pass is enough: on a 2-self-centered
    graph an addition fails only when an endpoint already has degree
    n - 2, and degrees only grow, so an addition that fails keeps failing
    after later additions, and the result equals that of restarting the
    scan after every successful addition.  Every kept graph is
    2-self-centered, so by the one-edge rule of ``edit_keeps_two_sc`` an
    addition is decided by the two endpoint degrees alone, and only pairs
    of open vertices (degree < n - 2) are tried: each open u, ascending,
    takes the open non-neighbours above it, ascending, until u closes.
    O(n + the number of additions).  Each addition sets a pair u < v in
    both rows, so the result is built without a second validation.
    """
    _require_two_sc(g)
    adj, n = list(g.adj), g.n
    top = n - 2
    opened = 0
    for v, m in enumerate(adj):
        if m.bit_count() < top:
            opened |= 1 << v
    while opened:
        bit_u = opened & -opened
        u = bit_u.bit_length() - 1
        # what is left of ``opened`` lies above u
        opened ^= bit_u
        free = opened & ~adj[u]
        degree = adj[u].bit_count()
        while free and degree < top:
            low = free & -free
            v = low.bit_length() - 1
            adj[u] |= low
            adj[v] |= bit_u
            if adj[v].bit_count() == top:
                opened ^= low
            degree += 1
            free ^= low
    return _decoded(tuple(adj))
