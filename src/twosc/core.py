"""Immutable bitset-backed simple graphs and the basic structural operations.

Vertices are dense integers 0..n-1 and every vertex set is a Python int
bitmask, so all set predicates reduce to bitwise operations.  The cap of
64 vertices keeps masks in a single machine word for every desk-scale
target; readers of external files reject anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class LoopError(GraphError):
    """A self-loop was supplied where a proper edge is required."""


class EdgeAbsentError(GraphError):
    """An operation needed an edge that is not present."""


class EdgePresentError(GraphError):
    """An operation needed an edge slot that is already occupied."""


class VertexLimitError(GraphError):
    """More vertices than the bitset core supports."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def conditions_ok(adj: Sequence[int], n: int) -> bool:
    """Whether the graph is 2-self-centered, by the local test.

    Radius = diameter = 2 holds exactly when n >= 4, every degree lies in
    [2, n - 2] and every non-adjacent pair has a common neighbor.
    """
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


def bits(mask: int) -> Iterator[int]:
    """Iterate the vertex ids set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph; ``adj[v]`` is the neighbor bitmask of v.

    Instances are immutable: every mutation-shaped operation returns a new
    value, so graphs can be shared freely across threads and processes.
    The empty graph (no vertices) is a legal value; it shows up as the
    core of degenerate generalized complete bipartite specs.

    ``two_sc`` runs ``conditions_ok`` the first time it is read and keeps
    the answer on the value.  It is not a field, so it takes no part in
    ``==`` or ``hash``, and a pickled graph carries it along.
    """

    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        adj = self.adj
        n = len(adj)
        if n > MAX_VERTICES:
            raise VertexLimitError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex bitset core")
        full = (1 << n) - 1
        for v, m in enumerate(adj):
            if m & ~full:
                raise GraphError(f"neighbor mask of {v} references vertices outside 0..{n - 1}")
            if m >> v & 1:
                raise LoopError(f"self-loop at vertex {v}")
        # symmetry in O(m): every set bit uv needs its mirror vu
        for u, m in enumerate(adj):
            bit = 1 << u
            while m:
                low = m & -m
                v = low.bit_length() - 1
                if not adj[v] & bit:
                    raise GraphError(f"adjacency not symmetric on pair ({min(u, v)}, {max(u, v)})")
                m ^= low

    @cached_property
    def two_sc(self) -> bool:
        """Whether the graph is 2-self-centered (radius = diameter = 2)."""
        return conditions_ok(self.adj, len(self.adj))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph on n vertices from an edge list (duplicates collapse)."""
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise VertexLimitError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex bitset core")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise LoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(tuple(adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.adj)) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, m in enumerate(self.adj):
            m = m >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                out.append((u, low.bit_length() - 1))
                m ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def vertices(self) -> range:
        return range(len(self.adj))

    def relabel(self, order: Sequence[int]) -> Graph:
        """Return the graph with old vertex ``order[i]`` renamed to i."""
        n = len(self.adj)
        if sorted(order) != list(range(n)):
            raise GraphError("relabeling must be a permutation of all vertices")
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        adj = [0] * n
        for i, v in enumerate(order):
            m = 0
            for u in bits(self.adj[v]):
                m |= 1 << pos[u]
            adj[i] = m
        return Graph(tuple(adj))

    def __repr__(self) -> str:
        return f"Graph(n={len(self.adj)}, edges={self.edges()!r})"


@dataclass(frozen=True)
class DistanceProfile:
    """All-pairs shortest-path data with the derived metric invariants.

    Unreachable pairs carry the sentinel ``infinity`` (= n), strictly
    larger than any finite distance, so eccentricity, radius and diameter
    of disconnected graphs propagate the sentinel instead of needing a
    separate flag.
    """

    distances: tuple[tuple[int, ...], ...]
    eccentricities: tuple[int, ...]
    radius: int
    diameter: int
    infinity: int

    @property
    def connected(self) -> bool:
        return self.diameter < self.infinity


def _bfs_row(adj: Sequence[int], n: int, src: int) -> list[int]:
    dist = [n] * n
    frontier = seen = 1 << src
    d = 0
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            u = low.bit_length() - 1
            dist[u] = d
            nxt |= adj[u]
            frontier ^= low
        d += 1
        frontier = nxt & ~seen
        seen |= frontier
    return dist


def distance_profile(g: Graph) -> DistanceProfile:
    """Breadth-first shortest paths for all ordered pairs, plus radius/diameter."""
    n = g.n
    if n == 0:
        raise GraphError("distance profile of the empty graph is undefined")
    rows = tuple(tuple(_bfs_row(g.adj, n, v)) for v in range(n))
    ecc = tuple(max(row) for row in rows)
    return DistanceProfile(
        distances=rows,
        eccentricities=ecc,
        radius=min(ecc),
        diameter=max(ecc),
        infinity=n,
    )


def complement_masks(adj: Sequence[int], n: int) -> list[int]:
    """The neighbor masks of the complement: the non-edges, never any loops."""
    full = (1 << n) - 1
    return [full & ~m & ~(1 << v) for v, m in enumerate(adj)]


def complement(g: Graph) -> Graph:
    """The graph with exactly the non-edges of g (never any loops)."""
    return Graph(tuple(complement_masks(g.adj, g.n)))


def component_masks(adj: Sequence[int], n: int) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(comp)
    return out


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of the vertices into maximal connected pieces."""
    return [list(bits(m)) for m in component_masks(g.adj, g.n)]


def is_connected(g: Graph) -> bool:
    return len(component_masks(g.adj, g.n)) <= 1


def is_star(g: Graph, component: Iterable[int]) -> bool:
    """True iff the induced subgraph is a star with one center and >= 1 leaf.

    A single edge counts (either endpoint serves as the center); a single
    vertex does not.
    """
    comp = mask_of(component)
    size = comp.bit_count()
    if size < 2:
        return False
    members = list(bits(comp))
    center = max(members, key=lambda v: (g.adj[v] & comp).bit_count())
    if g.adj[center] & comp != comp & ~(1 << center):
        return False
    for v in members:
        if v != center and g.adj[v] & comp != 1 << center:
            return False
    return True


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All unordered vertex triples with all three edges present."""
    adj = g.adj
    out = []
    for u, v in g.edges():
        common = (adj[u] & adj[v]) >> (v + 1) << (v + 1)
        while common:
            low = common & -common
            out.append((u, v, low.bit_length() - 1))
            common ^= low
    return out


def has_triangle(g: Graph) -> bool:
    adj = g.adj
    for m in adj:
        rest = m
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & m:
                return True
            rest ^= low
    return False


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of g joins two of the given vertices."""
    m = mask_of(vertices)
    for v in bits(m):
        if g.adj[v] & m:
            return False
    return True


def edit(g: Graph, remove: tuple[int, int] | None = None, add: tuple[int, int] | None = None) -> Graph:
    """Return a copy of g with one edge removed and/or one edge added.

    The removed edge must be present and the added edge absent; loops are
    rejected.  The input graph is never modified.
    """
    adj = list(g.adj)
    if remove is not None:
        u, v = remove
        if u == v:
            raise LoopError(f"cannot remove a loop at {u}")
        if not g.has_edge(u, v):
            raise EdgeAbsentError(f"edge ({u}, {v}) not present")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    if add is not None:
        u, v = add
        if u == v:
            raise LoopError(f"cannot add a loop at {u}")
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise GraphError(f"edge ({u}, {v}) outside 0..{g.n - 1}")
        if adj[u] >> v & 1:
            raise EdgePresentError(f"edge ({u}, {v}) already present")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))
