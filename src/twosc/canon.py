"""Canonical labeling for small graphs.

The canonical order of a graph maximizes, lexicographically, the bit
string read off column by column (each new vertex's adjacencies to the
vertices placed before it).  Two graphs are isomorphic iff they have the
same vertex count and the same canonical form.

The search keeps, level by level, every partial order that attains the
maximal bit prefix, and collapses partial orders that are exchangeable:
two prefixes over the same vertex set are interchangeable whenever every
unplaced vertex sees the same adjacency pattern toward both.  The
collapse is what keeps highly symmetric graphs (complete, edgeless,
vertex-transitive) from exploding into factorially many states.

Each state carries, per unplaced vertex, the bit pattern of its
adjacencies to the placed prefix, so extending a state costs one
shift-or per vertex instead of a rescan.  For at most 8 vertices all
patterns of a state are packed into 8-bit lanes of a single integer.

The packed search also takes, per level, a mask of the vertices that
level may place, and returns the maximal code along with the order.
The canonical form allows every vertex at every level.  The generator
deduplicates its candidates by ``partition_code``, the same search
restricted to orders that respect an isomorphism-invariant ordered
partition: far fewer orders tie, so it costs a fraction of the full
search, and it is still a complete invariant.  The generator then
computes the canonical form once per class.
"""

from __future__ import annotations

from typing import Sequence

from .core import Graph, bits


# For each byte-sized mask: its vertex ids, ascending, and the mask
# spread to one bit per byte lane (bit u -> bit 8u).
_BITS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))
_LANES = tuple(sum(1 << (v << 3) for v in vs) for vs in _BITS)


def _canonical_order_packed(
    adj: Sequence[int], n: int, allowed: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Pattern-packed search; needs n <= 8 so each pattern fits one byte.

    Level i may place only the vertices in the bitmask ``allowed[i]``.
    Returns the maximal code over those orders, the per-level maxima
    packed into one int after a leading 1 bit (so graphs of different
    sizes get different codes), and an order attaining it.
    """
    bits_of = _BITS
    # byte u of row_exp[v] holds adj(u, v); byte v is already 0
    row_exp = [_LANES[m] for m in adj]
    low7 = 0x7F7F7F7F7F7F7F7F  # lanes past n hold no bits
    pool = [((v,), 1 << v, row_exp[v], 0xFF << (v << 3)) for v in bits_of[allowed[0]]]
    code = 1
    for level in range(1, n):
        allow = allowed[level]
        best = -1
        grown: list[tuple[tuple[int, ...], int, int, int]] = []
        for order, mask, pats, pb in pool:
            for v in bits_of[allow & ~mask]:
                p = pats >> (v << 3) & 0xFF
                if p < best:
                    continue
                if p > best:
                    best = p
                    grown = []
                grown.append((order + (v,), mask | 1 << v, pats, pb | 0xFF << (v << 3)))
        code = code << level | best
        states: dict[tuple[int, int], tuple[tuple[int, ...], int, int, int]] = {}
        for order, mask, pats, pb in grown:
            v = order[-1]
            new_pats = (((pats & low7) << 1) | row_exp[v]) & ~pb
            states.setdefault((mask, new_pats), (order, mask, new_pats, pb))
        pool = list(states.values())
    return code, pool[0][0]


def _canonical_order_wide(adj: Sequence[int], n: int) -> tuple[int, ...]:
    """Tuple-per-vertex variant for graphs too large to byte-pack."""
    rng = range(n)
    states: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], int, tuple[int, ...]]] = {}
    for v in rng:
        pats = tuple(-1 if u == v else adj[u] >> v & 1 for u in rng)
        states.setdefault((1 << v, pats), ((v,), 1 << v, pats))
    pool = list(states.values())
    for _ in range(1, n):
        best = -1
        grown: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
        for order, mask, pats in pool:
            for v in rng:
                p = pats[v]
                if p < 0 or p < best:  # placed slots carry -1
                    continue
                if p > best:
                    best = p
                    grown = []
                grown.append((order + (v,), mask | 1 << v, pats))
        states = {}
        for order, mask, pats in grown:
            v = order[-1]
            av = adj[v]
            new_pats = tuple(
                -1 if (mask >> u & 1) else pats[u] << 1 | (av >> u & 1) for u in rng
            )
            states.setdefault((mask, new_pats), (order, mask, new_pats))
        pool = list(states.values())
    return pool[0][0]


def canonical_order(adj: Sequence[int]) -> tuple[int, ...]:
    """A vertex order achieving the maximal column-major adjacency code."""
    n = len(adj)
    if n <= 1:
        return tuple(range(n))
    if n <= 8:
        return _canonical_order_packed(adj, n, ((1 << n) - 1,) * n)[1]
    return _canonical_order_wide(adj, n)


def partition_code(adj: Sequence[int]) -> int:
    """A complete isomorphism invariant of a graph on 1..8 vertices, as an int.

    The maximal code of the packed search, taken only over vertex orders
    that place the cells of an isomorphism-invariant ordered partition
    one after another.  A vertex's rank is its degree, then the sum of
    its neighbours' degrees (``deg * 64 + sum``; the sum stays below 64
    for n <= 8), and cells go in descending rank.  Isomorphic graphs
    admit the same orders up to relabelling, and the code determines
    the graph, so two graphs share a code iff they are isomorphic.  It
    is the generator's dedupe key, not the canonical form.
    """
    bits_of = _BITS
    deg = [m.bit_count() for m in adj]
    cells: dict[int, int] = {}
    for v, m in enumerate(adj):
        r = deg[v] << 6
        for u in bits_of[m]:
            r += deg[u]
        cells[r] = cells.get(r, 0) | 1 << v
    allowed: list[int] = []
    for r in sorted(cells, reverse=True):
        cell = cells[r]
        allowed += [cell] * cell.bit_count()
    return _canonical_order_packed(adj, len(adj), allowed)[0]


def canonical_masks(adj: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the canonically relabeled graph (a full invariant)."""
    n = len(adj)
    order = canonical_order(adj)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        m = 0
        for u in bits(adj[v]):
            m |= 1 << pos[u]
        out.append(m)
    return tuple(out)


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return Graph(canonical_masks(g.adj))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_masks(g.adj) == canonical_masks(h.adj)
