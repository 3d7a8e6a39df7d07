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
shift-or per vertex instead of a rescan.  One search serves every
vertex count: all patterns of a state are packed into one integer, in
lanes of w bits, one lane per vertex.  Up to 8 vertices w = 8, and the
byte lanes are read through tables built at import; above that w = n,
since a pattern never has more than n - 1 bits.

The search also takes, per level, a mask of the vertices that
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


class _Members(dict):
    """Vertex ids of each mask, ascending, computed on first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        vs = self[mask] = tuple(bits(mask))
        return vs


def _canonical_order_packed(
    adj: Sequence[int], n: int, allowed: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Pattern-packed search over lanes of w = max(n, 8) bits.

    Level i may place only the vertices in the bitmask ``allowed[i]``.
    Returns the maximal code over those orders, the per-level maxima
    packed into one int after a leading 1 bit (so graphs of different
    sizes get different codes), and an order attaining it.
    """
    if n <= 8:
        w, bits_of = 8, _BITS
        row_exp = [_LANES[m] for m in adj]
    else:
        w, bits_of = n, _Members()
        row_exp = [sum(1 << u * w for u in bits_of[m]) for m in adj]
    # lane u of row_exp[v] holds adj(u, v); lane v is already 0
    lane = (1 << w) - 1
    # every lane but its top bit: a pattern has at most n - 1 bits, so
    # clearing the top one before the shift keeps it inside its lane
    low = ((1 << w * w) - 1) // lane * (lane >> 1)
    pool = [((v,), 1 << v, row_exp[v], lane << v * w) for v in bits_of[allowed[0]]]
    code = 1
    for level in range(1, n):
        allow = allowed[level]
        best = -1
        grown: list[tuple[tuple[int, ...], int, int, int]] = []
        for order, mask, pats, pb in pool:
            for v in bits_of[allow & ~mask]:
                p = pats >> v * w & lane
                if p < best:
                    continue
                if p > best:
                    best = p
                    grown = []
                grown.append((order + (v,), mask | 1 << v, pats, pb | lane << v * w))
        code = code << level | best
        states: dict[tuple[int, int], tuple[tuple[int, ...], int, int, int]] = {}
        for order, mask, pats, pb in grown:
            v = order[-1]
            new_pats = (((pats & low) << 1) | row_exp[v]) & ~pb
            states.setdefault((mask, new_pats), (order, mask, new_pats, pb))
        pool = list(states.values())
    return code, pool[0][0]


def canonical_order(adj: Sequence[int]) -> tuple[int, ...]:
    """A vertex order achieving the maximal column-major adjacency code."""
    n = len(adj)
    if n <= 1:
        return tuple(range(n))
    return _canonical_order_packed(adj, n, ((1 << n) - 1,) * n)[1]


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
