"""Canonical form for small graphs.

The canonical form is defined over a restricted set of vertex orders.
A vertex's rank is its degree, then the sum of its neighbours' degrees;
the vertices of equal rank form a cell, and the cells, in descending
rank, form an isomorphism-invariant ordered partition (the first step
of vertex-invariant refinement; McKay, *Isomorph-free exhaustive
generation*, J. Algorithms 1998; McKay and Piperno, *Practical graph
isomorphism, II*, JSC 2014).  The admissible orders place the cells
one after another.  The code of an order is the bit string read off
column by column (each new vertex's adjacencies to the vertices placed
before it), and ``partition_code`` is the maximal code over the
admissible orders.

Isomorphic graphs admit the same orders up to relabelling, so the
maximal code is a complete invariant, and it determines its graph:
after a leading 1 bit, level j holds j bits, the adjacency of position
j to positions 0..j-1 (``_decode``).  So the code is the canonical
form: ``canonical_masks`` decodes ``partition_code(g)``, and two
graphs are isomorphic iff they have the same code.  The bits below the
leading 1 are the upper triangle column by column, most significant
first, which is exactly how graph6 lays out a record's body (McKay's
format): the graph6 body of ``canonical_graph(g)`` is those bits,
padded with zeros to a multiple of six.  So ``_decode`` and the graph6
reader share one decoder, ``core.columns_to_masks``.

The search keeps, level by level, every partial order that attains the
maximal bit prefix, and collapses partial orders that are exchangeable:
two prefixes over the same vertex set are interchangeable whenever every
unplaced vertex sees the same adjacency pattern toward both.  Collapsed
prefixes have the same completions, so keeping one of them keeps the
maximal code.

Each state carries, per unplaced vertex, the bit pattern of its
adjacencies to the placed prefix, so extending a state costs one
shift-or per vertex instead of a rescan.  One search serves every
vertex count: all patterns of a state are packed into one integer, one
lane per vertex, in ``core``'s packed bit-matrix layout (lanes of 8, 16,
32 or 64 bits, the narrowest that holds n bits; a pattern never has more
than n - 1).  A vertex's starting lanes are its column of the packed
adjacency rows.

A cell whose vertices no rank tells apart (a regular graph is one cell)
leaves many orders tied.  Three exact rules keep those ties from
exploding into factorially many states:

- Clique seed on the first cell.  When the first cell holds an edge,
  let k be the clique number of the subgraph it induces.  The first
  k - 1 levels of the code can be all ones, and they are iff positions
  0..k-1 hold a clique of that subgraph.  So every optimal order starts
  with one of its maximum cliques, and every such clique, in any
  internal order, attains that prefix.  The search enumerates those
  cliques by branch and bound with a colouring bound, and each becomes
  a start state at level k.
- Lazy cells.  A state's placed vertices form cells, runs of positions
  whose internal order is still open; a seed is one cell.  Every
  multi-vertex cell is part of the seed clique, so its members' own
  code bits are ones in any internal order.  A candidate x is read with
  its neighbours first inside every cell: a cell of s vertices, k of
  them adjacent to x, gives x the field 1^k 0^(s-k), the best any
  internal order gives.  The orders that attain it are exactly those
  putting the cell's neighbours of x first, so placing x splits each
  cell into (its neighbours of x, the rest) and appends {x}.  A state
  thus stands for every order consistent with its cells, all with the
  same code prefix, and the states together hold every optimal prefix.
  Only a split changes the other lanes beyond the shift-or: their
  fields for the two new cells come for all lanes at once from the
  summed neighbour lanes.  A state whose cells are all single vertices
  is an ordinary state; others collapse only when their multi-vertex
  cells match too.
- Twins.  Two vertices with equal open or equal closed neighbourhoods
  share a rank, and swapping them is an automorphism: it maps an
  order to an order with the same code.  So some optimal order places
  twins in ascending index order, and the search places a vertex (or
  seeds a clique holding it) only after its smaller twins.  Whether a
  vertex may be placed depends only on the set already placed, so two
  collapsed states still have the same completions.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

from .core import _ONES, COLUMN_RUN, Graph, GraphError, _decoded, _lane_width, _pack, bits, columns_to_masks


class _Members(dict):
    """Vertex ids of each mask, ascending, computed on first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        vs = self[mask] = tuple(bits(mask))
        return vs


def _byte_members() -> tuple[tuple[int, ...], ...]:
    """The vertex ids of each byte-sized mask, ascending: each power of two doubles the table."""
    table: list[tuple[int, ...]] = [()]
    for v in range(8):
        table += [vs + (v,) for vs in table]
    return tuple(table)


_BITS = _byte_members()
_MEMBERS = _Members()


def _members(n: int) -> Sequence[tuple[int, ...]]:
    """The vertex ids of each mask on n vertices: one table up to 16 vertices (at most 2**16 masks)."""
    return _BITS if n <= 8 else _MEMBERS if n <= 16 else _Members()


def _maximum_cliques(adj: Sequence[int], within: int) -> list[int]:
    """Every maximum clique of the subgraph induced on the nonempty set ``within``.

    Branch and bound with a colouring bound (MCQ; Tomita and Seki, *An
    efficient branch-and-bound algorithm for finding a maximum clique*,
    DMTCS 2003).  A branch colours its candidates greedily, each colour
    an independent set grown in ascending vertex order, and takes them
    in reverse colour order, dropping each after its turn.  A clique
    among the candidates still left holds at most one vertex per colour,
    so the branch stops once its clique plus the current colour number
    falls below the largest size found so far; every clique of that
    size is still found, once.
    """
    found: list[int] = []
    size = 0

    def grow(clique: int, k: int, cand: int) -> None:
        nonlocal found, size
        order = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            free = rest
            while free:
                low = free & -free
                rest ^= low
                free &= ~(low | adj[low.bit_length() - 1])
                order.append((low, colour))
        for low, colour in reversed(order):
            if k + colour < size:
                return
            cand ^= low
            sub = cand & adj[low.bit_length() - 1]
            if sub:
                grow(clique | low, k + 1, sub)
            elif k + 1 > size:
                size, found = k + 1, [clique | low]
            elif k + 1 == size:
                found.append(clique | low)

    grow(0, 0, within)
    return found


def _twins_before(adj: Sequence[int]) -> list[int]:
    """Per vertex, the bitmask of its twins with a smaller index.

    Twins have equal open neighbourhoods (so are not adjacent) or equal
    closed ones (so are); no pair is both.
    """
    before = []
    open_: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, m in enumerate(adj):
        o = open_.get(m, 0)
        c = closed.get(m | 1 << v, 0)
        before.append(o | c)
        open_[m] = o | 1 << v
        closed[m | 1 << v] = c | 1 << v
    return before


def _unary(row_exp: Sequence[int], cell: Sequence[int], shift: int, under: Sequence[int], top: int) -> int:
    """Every lane's best field for a cell: its neighbours in the cell first.

    A lane that sees c members of the cell gets 1^c 0^(s - c) over the
    cell's s positions; the first position's bit is the lane's top bit
    shifted down by ``shift``.
    """
    counts = 0
    for c in cell:
        counts += row_exp[c]
    out = 0
    for j in range(len(cell)):
        out |= (counts + under[j] & top) >> shift + j
    return out


def _maximal_code(adj: Sequence[int], n: int, allowed: Sequence[int], before: Sequence[int]) -> tuple[int, int]:
    """Pattern-packed search over ``core``'s lanes of w = 8, 16, 32 or 64 bits.

    Level i may place only the vertices in the bitmask ``allowed[i]``,
    the cells of the ordered partition in turn, and a vertex only after
    its smaller twins ``before[v]`` (``_twins_before``).  Returns the maximal
    code over those orders, the per-level maxima packed into one int
    after a leading 1 bit (so graphs of different sizes get different
    codes), and the bitmask S of the vertices that some optimal order
    with twins ascending places last.

    S is or-ed from the vertex that each state attaining the code places
    at level n - 1, so it holds the last vertex of every such order, and
    only those.  Collapsing states loses none, since collapsed states
    have the same vertex set.  When the seed clique fills every position
    the graph is complete, all its vertices are twins, and the one such
    order is the identity, so S is {n - 1}.  Two optimal orders differ
    by an automorphism, and the twin rule is the search's only
    automorphism pruning: sorting each twin class of an optimal order
    into ascending positions keeps it optimal and keeps last a last
    vertex with no larger twin, while a vertex with a larger twin is
    never last in such an order.  So S is the orbit of the last vertex
    less the vertices that have a larger twin, and the vertex n - 1,
    which has none, is in S iff it is in that orbit: the test of McKay's
    canonical construction path (``enumeration``).
    """
    bits_of = _members(n)
    w = _lane_width(n)
    lane = (1 << w) - 1
    ones = _ONES[w]  # bit 0 of every lane
    # every lane but its top bit: a pattern has at most n - 1 bits, so
    # clearing the top one before the shift keeps it inside its lane
    low = ones * (lane >> 1)
    # column v of the packed rows: lane u of row_exp[v] holds adj(u, v),
    # and lane v is 0
    x = _pack(adj)
    row_exp = [x >> v & ones for v in range(n)]
    # A state is (mask, lanes, placed lanes).  Bits 0..n-1 of the mask
    # are the placed vertices; above them, the n bits of slot p hold
    # the multi-vertex cell that starts at position p, if any, so
    # states collapse only when their cells match too.  The placed
    # lanes follow from the mask, so equal states collapse in a set.
    full = (1 << n) - 1
    twinned = sum(1 << v for v in range(n) if before[v])
    first = allowed[0]
    if any(adj[v] & first for v in bits_of[first]):
        # seeded: the first cell holds an edge, so every seed is one
        # lazy cell of at least two vertices
        top = low + ones
        # a lane count c, plus under[j], reaches the lane's top bit iff c > j
        under = [ones * ((lane >> 1) - j) for j in range(n)]
        cliques = _maximum_cliques(adj, first)
        size = cliques[0].bit_count()
        pool = []
        for clique in cliques:
            if any(before[v] & ~clique for v in bits_of[clique & twinned]):
                continue
            members = bits_of[clique]
            pb = sum(lane << c * w for c in members)
            pats = _unary(row_exp, members, w - size, under, top) & ~pb
            pool.append((clique | clique << n, pats, pb))
        # the leading 1, then levels 1..size-1 all ones
        code = (2 << size * (size - 1) // 2) - 1
    else:
        size = code = 1
        pool = [(1 << v, row_exp[v], lane << v * w) for v in bits_of[first] if not before[v]]
    last = 1 << n - 1 if size >= n else 0
    for level in range(size, n):
        allow = allowed[level]
        best = -1
        grown: list[tuple[tuple[int, int, int], int]] = []
        for state in pool:
            mask, pats, _ = state
            free = allow & ~mask
            for v in bits_of[free & twinned]:
                if before[v] & ~mask:
                    free ^= 1 << v
            for v in bits_of[free]:
                p = pats >> v * w & lane
                if p < best:
                    continue
                if p > best:
                    best = p
                    grown = []
                grown.append((state, v))
        code = code << level | best
        if level == n - 1:
            for _, v in grown:
                last |= 1 << v
            break  # no state grows past the last level
        states: set[tuple[int, int, int]] = set()
        for (mask, pats, pb), v in grown:
            mask |= 1 << v
            pb |= lane << v * w
            pats = (((pats & low) << 1) | row_exp[v]) & ~pb
            if mask > full:
                # split every cell that v tells apart, neighbours first
                cells, mask = mask >> n, mask & full
                near = adj[v]
                pos = 0
                while cells:
                    cell = cells & full
                    cells >>= n
                    a = cell & near
                    if a == cell or not a:
                        mask |= cell << n * (pos + 1)
                    else:
                        b = cell ^ a
                        s, k = cell.bit_count(), a.bit_count()
                        shift = w - 1 - level + pos
                        pats &= ~(ones * (((1 << s) - 1) << w - shift - s))
                        pats |= _unary(row_exp, bits_of[a], shift, under, top)
                        pats |= _unary(row_exp, bits_of[b], shift + k, under, top)
                        pats &= ~pb
                        if k > 1:
                            mask |= a << n * (pos + 1)
                        if s - k > 1:
                            mask |= b << n * (pos + k + 1)
                    pos += 1
            states.add((mask, pats, pb))
        pool = states
    return code, last


def _rank_shift(n: int) -> int:
    """A rank is deg << shift plus the neighbour-degree sum, which is below n * n."""
    return (n * n).bit_length()


def _ranks(adj: Sequence[int], n: int) -> list[int]:
    """Per vertex, its rank: its degree, then the sum of its neighbours' degrees."""
    members, shift = _members(n), _rank_shift(n)
    deg = [m.bit_count() for m in adj]
    return [(deg[v] << shift) + sum(map(deg.__getitem__, members[m])) for v, m in enumerate(adj)]


def _cells(ranks: Sequence[int]) -> list[int]:
    """The rank partition as ``_maximal_code``'s ``allowed``: per position, its cell.

    The cells, in descending rank, each fill as many positions as they
    have vertices, so the last entry is the lowest-rank cell.
    """
    cells: dict[int, int] = {}
    for v, r in enumerate(ranks):
        cells[r] = cells.get(r, 0) | 1 << v
    allowed: list[int] = []
    for r in sorted(cells, reverse=True):
        cell = cells[r]
        allowed += [cell] * cell.bit_count()
    return allowed


def partition_code(adj: Sequence[int]) -> int:
    """The canonical form of a graph on n >= 1 vertices, packed into an int.

    The maximal column-major code over the orders that place the rank
    cells (``_cells``) one after another: a complete isomorphism
    invariant, which ``_decode`` turns back into ``canonical_masks``.
    The generator runs the same search on each candidate, with ranks
    and twins derived from its parent's, and reads the last-vertex set
    too.  Raises ``GraphError`` on the empty graph, and ``Graph``'s
    typed ``GraphError`` on masks that are no simple graph on 1..64
    vertices.
    """
    adj = Graph(adj).adj
    n = len(adj)
    if n < 1:
        raise GraphError(f"partition_code takes graphs on 1 or more vertices, got {n}")
    return _maximal_code(adj, n, _cells(_ranks(adj, n)), _twins_before(adj))[0]


def _decode(codes: Iterable[int], n: int) -> Iterator[tuple[int, ...]]:
    """The adjacency masks, in code order, of the graph each code on n vertices determines.

    The inverse of ``partition_code``: it gives ``canonical_masks``.
    Below its leading 1 bit a code is the column stream of a graph6
    record's body, so ``columns_to_masks`` reads both: each code goes
    whole into its own slot, and the decoder ignores the leading 1 above
    the stream.  One pass decodes each run of ``COLUMN_RUN`` codes.
    """
    size = _lane_width(n) ** 2 >> 3
    codes = iter(codes)
    while run := list(islice(codes, COLUMN_RUN)):
        yield from columns_to_masks(b"".join([code.to_bytes(size, "big") for code in run]), n)


def canonical_masks(adj: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the canonical form, decoded from ``partition_code(adj)``; () for n = 0."""
    n = len(adj)
    return next(_decode((partition_code(adj),), n)) if n else ()


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _decoded(canonical_masks(g.adj))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and (g.n == 0 or partition_code(g.adj) == partition_code(h.adj))
