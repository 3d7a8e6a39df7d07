"""Immutable bitset-backed simple graphs and the basic structural operations.

Vertices are dense integers 0..n-1 and every vertex set is a Python int
bitmask, so all set predicates reduce to bitwise operations.  The cap of
64 vertices keeps masks in a single machine word for every desk-scale
target; readers of external files reject anything larger.

The 2-self-centered test, the critical triples, edge-minimality and the
far pairs of the coverings are all questions about common neighbours,
so they are read from one kernel type, ``CommonNeighbours``: for a run
of graphs of one lane width w, the Boolean square of each packed
adjacency matrix with a count that saturates at 2.  Graph i's packed
rows fill slot i, bits i * w * w .. (i + 1) * w * w - 1 of one int, with
its lanes past n left 0, so each slot holds what ``_pack`` makes of that
graph; ``pack_slots`` builds the int with one ``struct`` call,
little-endian.  A single graph is a run of one (``common_neighbours``),
computed at most once per ``Graph`` (``Graph.common``).  The kernel's
2SC test, deletable edges, transpose and malformed bits are written
once, over slots; each matrix's per-slot verdict words come back with
one ``struct.unpack``, and ``CommonNeighbours.slots`` takes chosen slots
out as runs of one, byte slices of the matrices.

The ``far`` matrix holds the non-adjacent pairs without a common
neighbour, and the local test's report names the first one in scan
order (u ascending, then v > u).  Bit v of lane u is bit u * w + v, so
ascending bits are that scan order, and the lowest set bit of ``far`` is
the first pair: it lies in the first row holding a far pair, at its
smallest column, which is above the diagonal because the matrix is
symmetric (a far pair (u, v) with v < u would put (v, u) in the earlier
row v).  ``CommonNeighbours.pairs`` reads the pairs of a run of one's
matrix in that order; the first removable edge of ``is_edge_minimal`` is
found the same way.

The kernel and its deletable edges take n steps for the run, step k
being one lane product of column k of a matrix with row k (one helper,
``_lane_products``), chosen from the run's length.  A run of one
multiplies column k by row k, which copies the row into the lane of
every set bit of the column.  In a longer run a multiply would carry
between slots, so each set bit of column k is filled across its lane by
multiplying by a full lane, and anded with row k of every slot,
broadcast across its slot by log2(w) shift-or doublings; multiplying by
a constant of w * w bits would broadcast in one operation, but costs
more than linear time in the run's length.  The transpose's swaps and
the diagonal are the single matrix's masks repeated in every slot.  Per
graph, packing included, in runs of 256 seeded G(n, 1/2) graphs against
runs of one (best of 7, CPython 3.11, 2 vCPUs; the wider rows measured
with the lanes mask built without ``_LANE_BYTES``):

====  ==========  ===========  ==========
n     lane width  run of 256   run of one
====  ==========  ===========  ==========
8     8           0.4 us       2.7 us
16    16          1.5 us       4.7 us
24    32          7.9 us       6.9 us
40    64          67 us        19 us
====  ==========  ===========  ==========

So the battery reads graphs with n <= ``BLOCK_MAX_N`` = 16 in runs, a
choice made from n alone, and wider graphs as runs of one.

Column streams are decoded in runs too, by the one decoder,
``columns_to_masks``.  A column stream is the upper triangle column by
column, adj(u, v) for v = 1..n-1 and u = 0..v-1, first bit most
significant: the body of a graph6 record, and ``canon.partition_code``
below its leading 1 bit.  Every stream of a run has one n, and sits
big-endian in its own w * w-bit slot, the layout of ``pack_slots``.
One ``bytes.translate`` through ``_REVERSED`` reverses the bits of
every byte, so the little-endian int of the run holds each slot's
stream reversed at the top, and one shift moves it to the bottom: column
v at bit v(v - 1)/2, bit u of the column standing for adj(u, v).
Column v moves into lane v, d_v = v * w - v(v - 1)/2 bits up, and d_v
grows with v, so the moves go one bit of d_v at a time, from the
highest, as masked shifts of every column whose d_v has that bit; the
columns never overlap on the way (the expand of *Hacker's Delight*,
ch. 7), and that takes at most 12 steps where a shift per column takes
up to 63.  The steps are built once per lane width for all w columns,
and n columns take those of the bits of d_{n-1}.  One slot transpose
mirrors the rows, and one ``Struct.iter_unpack`` returns the first n
lanes of every slot.  The graph6 reader and the generator decode
``COLUMN_RUN`` = 256 streams a pass, and a single record is a run of
one.  Per stream, against the one-stream decoder it replaced (best of
7, CPython 3.11, 2 vCPUs): 0.20 against 2.56 us at n = 8, 0.56 against
3.12 us at n = 9 and 0.86 against 4.49 us at n = 16 in runs of 256;
3.6 against 3.4 us at n = 9 and 22.6 against 23.0 us at n = 64 in a
run of one.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 64
COLUMN_RUN = 256  # column streams decoded per pass by the graph6 reader and the generator


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
    """Whether the graph on the n neighbor masks ``adj`` is 2-self-centered, by the local test.

    Radius = diameter = 2 holds exactly when n >= 4, every degree lies in
    [2, n - 2] and every non-adjacent pair has a common neighbor: the 2SC
    test of the graph's kernel, a run of one.
    """
    return n >= 4 and common_neighbours(adj).two_sc()[0]


def check_vertices(n: int, *vertices: int) -> None:
    """Raise GraphError for a vertex id outside 0..n-1."""
    for v in vertices:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} outside 0..{n - 1}")


def bits(mask: int) -> Iterator[int]:
    """Iterate the vertex ids set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ------------------------------------------------------ packed bit matrix
#
# A square bit matrix of n <= 64 rows lives in one int: row v in lane v,
# bits v*w .. v*w + w - 1, where w = 8, 16, 32 or 64 is the narrowest
# lane that holds n bits.  Rows go in and out through ``struct`` with
# standard sizes, little-endian on every platform, so packing and
# unpacking cost O(1) Python operations, and the transpose costs
# log2(w) masked swaps (the block-swap transpose; Warren, *Hacker's
# Delight*, 2nd ed., ch. 7).  The common-neighbour kernel, graph6 and
# the canonical search (``canon``, whose lanes start as the columns of
# the packed rows) all use this layout.


def _lane_width(n: int) -> int:
    """The narrowest lane width that holds n bits, for n <= 64."""
    return 8 if n <= 8 else 16 if n <= 16 else 32 if n <= 32 else 64


# the struct format letter of each lane width, and per row count n the
# struct of n lanes
_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}
_ROWS = tuple(struct.Struct(f"<{n}{_LANE_FORMATS[_lane_width(n)]}") for n in range(MAX_VERTICES + 1))


def _every(period: int, width: int) -> int:
    """Bit 0 of every ``period``-bit block of a ``width``-bit int (period divides width)."""
    return ((1 << width) - 1) // ((1 << period) - 1)


def _swaps(w: int) -> tuple[tuple[int, int], ...]:
    """The transpose's (shift, mask) pairs for w-bit lanes, one per block size j.

    The swap for block size j exchanges entry (r, c), where r has bit j
    clear and c has it set, with entry (r + j, c - j), j * (w - 1) bits up.
    """
    swaps = []
    j = w >> 1
    while j:
        rows = _every(2 * j * w, w * w) * _every(w, j * w)
        cols = _every(2 * j, w) * (((1 << j) - 1) << j)
        swaps.append((j * (w - 1), rows * cols))
        j >>= 1
    return tuple(swaps)


_SWAPS = {w: _swaps(w) for w in _LANE_FORMATS}
_DIAGONAL = {w: _every(w + 1, (w + 1) * w) for w in _LANE_FORMATS}
_ONES = {w: _every(w, w * w) for w in _LANE_FORMATS}  # bit 0 of every lane


def _reversed_bytes() -> bytes:
    """The 256-entry table of each byte with its bit order reversed."""
    x = int.from_bytes(bytes(range(256)), "little")
    for s, pattern in ((1, 0x55), (2, 0x33), (4, 0x0F)):
        m = pattern * _every(8, 2048)
        x = (x >> s & m) | (x & m) << s
    return x.to_bytes(256, "little")


_REVERSED = _reversed_bytes()


def _pack(rows: Sequence[int]) -> int:
    """Row v in lane v; every row must be an int in 0..2**w - 1 (struct.error otherwise)."""
    return int.from_bytes(_ROWS[len(rows)].pack(*rows), "little")


def _unpack(x: int, n: int) -> tuple[int, ...]:
    """The first n lanes of x, as ints."""
    rows = _ROWS[n]
    return rows.unpack(x.to_bytes(rows.size, "little"))


def _transpose(x: int, swaps: Sequence[tuple[int, int]]) -> int:
    """Every w x w bit matrix packed in x transposed, by the (shift, mask) pairs of its run's transpose."""
    for s, m in swaps:
        t = (x ^ x >> s) & m
        x ^= t | t << s
    return x


def _reverse(x: int, nbits: int) -> int:
    """The low nbits of x in reverse order."""
    size = nbits + 7 >> 3
    return int.from_bytes(x.to_bytes(size, "little").translate(_REVERSED), "big") >> (size << 3) - nbits


def symmetric_masks(rows: Sequence[int]) -> tuple[int, ...]:
    """The neighbor masks with an edge uv wherever row u holds v or row v holds u (n <= 64 rows over 0..n-1)."""
    x = _pack(rows)
    return _unpack(x | _transpose(x, _SWAPS[_lane_width(len(rows))]), len(rows))


def relabel_masks(adj: Sequence[int], order: Sequence[int]) -> list[int]:
    """The neighbor masks with old vertex ``order[i]`` renamed to i; ``order`` must be a permutation."""
    n = len(adj)
    # rows in the new order, still indexed by old labels; transposed,
    # row u of that holds the new labels of u's neighbours
    cols = _unpack(_transpose(_pack([adj[v] for v in order]), _SWAPS[_lane_width(n)]), n)
    return [cols[v] for v in order]


# per v, the bits of the vertices below v: column v of the upper triangle
_BELOW = tuple((1 << v) - 1 for v in range(MAX_VERTICES))


def masks_to_columns(adj: Sequence[int]) -> int:
    """The upper triangle of ``adj``, column by column: the inverse of ``columns_to_masks``."""
    n = len(adj)
    low = 0
    for v in range(n - 1, 0, -1):
        low = low << v | adj[v] & _BELOW[v]
    return _reverse(low, n * (n - 1) >> 1)


# ------------------------------------------------ common-neighbour kernel
#
# Vertex k is a common neighbour of exactly the pairs inside N(k), so
# the lane product of column k of x with N(k), which copies N(k) into
# the lane of every neighbour of k, is the matrix of the pairs k serves.
# A pair that is already in ``one`` when the product holds it has two
# common neighbours.  So n lane products square the adjacency matrix
# over the Booleans with a count that saturates at 2 (SWAR lane
# arithmetic; Warren, *Hacker's Delight*, 2nd ed., ch. 7).  The layout,
# the two forms of the lane product and the cutoff are in the module
# docstring.

BLOCK_MAX_N = 16

# per lane width w, the bytes of a slot's lanes mask for n = 0..w: rows
# 0..n-1 holding columns 0..n-1
_LANE_BYTES = {w: tuple(_ROWS[w].pack(*[(1 << n) - 1] * n, *[0] * (w - n)) for n in range(w + 1)) for w in _LANE_FORMATS}

# lane u holds bits u + 1 .. w - 1, which is (1 << w) - (2 << u); summed
# over the lanes, that is the ones shifted up a lane minus twice the diagonal
_UPPER = {w: (_ONES[w] << w) - 2 * _DIAGONAL[w] for w in _LANE_FORMATS}


class _SlotMasks(NamedTuple):
    """A single matrix's masks repeated in every slot of a run."""

    ones: int  # bit 0 of every lane
    first: int  # lane 0 of every slot
    diagonal: int
    low: int  # the low w - 1 bits of every lane
    swaps: tuple[tuple[int, int], ...]  # the transpose's (shift, mask) pairs


@lru_cache(maxsize=16)
def _masks(w: int, count: int) -> _SlotMasks:
    """The masks for a run of ``count`` slots of width w.

    A few runs are read at a time (a block's lane groups, its runs of
    one), so the cache holds a few lengths.
    """
    size = w * w
    each = _every(size, count * size)
    ones = _every(w, count * size)
    return _SlotMasks(
        ones, each * ((1 << w) - 1), each * _DIAGONAL[w], ones * ((1 << w - 1) - 1),
        tuple((s, each * m) for s, m in _SWAPS[w]),
    )


def lane_groups(sizes: Iterable[int]) -> dict[int, list[int]]:
    """The positions of the graphs with these vertex counts, by lane width, ascending within each."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(_lane_width(n), []).append(i)
    return groups


def pack_slots(rows: Sequence[Sequence[int]], w: int) -> int:
    """Graph i's rows in slot i, lane v holding row v.

    Raises struct.error unless each graph has at most w rows, each an int
    in 0..2**w - 1.
    """
    flat: list[int] = []
    pad = [0] * w
    for adj in rows:
        flat += adj
        flat += pad[len(adj):]
    return int.from_bytes(struct.pack(f"<{len(rows) * w}{_LANE_FORMATS[w]}", *flat), "little")


def _lane_products(x: int, matrix: int, sizes: Sequence[int], w: int) -> tuple[int, int]:
    """The or of the lane products of column k of x with row k of ``matrix``, over k, and the bits two or more of them hold.

    In each slot, lane u of the product for k holds the slot's row k of
    ``matrix`` where x holds the pair (u, k), else 0.  A run of one
    unpacks its rows and multiplies column k by row k, which cannot carry
    out of a lane.  A longer run multiplies column k by a full lane,
    filling each of its bits across its lane, and ands that with row k
    broadcast across its slot.
    """
    masks = _masks(w, len(sizes))
    ones = masks.ones
    one = many = 0
    if len(sizes) == 1:
        for k, row in enumerate(_unpack(matrix, sizes[0])):
            if row:
                t = (x >> k & ones) * row
                many |= one & t
                one |= t
        return one, many
    full, first = (1 << w) - 1, masks.first
    for k in range(max(sizes, default=0)):
        row = matrix >> k * w & first
        if row:
            t = (x >> k & ones) * full & _broadcast(row, w)
            many |= one & t
            one |= t
    return one, many


def _broadcast(row: int, w: int) -> int:
    """Lane 0 of every slot copied into every lane of its slot, by log2(w) shift-or doublings."""
    s = w
    while s < w * w:
        row |= row << s
        s <<= 1
    return row


class CommonNeighbours(NamedTuple):
    """The common-neighbour kernels of a run of graphs of one lane width w.

    Graph i, with ``sizes[i]`` vertices, sits in slot i, as ``pack_slots``
    lays it out, and a single graph's kernel is a run of one
    (``common_neighbours``, ``Graph.common``).  Every field but w and
    sizes holds in each slot a symmetric bit matrix of w-bit lanes, bit v
    of lane u standing for the pair (u, v) of that slot's graph:

    - ``lanes``: u and v are both below the graph's vertex count;
    - ``adjacency``: the adjacency matrix itself;
    - ``one``: u and v have a common neighbour (on the diagonal: deg u >= 1);
    - ``many``: they have two or more (on the diagonal: deg u >= 2);
    - ``far``: u != v are non-adjacent without a common neighbour, that
      is at distance 3 or more, or unreachable;
    - ``crit``: u != v are non-adjacent with exactly one common
      neighbour, a critical pair.
    """

    w: int
    sizes: tuple[int, ...]
    lanes: int
    adjacency: int
    one: int
    many: int
    far: int
    crit: int

    def rows(self, matrix: int) -> tuple[int, ...]:
        """The lanes of a run of one's matrix, as vertex masks."""
        return _unpack(matrix, self.sizes[0])

    def pairs(self, matrix: int) -> Iterator[tuple[int, int]]:
        """The pairs (u, v), u < v, of a run of one's matrix, ascending."""
        w = self.w
        upper = matrix & _UPPER[w]
        while upper:
            low = upper & -upper
            yield divmod(low.bit_length() - 1, w)
            upper ^= low

    def slots(self, chosen: Iterable[int]) -> list[CommonNeighbours]:
        """The chosen slots, each as a run of one: ``common_neighbours`` of its graph."""
        w, count, size = self.w, len(self.sizes), self.w * self.w >> 3
        data = [m.to_bytes(count * size, "little") for m in self[2:]]
        return [
            CommonNeighbours(w, (self.sizes[i],), *(int.from_bytes(d[i * size:(i + 1) * size], "little") for d in data))
            for i in chosen
        ]

    def words(self, matrix: int) -> tuple[int, ...]:
        """One word per slot of a matrix, nonzero exactly when the slot is.

        A slot holds w * w / 64 words of 64 bits: one at w = 8, and 4, 16
        or 64 at w = 16, 32 or 64, which are or-ed into the slot's lowest.
        A run of one's word is the matrix itself.
        """
        if len(self.sizes) == 1:
            return (matrix,)
        count, quarters = len(self.sizes), self.w * self.w >> 6
        step = self.w * self.w >> 1
        while step >= 64:
            matrix |= matrix >> step
            step >>= 1
        words = struct.unpack(f"<{count * quarters}Q", matrix.to_bytes(count * quarters << 3, "little"))
        return words[::quarters]

    def transpose(self, matrix: int) -> int:
        """Every slot of a matrix transposed."""
        return _transpose(matrix, _masks(self.w, len(self.sizes)).swaps)

    def malformed(self, matrix: int) -> int:
        """The bits of a matrix that no graph with the slots' sizes has.

        Those are the bits outside the lanes, on the diagonal, or without
        their mirror.
        """
        diagonal = _masks(self.w, len(self.sizes)).diagonal
        return matrix & ~self.lanes | matrix & diagonal | matrix ^ self.transpose(matrix)

    def two_sc(self) -> list[bool]:
        """Each graph's 2SC test: n >= 4, every degree in [2, n - 2], and no far pair."""
        w, lanes, x = self.w, self.lanes, self.adjacency
        masks = _masks(w, len(self.sizes))
        ones, low = masks.ones, masks.low
        # a degree above n - 2 leaves the lane of non-neighbours empty,
        # so its high bit stays clear when its low bits are carried into
        # it.  The lower bound follows: a vertex of degree 0 makes far
        # pairs, and the one neighbour of a vertex of degree 1 must be
        # the common neighbour of every pair it forms, so has degree n - 1
        apart = lanes & ~(x | masks.diagonal)
        filled = ((apart & low) + low | apart) >> w - 1 & ones
        return [n >= 4 and not word for n, word in zip(self.sizes, self.words(self.far | lanes & ones & ~filled))]

    def deletable(self) -> int:
        """The edges uv whose deletion keeps a 2-self-centered graph so, in every slot.

        The deletion rule of ``recognition.edit_keeps_two_sc``: u and v
        have a common neighbour, and neither N(u) meets the critical
        pairs of v nor N(v) those of u.  The meeting is one more lane
        product per vertex k with critical pairs: column k of the
        adjacency times row k of ``crit`` marks every u adjacent to k
        against the critical partners of k.
        """
        x = self.adjacency
        meets = _lane_products(x, self.crit, self.sizes, self.w)[0]
        return x & self.one & ~(meets | self.transpose(meets))


def kernel_block(x: int, sizes: Sequence[int], w: int) -> CommonNeighbours:
    """The kernels of the graphs packed in x by ``pack_slots``, with vertex counts ``sizes``: n lane products for the run."""
    one, many = _lane_products(x, x, sizes, w)
    lane_bytes = _LANE_BYTES[w]
    lanes = int.from_bytes(b"".join([lane_bytes[n] for n in sizes]), "little")
    near = x | _masks(w, len(sizes)).diagonal
    return CommonNeighbours(w, tuple(sizes), lanes, x, one, many, lanes & ~(near | one), one & ~(near | many))


def common_neighbours(adj: Sequence[int]) -> CommonNeighbours:
    """The common-neighbour kernel of valid neighbor masks, a run of one."""
    n = len(adj)
    return kernel_block(_pack(adj), (n,), _lane_width(n))


# ------------------------------------------------------- column streams
#
# The layout and the decoder's steps are in the module docstring.


@lru_cache(maxsize=None)
def _column_moves(w: int, slots: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """What ``columns_to_masks`` needs for the w columns of lane width w in a run of ``slots`` slots.

    That is the (shift, mask) pair of each bit of the columns' moves,
    highest first, and the slot transpose's (shift, mask) pairs.
    """
    each = _every(w * w, slots * w * w)
    # column v starts at bit v(v - 1)/2 and moves up by d_v = v * w - v(v - 1)/2
    start = [v * (v - 1) >> 1 for v in range(w)]
    move = [v * w - start[v] for v in range(w)]
    moves = []
    for b in reversed(range(move[-1].bit_length())):
        # before the step for bit b, column v has moved by the bits of d_v above b
        m = 0
        for v in range(1, w):
            if move[v] >> b & 1:
                m |= (1 << v) - 1 << start[v] + (move[v] >> b + 1 << b + 1)
        moves.append((1 << b, each * m))
    return tuple(moves), _masks(w, slots).swaps


def _column_shape(n: int) -> tuple[int, bytes, int, struct.Struct]:
    """Per n, the length of a stream, one little-endian slot with its bits set, the steps its columns move, and one slot's struct.

    d_v grows with v, so the n columns take the steps of the bits of
    d_{n-1}, the last of ``_column_moves``; the struct reads lanes 0..n-1
    of a slot and skips the rest.
    """
    w = _lane_width(n)
    nbits = n * (n - 1) >> 1
    last = max(n - 1, 0)
    steps = last * w - (last * (last - 1) >> 1)
    slot = struct.Struct(f"<{n}{_LANE_FORMATS[w]}{(w - n) * w >> 3}x")
    return nbits, ((1 << nbits) - 1).to_bytes(w * w >> 3, "little"), steps.bit_length(), slot


_COLUMN_SHAPES = tuple(_column_shape(n) for n in range(MAX_VERTICES + 1))


def columns_to_masks(data: bytes, n: int, fill: int = 0) -> list[tuple[int, ...]]:
    """The neighbor masks of each graph on n <= 64 vertices whose column stream is in ``data``.

    ``data`` holds one slot of w * w / 8 bytes per graph, w being
    ``_lane_width(n)``.  A slot holds its column stream big-endian above
    ``fill`` low bits, and any bits above the stream are ignored.  The
    stream is the n(n - 1)/2 bits adj(u, v), u < v, for v = 1..n-1 and
    within each column u = 0..v-1, the first bit most significant: the
    body of a graph6 record, and ``partition_code`` below its leading 1
    bit.  One pass decodes the whole run.
    """
    w = _lane_width(n)
    size = w * w
    count = len(data) * 8 // size
    if not count:
        return []
    nbits, stream, steps, slot = _COLUMN_SHAPES[n]
    moves, swaps = _column_moves(w, 1 << (count - 1).bit_length())
    # reversed, each slot holds its stream column after column from the
    # least significant bit, and bit u of column v is adj(u, v)
    x = int.from_bytes(data.translate(_REVERSED), "little") >> size - fill - nbits & int.from_bytes(stream * count, "little")
    for s, m in moves[len(moves) - steps:]:
        t = x & m
        x ^= t ^ t << s
    # lane v now holds the neighbours of v below v; or-ing in the
    # transpose adds those above
    return list(slot.iter_unpack((x | _transpose(x, swaps)).to_bytes(count * size >> 3, "little")))


class _memo:
    """A computed attribute that fills the instance dict on its first read.

    A non-data descriptor, so every later read finds the value in the
    instance dict and never calls it again.  ``functools.cached_property``
    does the same, but takes a lock on each first read on CPython 3.10
    and 3.11; the attributes here are pure functions of a frozen value,
    so two threads that race on a first read compute the same answer and
    no lock is needed.  A block pass may fill a memo ahead of its first
    read (``_remember``), with the value the read would compute.  Both
    write through ``object.__setattr__``: on CPython 3.11 it keeps the
    instance's compact attribute storage, where writing into ``vars(obj)``
    turns it into a full dict, about 64 bytes more per graph.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _remember(obj: Any, **memos: Any) -> None:
    """Fill ``_memo`` attributes of obj with values computed elsewhere, each equal to what its first read would give."""
    for name, value in memos.items():
        object.__setattr__(obj, name, value)


def _first_bad_mask(adj: Sequence[int]) -> GraphError:
    """The error for the first vertex whose neighbor mask is no int, reaches outside the graph or holds a loop."""
    n = len(adj)
    full = (1 << n) - 1
    for v, m in enumerate(adj):
        if not isinstance(m, int):
            return GraphError(f"neighbor mask of {v} is {m!r}, not an int")
        if m & ~full:
            return GraphError(f"neighbor mask of {v} references vertices outside 0..{n - 1}")
        if m >> v & 1:
            return LoopError(f"self-loop at vertex {v}")
    return GraphError("neighbor masks must be ints")


class _Frozen:
    """An immutable value: ``__init__`` sets each field once through
    ``object.__setattr__``, and two values are equal, with equal hashes,
    when they have the same type and the same ``_key()``, the tuple of
    their fields.  No ``__slots__``: unpickling restores the instance
    dict without calling ``__init__`` or ``__setattr__``, where slots
    would be restored through the ``__setattr__`` that refuses.
    """

    def _key(self) -> tuple[Any, ...]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """A simple undirected graph; ``adj[v]`` is the neighbor bitmask of v.

    Instances are immutable: every mutation-shaped operation returns a new
    value, so graphs can be shared freely across threads and processes.
    The empty graph (no vertices) is a legal value; it shows up as the
    core of degenerate generalized complete bipartite specs.

    ``common`` computes the graph's common-neighbour kernel, a run of
    one, the first time it is read, and ``two_sc`` reads that kernel's
    2SC test; each keeps its answer on the value.  The memo lives in the instance dict and takes no part in
    ``==`` or ``hash``, and a pickled graph carries it along without
    being validated again.
    """

    adj: tuple[int, ...]

    def __init__(self, adj: Sequence[int]) -> None:
        if type(adj) is not tuple:
            adj = tuple(adj)
        object.__setattr__(self, "adj", adj)
        n = len(adj)
        if n > MAX_VERTICES:
            raise VertexLimitError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex bitset core")
        if not n:
            return
        w = _lane_width(n)
        try:
            x = _pack(adj) if min(adj) >= 0 and max(adj) >> n == 0 else None
        except (TypeError, struct.error):
            x = None
        if x is None:
            raise _first_bad_mask(adj)
        loops = x & _DIAGONAL[w]
        if loops:
            raise LoopError(f"self-loop at vertex {(loops & -loops).bit_length() // (w + 1)}")
        # a set bit (u, v) without its mirror (v, u); the lowest one is
        # the first such pair in row order
        onesided = x & ~_transpose(x, _SWAPS[w])
        if onesided:
            u, v = divmod((onesided & -onesided).bit_length() - 1, w)
            raise GraphError(f"adjacency not symmetric on pair ({min(u, v)}, {max(u, v)})")

    @_memo
    def two_sc(self) -> bool:
        """Whether the graph is 2-self-centered (radius = diameter = 2): the 2SC test of ``common``, read when n >= 4."""
        return len(self.adj) >= 4 and self.common.two_sc()[0]

    @_memo
    def common(self) -> CommonNeighbours:
        """The graph's pairs by their number of common neighbours: its kernel, a run of one (``common_neighbours``)."""
        return common_neighbours(self.adj)

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
            check_vertices(n, u, v)
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
        check_vertices(len(self.adj), u, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        check_vertices(len(self.adj), v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        check_vertices(len(self.adj), v)
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
        return Graph(tuple(relabel_masks(self.adj, order)))

    def _key(self) -> tuple[tuple[int, ...]]:
        return (self.adj,)

    def __repr__(self) -> str:
        return f"Graph(n={len(self.adj)}, edges={self.edges()!r})"


def _decoded(masks: tuple[int, ...]) -> Graph:
    """The ``Graph`` on masks valid by construction, built without ``Graph.__init__``'s validation.

    For every run of slots and n <= 64, ``columns_to_masks`` keeps only
    each slot's n(n - 1)/2 stream bits and moves column v into lane v
    below bit v, then ors in the slot's transpose, so each tuple it
    returns is in range, loop-free and symmetric: the value
    ``Graph(masks)`` builds.
    The greedy sandwich builders of ``recognition`` toggle pairs u < v of
    a valid graph in both rows at once, which keeps those properties; the
    battery's ``sandwich_existence`` re-derives them for every output.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "adj", masks)
    return g


class DistanceProfile(NamedTuple):
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
    vertex does not.  Raises GraphError for a vertex outside g.
    """
    ids = tuple(component)
    check_vertices(g.n, *ids)
    comp = mask_of(ids)
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
    """True iff no edge of g joins two of the given vertices; GraphError for one outside g."""
    ids = tuple(vertices)
    check_vertices(g.n, *ids)
    m = mask_of(ids)
    for v in bits(m):
        if g.adj[v] & m:
            return False
    return True


def edit(g: Graph, remove: tuple[int, int] | None = None, add: tuple[int, int] | None = None) -> Graph:
    """Return a copy of g with one edge removed and/or one edge added.

    The removed edge must be present and the added edge absent; loops and
    vertices outside g are rejected.  The input graph is never modified.
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
        check_vertices(g.n, u, v)
        if adj[u] >> v & 1:
            raise EdgePresentError(f"edge ({u}, {v}) already present")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))
