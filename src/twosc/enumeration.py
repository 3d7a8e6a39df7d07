"""Exhaustive small-graph generation, one representative per isomorphism class.

Graphs on k+1 vertices are produced by attaching a new vertex x to
every k-vertex class representative P, with a neighbourhood mask M over
P's vertices.  Each class comes out once, by McKay's canonical
construction path (*Isomorph-free exhaustive generation*, J. Algorithms
1998): a candidate G counts only if x is in the orbit of the vertex that
G's canonical order places last.  Then G - x is isomorphic to G minus
that vertex, so one parent class, G's canonical parent, emits G.  The
canonical search (``canon._maximal_code``) returns the code and the
set S of vertices last in some optimal order with twins ascending; x
has the largest index, so it has no larger twin and is in the orbit
iff it is in S.  Two masks of P give the same G only through an
automorphism of P, and a set of codes per parent drops those copies.
So any slice of the parents emits disjoint classes, and each code
decodes straight into its class representative with no second search.

Most masks give a class that another mask gives too.  Three exact rules
drop such candidates before any canonical search; each names a property
that some candidate of every class has:

- Minimum degree.  Deleting a vertex of minimum degree leaves a parent
  class, so x may be required to have minimum degree: M has at most one
  more vertex than P's minimum degree, and then holds every vertex of
  P of that minimum degree.
- Lowest rank cell.  A vertex's rank is its degree, then the sum of its
  neighbours' degrees, as in ``canon``.  A vertex of minimum rank has
  minimum degree, and deleting it also leaves a parent class, so x may
  be required to lie in the lowest-rank cell of the candidate.
- Twin prefix.  Two vertices of P with equal open or equal closed
  neighbourhoods are twins.  A vertex has twins of one kind only: for
  an open twin u and a closed twin w of v, w is in N(v) = N(u), so u
  is in N[w] = N[v], adjacent to v, which an open twin is not.  So the
  twins fall into classes, and any permutation inside a class is an
  automorphism of P.  Extended by fixing x, it maps the candidate with
  M to the one with the permuted mask, with x's degree and rank
  unchanged.  So M may contain a vertex only if it also contains every
  smaller twin of it.

Together they keep a candidate of every class with x in the orbit: for
a graph G and the vertex v its canonical order places last, which has
minimum rank, G - v is some parent P under an isomorphism that maps
v's neighbourhood to a mask M; that candidate passes the first two
rules, and permuting M inside P's twin classes makes it pass the third
without changing its class or the vertex x stands for.  None of the
rules depends on how the parents are labelled.  At n = 8 they leave
15,918 of the 29,755 minimum-degree candidates to search, for 12,346
classes.  Orbits of the whole automorphism group of P are not pruned:
even a perfect pruning would still search 13,268 candidates at n = 8,
the distinct codes, per parent, of the candidates the first two rules
keep.

A candidate's data comes from its parent's.  Only the masks that pass
the first and third rules are made: a prefix of each twin class, at
most low + 1 bits in all.  With m_v = 1 for v in M, d = |M|, and deg
and s P's degrees and neighbour-degree sums, v gets degree deg v + m_v
and sum s v + |N(v) & M| + m_v d; x gets degree d and sum d plus the
degrees in M.  A candidate with a vertex ranked below x is dropped
before its rows are built, and ``canon._cells`` groups the others'
ranks.  Two vertices of P stay twins iff M holds both or neither, so v
keeps the smaller twins on its own side of M; x's twins are the v with
N(v) = M (open) or N[v] = M (closed).

From n = 7 on, a level splits the parents into one share per usable
CPU: the caller works the first share and child processes the others.
Each share decodes, sorts and builds its own classes, and a child sends
its sorted ``Graph`` list back pickled, which does not validate again.
The shares' classes are disjoint, so the level is the sort of the
concatenated runs, which timsort merges in linear time.  Smaller
levels, and machines with one usable CPU, run one share in the caller
and start no process.  The battery's shares (``harness.verify_all``)
stream connected classes from (n, parent) pairs, ``_connected_from``.

The published class counts are pinned here and checked by the test
suite; connected counts additionally get a record-for-record cross-check
against an externally generated catalog, and the output is pinned byte
for byte by digest.
"""

from __future__ import annotations

import os
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .canon import _cells, _decode, _maximal_code, _members, _rank_shift, _ranks, _twins_before
from .core import Graph, GraphError, component_masks

GENERATOR_MAX = 9

# Unlabeled simple graphs on 1..9 vertices, and the connected ones (OEIS A000088, A001349).
ALL_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080)


class RangeError(GraphError):
    """Vertex count outside what the built-in generator supports."""


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all graphs on n vertices (any connectivity)."""
    if not 1 <= n <= GENERATOR_MAX:
        raise RangeError(f"generator supports 1..{GENERATOR_MAX} vertices, got {n}")
    if n == 1:
        return (Graph((0,)),)
    # Below n = 7 a level takes a few milliseconds, which starting a
    # process would eat.  Split from n = 7 on, cold generation to n = 8
    # took 0.92x the time of a split from n = 8 on (12 of 16 pairs, 2 vCPUs).
    shares = _usable_cpus() if n >= 7 else 1
    return _level([g.adj for g in graph_classes(n - 1)], n, shares)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _level(parents: Sequence[tuple[int, ...]], n: int, shares: int) -> tuple[Graph, ...]:
    """The sorted canonical classes on n vertices from the (n-1)-vertex parents."""
    runs = _split(_classes, n, parents, shares)  # disjoint, each sorted: timsort merges them
    return tuple(sorted((g for run in runs for g in run), key=attrgetter("adj")))


def _classes(n: int, parents: Iterable[tuple[int, ...]]) -> list[Graph]:
    """The sorted representatives of the classes whose canonical parent is among these."""
    return [Graph(masks) for masks in sorted(_decode(code, n) for code in _codes(n, parents))]


def _connected_from(pairs: Iterable[tuple[int, tuple[int, ...]]]) -> Iterator[Graph]:
    """For each (n, parent) pair, the connected classes on n vertices whose canonical parent it is, as they come."""
    classes = (_decode(code, n) for n, parent in pairs for code in _codes(n, (parent,)))
    return (Graph(masks) for masks in classes if len(component_masks(masks, len(masks))) == 1)


def _codes(n: int, parents: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """The ``partition_code`` of each class whose canonical parent is among these, once.

    A candidate counts only if its new vertex is last in some optimal
    order; the set drops the copies of a class that the parent's other
    automorphisms make.
    """
    for base in parents:
        found = (_maximal_code(*candidate) for candidate in _candidates(n, base))
        yield from {code for code, last in found if last >> n - 1 & 1}


def _candidates(n: int, base: Sequence[int]) -> Iterator[tuple[list[int], int, list[int], list[int]]]:
    """``_maximal_code``'s arguments for each candidate from ``base`` that passes the three rules."""
    new = 1 << (n - 1)
    members = _members(n)
    shift = _rank_shift(n)
    deg = [m.bit_count() for m in base]
    base_ranks = _ranks(base, n)
    before = _twins_before(base)
    near: dict[int, int] = {}  # x's twins by M: the v with N(v) = M or N[v] = M
    for v, m in enumerate(base):  # no N(u) is an N[w], so the two kinds share no key
        near[m] = near.get(m, 0) | 1 << v
        near[m | 1 << v] = near.get(m | 1 << v, 0) | 1 << v
    for mask in _masks(deg, before):
        d = mask.bit_count()
        vs = members[mask]
        ranks = [r + (m & mask).bit_count() for r, m in zip(base_ranks, base)]
        rx = (d << shift) + d
        for u in vs:
            rx += deg[u]
            ranks[u] += (1 << shift) + d
        if min(ranks) < rx:  # lowest rank cell
            continue
        adj = [*base, mask]
        twins = [b & ~mask for b in before] + [near.get(mask, 0)]
        for u in vs:
            adj[u] |= new
            twins[u] = before[u] & mask
        yield adj, n, _cells([*ranks, rx]), twins


def _masks(deg: Sequence[int], before: Sequence[int]) -> list[int]:
    """The masks that pass the minimum-degree and twin-prefix rules, for a parent's degrees and twins."""
    low = min(deg)
    lowest = sum(1 << v for v, k in enumerate(deg) if k == low)
    masks = [0]
    for v, b in enumerate(before):
        masks += [mask | 1 << v for mask in masks if mask.bit_count() <= low and not b & ~mask]
    return [mask for mask in masks if mask.bit_count() <= low or not lowest & ~mask]


def _split(work: Callable[[Any, Iterable[Any]], Any], arg: Any, items: Iterable[Any], shares: int) -> list[Any]:
    """``work(arg, list(items)[i::shares])`` for each share i, in share order.

    The caller works share 0 while one child process per other share
    works the rest, each sending its result back over a pipe.  One share
    starts no process and hands ``items`` itself to ``work``, so an
    iterator streams; more shares read ``items`` into a list first.  A
    share that raises or dies raises ``RuntimeError`` here, once every
    child has been stopped and reaped.
    """
    procs = []
    conns = []
    try:
        if shares > 1:
            items = list(items)
            from multiprocessing import Pipe, Process

            for i in range(1, shares):
                reader, writer = Pipe(duplex=False)
                proc = Process(target=_share, args=(writer, work, arg, items[i::shares]))
                proc.start()
                writer.close()  # so a child that dies leaves the reader at EOF
                procs.append(proc)
                conns.append(reader)
        results = [work(arg, items[::shares] if shares > 1 else items)]
        for i, (proc, reader) in enumerate(zip(procs, conns), 1):
            try:
                ok, value = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"share {i} of {shares} died with exit code {proc.exitcode}") from None
            if not ok:
                raise RuntimeError(f"share {i} of {shares} failed:\n{value}")
            results.append(value)
        return results
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for reader in conns:
            reader.close()


def _share(writer: Any, work: Callable[[Any, Iterable[Any]], Any], arg: Any, items: Sequence[Any]) -> None:
    """A child's share: send (True, result), or (False, the traceback).

    An interrupt or exit ends the child without a message, which the
    caller sees as a share that died.
    """
    try:
        result = (True, work(arg, items))
    except Exception:
        import traceback

        result = (False, traceback.format_exc())
    writer.send(result)
    writer.close()


@lru_cache(maxsize=None)
def connected_classes(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of the connected graphs on n vertices."""
    return tuple(
        g for g in graph_classes(n) if len(component_masks(g.adj, n)) == 1
    )


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield exactly one representative per connected isomorphism class."""
    yield from connected_classes(n)
