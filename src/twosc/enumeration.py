"""Exhaustive small-graph generation, one representative per isomorphism class.

Graphs on k+1 vertices are produced by attaching a new vertex x to
every k-vertex class representative P, with a neighbourhood mask M over
P's vertices.  A level is one pass: the candidates are deduplicated by
``partition_code``, each share of the parents yielding the set of its
candidates' codes, and the sets are merged.  The code is the canonical
form packed into an int, so each distinct code decodes straight into
its class representative, the canonical form, and no second search runs
per class.

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
  be required to lie in the lowest-rank cell of the candidate.  The
  rank partition is the first step of the canonical search
  (``canon._cells``), so the test costs nothing beyond it, and a
  candidate that fails it never reaches ``_maximal_code``.
- Twin prefix.  Two vertices of P with equal open or equal closed
  neighbourhoods are twins.  The twins fall into classes, and any
  permutation inside a class is an automorphism of P.  Extended by
  fixing x, it maps the candidate with M to the one with the permuted
  mask, with x's degree and rank unchanged.  So M may contain a vertex
  only if it also contains every smaller twin of it
  (``canon._twins_before``, once per parent).

Together they keep a candidate of every class: for a graph G and a
vertex v of minimum rank, G - v is some parent P under an isomorphism
that maps v's neighbourhood to a mask M; that candidate passes the
first two rules, and permuting M inside P's twin classes makes it pass
the third without changing its class or x's rank.  None of the rules
depends on how the parents are labelled.  At n = 8 they leave 15,918
of the 29,755 minimum-degree candidates to search, for 12,346 classes.
Orbits of the whole automorphism group of P are not pruned: even a
perfect pruning would still search 13,268 candidates at n = 8, the
distinct codes, per parent, of the candidates the first two rules
keep.

The n = 8 level splits the parents into one share per usable CPU:
the caller works the first share and child processes the others, and
only ints cross the pipes.  Smaller levels, and machines with one
usable CPU, run one share in the caller and start no process.  The
battery's worker processes (``harness.verify_all``) are shares of the
same ``_split``.

The published class counts are pinned here and checked by the test
suite; connected counts additionally get a record-for-record cross-check
against an externally generated catalog, and the output is pinned byte
for byte by digest.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Sequence

from .canon import _cells, _decode, _maximal_code, _twins_before
from .core import Graph, GraphError, component_masks

GENERATOR_MAX = 8

# Unlabeled simple graphs on 1..8 vertices, and the connected ones.
ALL_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


class RangeError(GraphError):
    """Vertex count outside what the built-in generator supports."""


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all graphs on n vertices (any connectivity)."""
    if not 1 <= n <= GENERATOR_MAX:
        raise RangeError(f"generator supports 1..{GENERATOR_MAX} vertices, got {n}")
    if n == 1:
        return (Graph((0,)),)
    # Below n = 8 a level takes a quarter of a second or less, which
    # starting a process would eat.
    shares = _usable_cpus() if n >= 8 else 1
    return _level([g.adj for g in graph_classes(n - 1)], n, shares)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _level(parents: Sequence[tuple[int, ...]], n: int, shares: int) -> tuple[Graph, ...]:
    """The sorted canonical classes on n vertices from the (n-1)-vertex parents."""
    codes = set().union(*_split(_codes, n, parents, shares))
    forms = sorted(tuple(_decode(code, n)) for code in codes)
    del codes  # not held while the graphs are built
    return tuple(Graph(masks) for masks in forms)


def _codes(n: int, parents: Iterable[tuple[int, ...]]) -> set[int]:
    """The ``partition_code`` of every candidate from these parents.

    Only the candidates that pass the module's three rules are searched;
    the others' classes are reached by a candidate that does.
    """
    codes: set[int] = set()
    new = 1 << (n - 1)
    for base in parents:
        low = min(m.bit_count() for m in base)
        lowest = sum(1 << v for v, m in enumerate(base) if m.bit_count() == low)
        twins = [(v, b) for v, b in enumerate(_twins_before(base)) if b]
        for mask in range(new):
            d = mask.bit_count()
            if d > low + 1 or (d == low + 1 and lowest & ~mask):  # minimum degree
                continue
            if any(mask >> v & 1 and b & ~mask for v, b in twins):  # twin prefix
                continue
            adj = [m | ((mask >> v & 1) << (n - 1)) for v, m in enumerate(base)]
            adj.append(mask)
            allowed = _cells(adj, n)
            if allowed[-1] & new:  # lowest rank cell
                codes.add(_maximal_code(adj, n, allowed))
    return codes


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
