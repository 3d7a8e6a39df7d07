"""Exhaustive small-graph generation, one representative per isomorphism class.

Graphs on k+1 vertices are produced by attaching a new vertex to every
k-vertex class representative, with every neighborhood that leaves the
new vertex of minimum degree (every graph arises so).  A level runs in
two phases:

1. The candidates are deduplicated by ``partition_code``, a complete
   invariant much cheaper than the canonical form: each share of the
   parents yields the set of its candidates' codes, and the sets are
   merged.
2. Each distinct code is decoded back into a graph and its canonical
   form computed, so the canonical form runs once per class.  A code
   determines its graph: after the leading 1 bit, level j holds j bits,
   the adjacency of position j to positions 0..j-1, most significant bit
   first.

The n = 8 level splits each phase into one share per usable CPU: the
caller works the first share and child processes the others, and only
ints and mask tuples cross the pipes.  Smaller levels, and machines with
one usable CPU, run one share in the caller and start no process.

The published class counts are pinned here and checked by the test
suite; connected counts additionally get a record-for-record cross-check
against an externally generated catalog, and the output is pinned byte
for byte by digest.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterator, Sequence

from .canon import canonical_masks, partition_code
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
    codes = sorted(set().union(*_split(_codes, n, parents, shares)))
    forms = _split(_forms, n, codes, shares)
    return tuple(Graph(masks) for masks in sorted(chain.from_iterable(forms)))


def _codes(n: int, parents: Sequence[tuple[int, ...]]) -> set[int]:
    """Phase 1: the ``partition_code`` of every candidate from these parents."""
    codes: set[int] = set()
    for base in parents:
        # Every graph is its minimum-degree vertex attached to a parent
        # class, so only candidates whose new vertex has minimum degree
        # are needed: at most one more than the parent's minimum, and
        # then adjacent to every parent vertex of that minimum degree.
        low = min(m.bit_count() for m in base)
        lowest = sum(1 << v for v, m in enumerate(base) if m.bit_count() == low)
        for mask in range(1 << (n - 1)):
            d = mask.bit_count()
            if d > low + 1 or (d == low + 1 and lowest & ~mask):
                continue
            adj = [m | ((mask >> v & 1) << (n - 1)) for v, m in enumerate(base)]
            adj.append(mask)
            codes.add(partition_code(adj))
    return codes


def _forms(n: int, codes: Sequence[int]) -> list[tuple[int, ...]]:
    """Phase 2: the canonical form of the graph each code determines."""
    return [canonical_masks(_decode(code, n)) for code in codes]


def _decode(code: int, n: int) -> list[int]:
    """The adjacency masks, in code order, of the graph a code determines."""
    adj = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        shift -= j
        row = code >> shift
        for i in range(j):
            if row >> (j - 1 - i) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _split(work: Callable[[int, Sequence[Any]], Any], n: int, items: Sequence[Any], shares: int) -> list[Any]:
    """``work(n, items[i::shares])`` for each share i, in share order.

    The caller works share 0 while one child process per other share
    works the rest, each sending its result back over a pipe.  A share
    that raises or dies raises ``RuntimeError`` here, once every child
    has been stopped and reaped.
    """
    procs = []
    conns = []
    try:
        if shares > 1:
            from multiprocessing import Pipe, Process

            for i in range(1, shares):
                reader, writer = Pipe(duplex=False)
                proc = Process(target=_share, args=(writer, work, n, items[i::shares]))
                proc.start()
                writer.close()  # so a child that dies leaves the reader at EOF
                procs.append(proc)
                conns.append(reader)
        results = [work(n, items[::shares])]
        for i, (proc, reader) in enumerate(zip(procs, conns), 1):
            try:
                ok, value = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"generator share {i} of {shares} died with exit code {proc.exitcode}") from None
            if not ok:
                raise RuntimeError(f"generator share {i} of {shares} failed:\n{value}")
            results.append(value)
        return results
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for reader in conns:
            reader.close()


def _share(writer: Any, work: Callable[[int, Sequence[Any]], Any], n: int, items: Sequence[Any]) -> None:
    """A child's share: send (True, result), or (False, the traceback).

    An interrupt or exit ends the child without a message, which the
    caller sees as a share that died.
    """
    try:
        result = (True, work(n, items))
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
