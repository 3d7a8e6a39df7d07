"""Exhaustive small-graph generation, one representative per isomorphism class.

Graphs on k+1 vertices are produced by attaching a new vertex to every
k-vertex class representative, with every neighborhood that leaves the
new vertex of minimum degree (every graph arises so).  The candidates
are deduplicated by ``partition_code``, a complete invariant much
cheaper than the canonical form, and the canonical form is computed only
for the first candidate of each new class.  The published class counts
are pinned here and checked by the test suite; connected counts
additionally get a record-for-record cross-check against an externally
generated catalog, and the output is pinned byte for byte by digest.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

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
    seen: dict[int, tuple[int, ...]] = {}
    for parent in graph_classes(n - 1):
        base = parent.adj
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
            key = partition_code(adj)
            if key not in seen:
                seen[key] = canonical_masks(adj)
    return tuple(Graph(masks) for masks in sorted(seen.values()))


@lru_cache(maxsize=None)
def connected_classes(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of the connected graphs on n vertices."""
    return tuple(
        g for g in graph_classes(n) if len(component_masks(g.adj, n)) == 1
    )


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield exactly one representative per connected isomorphism class."""
    yield from connected_classes(n)
