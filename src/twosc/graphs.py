"""Constructors for the named graphs used by tests, docs and the CLI.

Named vertices (the apex x and its two anchors y, z in the capped
bipartite fixture) exist only as label maps here at the boundary; the
core always works with dense integer ids.
"""

from __future__ import annotations

from itertools import combinations

from .core import Graph, GraphError


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(k: int, l: int) -> Graph:
    if k < 0 or l < 0:
        raise GraphError(f"side sizes must be non-negative, got {k} and {l}")
    return Graph.from_edges(k + l, [(i, k + j) for i in range(k) for j in range(l)])


def star_graph(leaves: int) -> Graph:
    if leaves < 0:
        raise GraphError(f"leaf count must be non-negative, got {leaves}")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def capped_k33() -> Graph:
    """K_{3,3} with one cross edge replaced by a two-edge path via an apex.

    Vertex 0 is the apex x; 1 and 2 are its anchors y and z (formerly the
    endpoints of the replaced edge); {1, 3, 4} and {2, 5, 6} are the two
    sides.  Triangle-free, 2-self-centered and edge-minimal, with 0 the
    unique common neighbor of the pair (1, 2).
    """
    edges = [(a, b) for a in (1, 3, 4) for b in (2, 5, 6) if (a, b) != (1, 2)]
    edges += [(0, 1), (0, 2)]
    return Graph.from_edges(7, edges)


CAPPED_K33_LABELS = {"x": 0, "y": 1, "z": 2}


# An 8-vertex edge-minimal 2-self-centered graph containing exactly one
# triangle {3, 6, 7}; vertex 6 is the unique common neighbor of (4, 7).
_MINIMAL_TRIANGLE_EDGES = [
    (0, 1), (2, 3), (1, 2), (1, 4), (1, 5), (0, 3),
    (3, 6), (3, 7), (4, 6), (5, 7), (6, 7),
]

# The same list with (0, 3) mistyped as a second copy of (2, 3); that
# leaves vertex 0 with degree 1, which no 2-self-centered graph allows.
# Kept as a negative fixture.
_MINIMAL_TRIANGLE_EDGES_MISPRINT = [
    (0, 1), (2, 3), (1, 2), (1, 4), (1, 5), (2, 3),
    (3, 6), (3, 7), (4, 6), (5, 7), (6, 7),
]


def minimal_with_triangle() -> Graph:
    return Graph.from_edges(8, _MINIMAL_TRIANGLE_EDGES)


def minimal_with_triangle_misprint() -> Graph:
    return Graph.from_edges(8, _MINIMAL_TRIANGLE_EDGES_MISPRINT)
