"""The benchmark's own graph code: graph6 codec, BFS oracle, seeded inputs.

Nothing here imports twosc.  A graph is a tuple of neighbour bitmasks,
``adj[v]`` holding the neighbours of vertex v, which is the same
representation ``twosc.Graph.adj`` exposes, so answers can be compared
value for value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Adj = tuple[int, ...]


# ---------------------------------------------------------------- graph6

def g6_encode(adj: Adj) -> str:
    """graph6 record of a graph with at most 62 vertices."""
    n = len(adj)
    out = [chr(63 + n)]
    chunk = filled = 0
    for v in range(1, n):
        col = adj[v]
        for u in range(v):
            chunk = chunk << 1 | (col >> u & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + chunk))
                chunk = filled = 0
    if filled:
        out.append(chr(63 + (chunk << (6 - filled))))
    return "".join(out)


def g6_decode(record: str) -> Adj:
    """Adjacency masks of a short-form graph6 record."""
    n = ord(record[0]) - 63
    bits = []
    for c in record[1:]:
        x = ord(c) - 63
        bits.extend(x >> k & 1 for k in range(5, -1, -1))
    adj = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return tuple(adj)


# ---------------------------------------------------------------- oracle

def is_2sc(adj: Adj) -> bool:
    """radius = diameter = 2: a BFS from every vertex finds it at
    eccentricity exactly 2 (its first layer misses some vertex, its
    second layer reaches all).  Each BFS stops after two layers."""
    n = len(adj)
    full = (1 << n) - 1
    if n < 2:
        return False
    for src in range(n):
        first = adj[src] | 1 << src
        if first == full:
            return False
        reach = first
        f = adj[src]
        while f:
            low = f & -f
            reach |= adj[low.bit_length() - 1]
            f ^= low
        if reach != full:
            return False
    return True


def edges(adj: Adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def toggled(adj: Adj, u: int, v: int) -> Adj:
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return tuple(out)


def edge_minimal(adj: Adj) -> bool:
    """2SC, and removing any one edge breaks 2SC (a one-edge removal sweep)."""
    return is_2sc(adj) and not any(is_2sc(toggled(adj, u, v)) for u, v in edges(adj))


def edge_maximal(adj: Adj) -> bool:
    """2SC, and adding any one absent edge breaks 2SC (a one-edge addition sweep)."""
    n = len(adj)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
    return is_2sc(adj) and not any(is_2sc(toggled(adj, u, v)) for u, v in absent)


def critical_triples(adj: Adj) -> set[tuple[int, int, int]]:
    """(x, u, v) with u < v non-adjacent and x their only common neighbour."""
    n = len(adj)
    out = set()
    for u in range(n):
        for v in range(u + 1, n):
            common = adj[u] & adj[v]
            if not adj[u] >> v & 1 and common and not common & (common - 1):
                out.add((common.bit_length() - 1, u, v))
    return out


def triangle_free(adj: Adj) -> bool:
    return not any(adj[u] & adj[v] for u, v in edges(adj))


def relabel(adj: Adj, order: list[int]) -> Adj:
    """Rename old vertex order[i] to i."""
    pos = {v: i for i, v in enumerate(order)}
    out = [0] * len(adj)
    for i, v in enumerate(order):
        for u in range(len(adj)):
            if adj[v] >> u & 1:
                out[i] |= 1 << pos[u]
    return tuple(out)


# ---------------------------------------------------------------- inputs

def gnp(rng: random.Random, n: int, p: float) -> Adj:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


def dense_2sc(rng: random.Random, n: int) -> Adj:
    while True:
        adj = gnp(rng, n, 0.5)
        if is_2sc(adj):
            return adj


def greedy_minimal(rng: random.Random, adj: Adj) -> Adj:
    """Drop edges in random order while 2SC survives.

    One pass is enough: removing edges only lengthens distances and
    lowers degrees below n - 1, so an edge that could not go stays needed.
    """
    order = edges(adj)
    rng.shuffle(order)
    for u, v in order:
        cand = toggled(adj, u, v)
        if is_2sc(cand):
            adj = cand
    return adj


def maximal_triangle_free(rng: random.Random, n: int) -> Adj:
    """A random maximal triangle-free graph that is not a star (hence 2SC)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if is_2sc(tuple(adj)):
            return tuple(adj)


def minimal_with_triangles(rng: random.Random, n: int) -> Adj:
    while True:
        adj = greedy_minimal(rng, dense_2sc(rng, n))
        if not triangle_free(adj):
            return adj


def minimal_triangle_free(rng: random.Random, n: int, tries: int = 20) -> Adj:
    """A greedy edge-minimal graph without triangles, or a maximal
    triangle-free one when greedy deletion keeps hitting triangles."""
    for _ in range(tries):
        adj = greedy_minimal(rng, dense_2sc(rng, n))
        if triangle_free(adj):
            return adj
    return maximal_triangle_free(rng, n)


@dataclass(frozen=True)
class Request:
    kind: str          # "check", "decompose_build" or "reduce"
    source: str        # how the input was generated
    graph6: str
    expect: dict       # the oracle's answers, computed before timing


SOURCES = {
    "dense": lambda rng, n: gnp(rng, n, 0.5),
    "sparse": lambda rng, n: gnp(rng, n, 0.15),
    "minimal": lambda rng, n: greedy_minimal(rng, dense_2sc(rng, n)),
    "maximal_triangle_free": maximal_triangle_free,
    "minimal_triangle_free": minimal_triangle_free,
    "minimal_with_triangles": minimal_with_triangles,
}
CHECK_SOURCES = ("dense", "sparse", "minimal", "maximal_triangle_free")
KINDS = ("check", "check", "decompose_build", "reduce")  # 50 / 25 / 25 %
N_RANGE = range(9, 25)


def _expect(kind: str, adj: Adj) -> dict:
    """What the checks of `kind` compare against; decompose_build needs
    nothing, since its rebuilt graph is compared with the input itself."""
    if kind == "decompose_build":
        return {}
    out = {"is_2sc": is_2sc(adj), "minimal": edge_minimal(adj)}
    if kind == "check" and out["is_2sc"]:
        out["maximal"] = edge_maximal(adj)
        out["triples"] = sorted(critical_triples(adj))
    return out


def make_requests(seed: int, blocks: int) -> list[Request]:
    """A seeded request stream: each block holds, for every n in 9..24,
    two `check`, one `decompose_build` and one `reduce` request, in a
    shuffled order.  `check` inputs cycle through dense G(n, 1/2), sparse
    G(n, 0.15), greedy edge-minimal and maximal triangle-free graphs."""
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        block = []
        for n in N_RANGE:
            for i, kind in enumerate(KINDS):
                if kind == "check":
                    source = CHECK_SOURCES[(2 * b + i + n) % len(CHECK_SOURCES)]
                elif kind == "decompose_build":
                    source = "minimal_triangle_free" if (b + n) % 2 else "maximal_triangle_free"
                else:
                    source = "minimal_with_triangles"
                adj = SOURCES[source](rng, n)
                block.append(Request(kind, source, g6_encode(adj), _expect(kind, adj)))
        rng.shuffle(block)
        out.extend(block)
    return out
