import hashlib
import pickle
import random

import hypothesis.strategies as st
import pytest

from twosc.core import Graph
from twosc.io import graph6_encode
from twosc.recognition import conditions_ok

# sha256 of the generator's graph6 output, one record per line, per n:
# (graph_classes(n), connected_classes(n)).  Any change to the set of
# representatives, their canonical form or their order changes these.
GENERATOR_DIGESTS = {
    1: (
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    ),
    2: (
        "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
        "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    ),
    3: (
        "a1680d75ef87e824903a43a0f5a4c37577b6945842554674563d48ca3cc90e3d",
        "e53a5e15924c562ea91b2e31166da62399d58c4af1027d8ef1aa54ab3235fac4",
    ),
    4: (
        "a17aa095e1748dba343b9bc32cf1bf6948f9b353e73de65e0c52a215ad03dc18",
        "a3f23687e58549a8aeb6d03458ee276ccc4715a49d47bdfbbce921946458c940",
    ),
    5: (
        "756d68d1722ba2e5c514353cb832ebf7662faf6db01598f93cab4e30b7e355d5",
        "f19190d30aa428563c740c1ed40d3c5217e88a8ec6986530fd0e1efd3edc1643",
    ),
    6: (
        "86b0a06a839165d1727f0af469cf9b5104d6a27575386202d9631362b3594d8c",
        "6e16a4ed7d55bb7f72c96485fa9114f03e12b974fd817bd84446456616f0ae75",
    ),
    7: (
        "9baa5c623818d0dde219ad360d09aca43691cb36d9416826831f289b8079e176",
        "ef831e4ac3bd2a7160290b7142f0d495483fe2d4986de18d3e7503cfb7100ee9",
    ),
    8: (
        "4c38855532ec1da7e82262c1a73d929ee4c734b1c6e43fac94d3477ed5c364d6",
        "8c49e600cf2e9748adec851d606fa666e5fd302cb65419c6fb55d3b5d5d36bf8",
    ),
}


def assert_immutable_value(make, field: str) -> None:
    """Values from ``make()`` are equal with equal hashes, refuse assignment and deletion, and survive pickling."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    for name in (field, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a == b and hash(copy) == hash(b)


def graph6_digest(gs) -> str:
    """sha256 hex digest of the graph6 records of gs, newline-terminated."""
    return hashlib.sha256("".join(graph6_encode(g) + "\n" for g in gs).encode()).hexdigest()


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    """Arbitrary labeled simple graphs: an edge density, then one byte per pair.

    Pair k is an edge iff its byte is below the density, out of 256, so
    sparse, dense, empty and complete graphs all appear; the density
    shrinks toward 1/2.  One integer over the whole edge mask shrank
    toward 0: at max_n = 16 about 2 % of the draws were 2-self-centered,
    against about 12 % here.
    """
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    density = draw(st.sampled_from((128, 160, 192, 224, 96, 64, 32, 256, 0)))
    coins = draw(st.binary(min_size=nbits, max_size=nbits))
    adj = [0] * n
    pos = 0
    for u in range(n):
        for v in range(u + 1, n):
            if coins[pos] < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return Graph(tuple(adj))


@st.composite
def disjoint_unions(draw, max_n: int = 16):
    """Disjoint unions of at least two small arbitrary graphs, at most max_n vertices."""
    parts = draw(st.lists(graphs(min_n=1, max_n=4), min_size=2, max_size=max_n // 2))
    adj: list[int] = []
    for part in parts:
        if len(adj) + part.n > max_n:
            break
        shift = len(adj)
        adj.extend(m << shift for m in part.adj)
    return Graph(tuple(adj))


@st.composite
def two_sc_graphs(draw, min_n: int = 4, max_n: int = 14):
    """Labeled 2-self-centered graphs: G(n, p) redrawn from a seed until 2sc."""
    n = draw(st.integers(max(min_n, 4), max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.35, 0.5, 0.65)))
    while True:
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        if conditions_ok(adj, n):
            return Graph(tuple(adj))


@st.composite
def triangle_free_two_sc_graphs(draw, min_n: int = 4, max_n: int = 14):
    """Labeled triangle-free 2-self-centered graphs.

    Adding the pairs in a random order, each unless it closes a triangle,
    gives a maximal triangle-free graph.  Two non-adjacent vertices of
    such a graph have a common neighbor, so it is 2-self-centered unless
    it is a star, which is redrawn.  Every triangle-free 2SC graph is
    maximal triangle-free, so some order of the pairs draws it; deleting
    any of its edges breaks the property, as the ends have no common
    neighbour.
    """
    n = draw(st.integers(max(min_n, 4), max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if conditions_ok(adj, n):
            break
    return Graph(tuple(adj))
