import hashlib
import random

import hypothesis.strategies as st

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
        "2467318551962821f1d6a7afa541e161dd3365439d28c52fd3980b11a84d8952",
        "ee35d3825927fbcec29adfa277a48b746e0663c84037708b4fd910fe3b375bbf",
    ),
    6: (
        "6c290794eff80e0520fab0e4bb766a2adc4b3b8fb7f980c731de7aeb697ddc46",
        "e10583503a9f6118e183b140e31a75b62b0c409a080fb824b84ac12e4570b052",
    ),
    7: (
        "894747318ad4d23286a04a0b23120b6561df7be81eb8ce98418a5d790068581c",
        "b840c3ae757aab6ee7dcc6acc05e27cace11b2865cd04ef60d15ee4f05f61359",
    ),
    8: (
        "bfdb5638bcee72a892bee8452aacd218d94c69e123df79448f2a5ca098d5aaa5",
        "f49f82e1719a7387955e2df398e20a4c172b2aab60d7ae6a92c9e6c045947bda",
    ),
}


def graph6_digest(gs) -> str:
    """sha256 hex digest of the graph6 records of gs, newline-terminated."""
    return hashlib.sha256("".join(graph6_encode(g) + "\n" for g in gs).encode()).hexdigest()


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    """Arbitrary labeled simple graphs, uniform over the edge bitmask."""
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    packed = draw(st.integers(0, (1 << nbits) - 1)) if nbits else 0
    adj = [0] * n
    pos = 0
    for u in range(n):
        for v in range(u + 1, n):
            if packed >> pos & 1:
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
    it is a star, which is redrawn.  Random edge deletions that keep the
    property then reach graphs that are not maximal triangle-free.
    """
    n = draw(st.integers(max(min_n, 4), max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.sampled_from((0.0, 0.3, 0.7)))
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
    rng.shuffle(pairs)
    for u, v in pairs:
        if adj[u] >> v & 1 and rng.random() < q:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if not conditions_ok(adj, n):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
    return Graph(tuple(adj))
