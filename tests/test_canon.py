import itertools
import random
from typing import Sequence

import networkx as nx
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from twosc.canon import (
    _cells,
    _decode,
    _maximal_code,
    _maximum_cliques,
    _ranks,
    _twins_before,
    are_isomorphic,
    canonical_graph,
    canonical_masks,
    partition_code,
)
from twosc.core import Graph, GraphError, LoopError, VertexLimitError, complement
from twosc.enumeration import graph_classes
from twosc.graphs import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph
from twosc.io import graph6_decode, graph6_encode

from conftest import graphs


def _rank_cells(adj: Sequence[int]) -> list[list[int]]:
    """The vertices grouped by (degree, neighbour-degree sum), in descending rank."""
    n = len(adj)
    deg = [bin(m).count("1") for m in adj]
    rank = [(deg[v], sum(deg[u] for u in range(n) if adj[v] >> u & 1)) for v in range(n)]
    return [[v for v in range(n) if rank[v] == r] for r in sorted(set(rank), reverse=True)]


def _admissible_orders(adj: Sequence[int]):
    """Each order that places the rank cells one after another, with its
    column-major code as a list of per-level values."""
    n = len(adj)
    for parts in itertools.product(*(itertools.permutations(c) for c in _rank_cells(adj))):
        perm = sum(parts, ())
        code = []
        for k in range(1, n):
            value = 0
            for i in range(k):
                value = value << 1 | (adj[perm[k]] >> perm[i] & 1)
            code.append(value)
        yield perm, code


def brute_force_canonical(adj):
    """Maximal column-major code over the admissible orders, by enumeration.

    Returns the masks relabelled by an order attaining the code.
    """
    perm, _ = max(_admissible_orders(adj), key=lambda order: order[1])
    return Graph(adj).relabel(perm).adj


def brute_force_last(adj) -> tuple[int, int, int]:
    """Three vertex bitmasks, by enumeration: the vertices last in some
    optimal admissible order, those last in some optimal order that
    places each vertex after its smaller twins, and those with a larger
    twin.  Twins u and v have N(u) - v = N(v) - u."""
    n = len(adj)
    orders = list(_admissible_orders(adj))
    best = max(code for _, code in orders)
    twins = [(u, v) for v in range(n) for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)]
    last = ascending = 0
    for perm, code in orders:
        if code == best:
            last |= 1 << perm[-1]
            if all(perm.index(u) < perm.index(v) for u, v in twins):
                ascending |= 1 << perm[-1]
    return last, ascending, sum({1 << u for u, _ in twins})


def _disjoint_union(*parts: Graph) -> Graph:
    adj: list[int] = []
    for g in parts:
        adj += [m << len(adj) for m in g.adj]
    return Graph(tuple(adj))


def _complete_multipartite(*sizes: int) -> Graph:
    return complement(_disjoint_union(*(complete_graph(s) for s in sizes)))


def _hypercube(d: int) -> Graph:
    return Graph(tuple(sum(1 << (v ^ 1 << i) for i in range(d)) for v in range(1 << d)))


# The reference for the packed search: the same admissible orders, one
# tuple slot per vertex in place of packed lanes, and none of the clique
# seed, lazy cells or twin rule.
def _canonical_order_wide(adj: Sequence[int], n: int) -> tuple[int, ...]:
    """An order attaining the maximal code, one tuple slot per vertex."""
    rng = range(n)
    allowed = [c for c in _rank_cells(adj) for _ in c]
    states: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], int, tuple[int, ...]]] = {}
    for v in allowed[0]:
        pats = tuple(-1 if u == v else adj[u] >> v & 1 for u in rng)
        states.setdefault((1 << v, pats), ((v,), 1 << v, pats))
    pool = list(states.values())
    for level in range(1, n):
        best = -1
        grown: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
        for order, mask, pats in pool:
            for v in allowed[level]:
                p = pats[v]
                if p < 0 or p < best:  # placed slots carry -1
                    continue
                if p > best:
                    best = p
                    grown = []
                grown.append((order + (v,), mask | 1 << v, pats))
        states = {}
        for order, mask, pats in grown:
            v = order[-1]
            av = adj[v]
            new_pats = tuple(
                -1 if (mask >> u & 1) else pats[u] << 1 | (av >> u & 1) for u in rng
            )
            states.setdefault((mask, new_pats), (order, mask, new_pats))
        pool = list(states.values())
    return pool[0][0]


def reference_maximum_cliques(adj: Sequence[int], within: int) -> list[int]:
    """The branch and bound that the colouring bound replaced: members in ascending order, pruned by count."""
    found: list[int] = []
    size = 0

    def grow(clique: int, k: int, cand: int) -> None:
        nonlocal found, size
        while cand:
            low = cand & -cand
            cand ^= low
            sub = cand & adj[low.bit_length() - 1]
            if not sub:
                if k + 1 > size:
                    size, found = k + 1, [clique | low]
                elif k + 1 == size:
                    found.append(clique | low)
            elif k + 1 + sub.bit_count() >= size:
                grow(clique | low, k + 1, sub)
            if k + cand.bit_count() < size:
                return

    grow(0, 0, within)
    return found


def test_maximum_cliques_match_reference():
    rng = random.Random(2003)
    for _ in range(2000):
        n = rng.randint(1, 16)
        p = rng.random()
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        within = rng.getrandbits(n) or 1 << rng.randrange(n)
        cliques = _maximum_cliques(g.adj, within)
        assert len(set(cliques)) == len(cliques)
        assert sorted(cliques) == sorted(reference_maximum_cliques(g.adj, within))


def _minus_edge(g: Graph, u: int, v: int) -> Graph:
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(tuple(adj))


def _hub_on_clique_and_leaves(k: int, leaves: int) -> Graph:
    """Vertex 0 joined to every vertex of a K_k and to ``leaves`` leaves."""
    edges = [(0, v) for v in range(1, k + leaves + 1)]
    edges += list(itertools.combinations(range(1, k + 1), 2))
    return Graph.from_edges(k + leaves + 1, edges)


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    order = list(range(g.n))
    rng.shuffle(order)
    return g.relabel(order)


def test_matches_brute_force_exhaustively():
    rng = random.Random(5)
    for n in range(1, 7):
        for g in graph_classes(n):
            h = _shuffled(g, rng)
            assert canonical_masks(h.adj) == brute_force_canonical(h.adj)


def test_last_vertices_match_brute_force():
    # the search's S is the set of vertices last in an optimal order with
    # twins ascending, and that set is the orbit of the last vertex less
    # the vertices with a larger twin; every class with n <= 6 comes from
    # the atlas shipped with networkx, so a generator that loses a class
    # to a wrong S cannot hide it here
    rng = random.Random(27)
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if 1 <= n <= 6:
            g = Graph.from_edges(n, list(a.edges()))
            for h in (g, *(_shuffled(g, rng) for _ in range(3))):
                adj = h.adj
                _, last = _maximal_code(adj, n, _cells(_ranks(adj, n)), _twins_before(adj))
                orbit, ascending, larger = brute_force_last(adj)
                assert last == ascending == orbit & ~larger, graph6_encode(h)


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_invariant_under_relabeling(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    assert canonical_masks(g.relabel(order).adj) == canonical_masks(g.adj)


def test_partition_code_is_a_complete_invariant_exhaustively():
    # over every labelled graph with n <= 5: equal codes iff isomorphic
    canon_of_code: dict[int, tuple[int, ...]] = {}
    code_of_canon: dict[tuple[int, ...], int] = {}
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for packed in range(1 << len(pairs)):
            adj = [0] * n
            for i, (u, v) in enumerate(pairs):
                if packed >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            code, canon = partition_code(adj), canonical_masks(adj)
            assert canon_of_code.setdefault(code, canon) == canon
            assert code_of_canon.setdefault(canon, code) == code
    assert len(canon_of_code) == sum(len(graph_classes(n)) for n in range(1, 6))


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_partition_code_invariant_under_relabeling(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    assert partition_code(g.relabel(order).adj) == partition_code(g.adj)


def test_matches_wide_reference_on_every_small_class():
    rng = random.Random(6)
    for n in range(1, 8):
        for g in graph_classes(n):
            h = _shuffled(g, rng)
            assert canonical_masks(h.adj) == h.relabel(_canonical_order_wide(h.adj, n)).adj


# The examples from K(3,3,3,3) on have many maximum cliques or split
# their cells often.
@given(graphs(min_n=9, max_n=11), st.randoms(use_true_random=False))
@example(graph6_decode("G}aHOs"), random.Random(0))  # lanes of 8 bits
@example(graph6_decode("IEDkGFhKO"), random.Random(0))  # lanes of n = 9 bits
@example(petersen_graph(), random.Random(0))
@example(complete_bipartite(5, 5), random.Random(0))
@example(complete_bipartite(6, 6), random.Random(0))
@example(cycle_graph(12), random.Random(0))
@example(Graph((0,) * 12), random.Random(0))
@example(complete_graph(12), random.Random(0))
@example(_complete_multipartite(3, 3, 3, 3), random.Random(0))
@example(_complete_multipartite(3, 3, 3, 3, 3), random.Random(0))
@example(_complete_multipartite(4, 4, 4, 4), random.Random(0))
@example(_disjoint_union(*[complete_graph(4)] * 4), random.Random(0))
@example(_disjoint_union(*[complete_graph(5)] * 3), random.Random(0))
@example(_hypercube(4), random.Random(0))
@settings(max_examples=40, deadline=None)
def test_matches_wide_reference_under_relabeling(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    h = g.relabel(order)
    assert canonical_masks(h.adj) == canonical_masks(g.adj) == h.relabel(_canonical_order_wide(h.adj, h.n)).adj


# Graphs on which the cell restriction alone takes up to 0.3 s: the
# first cell is a clique (K16 - e), or cells hold many twins (the rest).
# The clique seed on the first cell and the twin rule keep each to about
# a millisecond.  The wide reference has neither rule, so it runs once
# per graph, on the relabelled copy.
@pytest.mark.parametrize("g", [
    pytest.param(_minus_edge(complete_graph(16), 3, 11), id="K16-e"),
    pytest.param(complete_bipartite(1, 15), id="K1,15"),
    pytest.param(complete_bipartite(2, 10), id="K2,10"),
    pytest.param(complement(cycle_graph(12)), id="co-C12"),
    pytest.param(_hub_on_clique_and_leaves(12, 6), id="hub-K12-6-leaves"),
])
def test_exact_rules_match_wide_reference(g):
    h = _shuffled(g, random.Random(8))
    assert canonical_masks(h.adj) == canonical_masks(g.adj) == h.relabel(_canonical_order_wide(h.adj, h.n)).adj


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=9, max_n=12))
def test_partition_code_decodes_to_the_canonical_form_above_eight(g):
    # the decoded graph is in g's class; test_enumeration checks this
    # for every class only up to n = 8
    code = partition_code(g.adj)
    assert partition_code(next(_decode([code], g.n))) == code


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
def test_partition_code_at_every_lane_width(n):
    # the search runs in lanes of 8, 16, 32 or 64 bits: both ends of
    # each, on seeded random graphs, on a cycle, whose one cell makes
    # the search seed edges and split lazy cells, and on its complement,
    # whose one cell has exponentially many maximal cliques
    rng = random.Random(n)
    pairs = list(itertools.combinations(range(n), 2))
    randoms = [Graph.from_edges(n, [e for e in pairs if rng.random() < p]) for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
    for g in randoms + [cycle_graph(n), complement(cycle_graph(n))]:
        code = partition_code(g.adj)
        assert partition_code(_shuffled(g, rng).adj) == code
        assert partition_code(next(_decode([code], n))) == code


def reference_decode(code: int, n: int) -> list[int]:
    """The per-bit decoder the packed kernel replaced."""
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


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=14), st.randoms(use_true_random=False))
def test_decode_matches_reference(g, rng):
    n = g.n
    nbits = n * (n - 1) // 2
    codes = [partition_code(g.adj), 1 << nbits | rng.getrandbits(nbits), 1 << nbits]
    assert list(_decode(codes, n)) == [tuple(reference_decode(code, n)) for code in codes]


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=14))
def test_graph6_body_is_the_code_below_its_leading_one(g):
    # one decoder reads both: the body of the canonical form's record is
    # partition_code without its leading 1, zero-padded to whole characters
    n = g.n
    nbits = n * (n - 1) // 2
    code = partition_code(g.adj)
    assert code >> nbits == 1
    pad = -nbits % 6
    stream = (code ^ 1 << nbits) << pad
    body = "".join(chr((stream >> s & 63) + 63) for s in range(nbits + pad - 6, -1, -6))
    record = graph6_encode(canonical_graph(g))
    assert record == chr(n + 63) + body
    assert graph6_decode(record).adj == next(_decode([code], n))


@pytest.mark.parametrize("n", [0])
def test_partition_code_rejects_sizes_outside_its_range(n):
    with pytest.raises(GraphError, match="1 or more"):
        partition_code([0] * n)


@pytest.mark.parametrize("adj, error, match", [
    pytest.param([0] * 65, VertexLimitError, "65 vertices", id="65-vertices"),
    pytest.param([1, 0], LoopError, "self-loop at vertex 0", id="loop"),
    pytest.param([2, 0], GraphError, "not symmetric", id="one-sided"),
    pytest.param([4, 0], GraphError, "outside", id="out-of-range"),
    pytest.param([-1, 0], GraphError, "outside", id="negative"),
])
def test_raw_masks_raise_typed_errors(adj, error, match):
    for entry in (partition_code, canonical_masks):
        with pytest.raises(error, match=match):
            entry(adj)


def test_canonical_is_idempotent():
    for g in (cycle_graph(5), petersen_graph(), complete_bipartite(2, 3)):
        c = canonical_graph(g)
        assert canonical_graph(c) == c


def test_distinguishes_non_isomorphic():
    assert not are_isomorphic(cycle_graph(6), complete_bipartite(3, 3))
    assert not are_isomorphic(cycle_graph(5), path_graph(5))
    # same degree sequence, different trees: a leaf hung mid-spine vs off-center
    mid = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    off = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    assert sorted(mid.degree(v) for v in mid.vertices()) == sorted(
        off.degree(v) for v in off.vertices()
    )
    assert not are_isomorphic(mid, off)


def test_recognizes_isomorphic_relabelings():
    rng = random.Random(7)
    pet = petersen_graph()
    for _ in range(10):
        order = list(range(10))
        rng.shuffle(order)
        assert are_isomorphic(pet, pet.relabel(order))


def test_empty_graph():
    assert canonical_masks(()) == ()
    assert are_isomorphic(Graph(()), Graph(()))
    assert not are_isomorphic(Graph(()), Graph((0,)))
