import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twosc.canon import (
    are_isomorphic,
    canonical_graph,
    canonical_masks,
    canonical_order,
    partition_code,
)
from twosc.core import Graph
from twosc.enumeration import graph_classes
from twosc.graphs import complete_bipartite, cycle_graph, path_graph, petersen_graph

from conftest import graphs


def brute_force_canonical(adj):
    """Maximal column-major code over all vertex orders, by enumeration."""
    n = len(adj)
    best_code = None
    best_perm = tuple(range(n))
    for perm in itertools.permutations(range(n)):
        code = []
        for k in range(1, n):
            value = 0
            for i in range(k):
                value = value << 1 | (adj[perm[k]] >> perm[i] & 1)
            code.append(value)
        if best_code is None or code > best_code:
            best_code = code
            best_perm = perm
    return Graph(adj).relabel(best_perm).adj


def test_matches_brute_force_exhaustively():
    for n in range(1, 6):
        for g in graph_classes(n):
            assert canonical_masks(g.adj) == brute_force_canonical(g.adj)


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


@given(graphs(min_n=9, max_n=11), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_wide_path_invariant_under_relabeling(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    assert canonical_masks(g.relabel(order).adj) == canonical_masks(g.adj)


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


def test_order_is_permutation():
    for g in (cycle_graph(4), petersen_graph()):
        assert sorted(canonical_order(g.adj)) == list(range(g.n))
