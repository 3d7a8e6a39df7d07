"""The cached 2-self-centered flag on Graph values, and the guards that read it."""

import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings

import twosc.core
from twosc.core import Graph, common_neighbours, conditions_ok
from twosc.enumeration import graph_classes
from twosc.gcb import decompose_triangle_free
from twosc.graphs import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph
from twosc.recognition import (
    NotTwoSelfCenteredError,
    critical_triples,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    is_edge_maximal,
    is_edge_minimal,
)
from twosc.reduction import reduce_to_triangle_free

from conftest import graphs

GUARDS = (
    is_edge_minimal,
    is_edge_maximal,
    edge_maximal_by_definition,
    greedy_edge_minimal,
    greedy_edge_maximal,
    critical_triples,
    reduce_to_triangle_free,
    decompose_triangle_free,
)


def not_two_sc():
    """Inputs that fail the test in different ways, triangle-free or not."""
    disconnected = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    return [Graph(()), Graph((0,)), path_graph(4), star_graph(4), complete_graph(5), cycle_graph(6), disconnected]


def test_flag_matches_the_local_test_on_every_class_up_to_seven():
    for n in range(1, 8):
        for g in graph_classes(n):
            assert g.two_sc == conditions_ok(g.adj, n), g
    assert Graph(()).two_sc is False


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=0, max_n=12))
def test_flag_matches_the_local_test_on_random_graphs(g):
    assert g.two_sc == conditions_ok(g.adj, g.n)


def test_flag_is_not_part_of_equality_or_hash():
    read, unread = cycle_graph(5), cycle_graph(5)
    assert read.two_sc
    assert "two_sc" in vars(read) and "two_sc" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)
    assert vars(unread) == {"adj": read.adj}
    assert repr(read) == repr(unread)


def test_flag_survives_a_pickle_round_trip():
    for g in (petersen_graph(), path_graph(4)):
        flag, kernel = g.two_sc, g.common
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and vars(copy)["two_sc"] is flag and vars(copy)["common"] == kernel
    unread = pickle.loads(pickle.dumps(cycle_graph(4)))
    assert "two_sc" not in vars(unread) and unread.two_sc


def test_unpickling_restores_memos_without_validating(monkeypatch):
    g = petersen_graph()
    flag, kernel = g.two_sc, g.common
    data = pickle.dumps(g)

    def refuse(self, adj):
        raise AssertionError("unpickling validated again")

    monkeypatch.setattr(Graph, "__init__", refuse)
    copy = pickle.loads(data)
    assert vars(copy) == {"adj": g.adj, "two_sc": flag, "common": kernel}
    assert copy == g and hash(copy) == hash(g)


MEMO_WRITES = """
import tracemalloc
from twosc.core import _decoded, _remember
from twosc.graphs import petersen_graph

# a class adds an attribute name to its instances' shared keys only
# while it has made few instances, so the memo names are written first
first = petersen_graph()
kernel = first.common
count = 10_000
small = [_decoded((0,)) for _ in range(count)]  # two_sc is False: no kernel to allocate
remembered = [_decoded(first.adj) for _ in range(count)]
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for g in small:
    g.two_sc
for g in remembered:
    _remember(g, two_sc=True, common=kernel)
grown = tracemalloc.get_traced_memory()[0] - before
tracemalloc.stop()
assert all(vars(g) == {"adj": (0,), "two_sc": False} for g in small)
assert all(g.two_sc and g.common is kernel for g in remembered)
print(grown / count)
"""


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's compact instance storage")
def test_memo_writes_keep_compact_storage():
    # writing a memo into vars(g) would turn each value's compact
    # attribute storage into a full dict, about 64 bytes a graph on 3.11;
    # a fresh interpreter, since the shared keys depend on what ran before
    run = subprocess.run([sys.executable, "-c", MEMO_WRITES], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 16


def test_one_local_test_per_value(monkeypatch):
    calls, kernels = [], []

    def counting(adj, n, kernel=None):
        calls.append(adj)
        return conditions_ok(adj, n, kernel)

    def counting_kernel(adj):
        kernels.append(adj)
        return common_neighbours(adj)

    monkeypatch.setattr(twosc.core, "conditions_ok", counting)
    monkeypatch.setattr(twosc.core, "common_neighbours", counting_kernel)
    g = petersen_graph()
    for guard in GUARDS:
        guard(g)
    is_edge_minimal(greedy_edge_minimal(g))
    assert calls == [g.adj, g.adj]  # g, then the builder's new value
    assert sum(adj is g.adj for adj in kernels) == 1  # every guard reads g's one kernel


@pytest.mark.parametrize("guard", GUARDS, ids=lambda f: f.__name__)
def test_every_guard_rejects_non_two_sc_input(guard):
    for g in not_two_sc():
        with pytest.raises(NotTwoSelfCenteredError):
            guard(g)


def test_guards_raise_under_optimize_flag():
    code = "".join(f"from {f.__module__} import {f.__name__}\n" for f in GUARDS) + (
        "from twosc.graphs import path_graph\n"
        "from twosc.recognition import NotTwoSelfCenteredError\n"
        "assert False, 'asserts must be stripped'\n"
        "raised = 0\n"
        f"for guard in ({', '.join(f.__name__ for f in GUARDS)}):\n"
        "    try:\n"
        "        guard(path_graph(4))\n"
        "    except NotTwoSelfCenteredError:\n"
        "        raised += 1\n"
        f"raise SystemExit(0 if raised == {len(GUARDS)} else 1)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
