import hashlib
import random

import pytest
from hypothesis import given, settings

import twosc.enumeration
from twosc.canon import _BITS, _decode, canonical_masks, partition_code
from twosc.core import Graph
from twosc.enumeration import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    GENERATOR_MAX,
    RangeError,
    _candidates,
    _codes,
    _level,
    _masks,
    connected_classes,
    enumerate_connected,
    graph_classes,
)
from twosc.graphs import complete_graph, cycle_graph, path_graph, capped_k33
from twosc.io import write_graph6, ingest_graph6, graph6_encode

from conftest import GENERATOR_DIGESTS, graph6_digest, graphs, run_python


def test_counts_up_to_seven():
    for n in range(1, 8):
        assert len(graph_classes(n)) == ALL_GRAPH_COUNTS[n - 1]
        assert len(connected_classes(n)) == CONNECTED_GRAPH_COUNTS[n - 1]


def test_output_is_pinned_byte_for_byte_up_to_seven():
    for n in range(1, 8):
        got = (graph6_digest(graph_classes(n)), graph6_digest(connected_classes(n)))
        assert got == GENERATOR_DIGESTS[n], n


@pytest.mark.parametrize("shares", [1, 2])
def test_split_level_is_pinned_up_to_seven(shares):
    for n in range(2, 8):
        parents = [g.adj for g in graph_classes(n - 1)]
        assert graph6_digest(_level(parents, n, shares)) == GENERATOR_DIGESTS[n][0], n


def assert_slices_are_disjoint(n: int, parents, count: int) -> None:
    """The two shares' slices of the parents emit each class once, and
    no class from both: a class comes out only from its canonical parent."""
    emitted = [list(_codes(n, parents[i::2])) for i in (0, 1)]
    codes = [set(run) for run in emitted]
    assert [len(c) for c in codes] == [len(run) for run in emitted], n
    assert not codes[0] & codes[1], n
    assert len(codes[0] | codes[1]) == count, n


def test_split_level_equals_one_share_up_to_eight():
    for n in range(2, 9):
        parents = [g.adj for g in graph_classes(n - 1)]
        assert_slices_are_disjoint(n, parents, ALL_GRAPH_COUNTS[n - 1])
        one = _level(parents, n, 1)
        assert _level(parents, n, 2) == one, n
        assert len({g.adj for g in one}) == len(one) == ALL_GRAPH_COUNTS[n - 1], n


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_partition_code_decodes_to_its_graph(g):
    code = partition_code(g.adj)
    decoded = _decode(code, g.n)
    assert partition_code(decoded) == code
    assert canonical_masks(decoded) == canonical_masks(g.adj)


def unpruned_codes(n: int, parents) -> tuple[set[int], int]:
    """``partition_code`` of every candidate whose new vertex has minimum
    degree, and how many there are: the generator without its pruning."""
    codes = set()
    count = 0
    for base in parents:
        for mask in range(1 << (n - 1)):
            adj = [m | (mask >> v & 1) << (n - 1) for v, m in enumerate(base)] + [mask]
            if mask.bit_count() == min(m.bit_count() for m in adj):
                codes.add(partition_code(adj))
                count += 1
    return codes, count


def test_pruned_codes_match_unpruned_reference():
    # the rules speak of the candidate, not of a labelling, so they keep
    # every class for relabelled parents too
    rng = random.Random(16)
    for n in range(2, 8):
        parents = [g.adj for g in graph_classes(n - 1)]
        want = sorted(unpruned_codes(n, parents)[0])
        assert sorted(_codes(n, parents)) == want, n
        for _ in range(3):
            relabelled = []
            for adj in parents:
                order = list(range(n - 1))
                rng.shuffle(order)
                relabelled.append(Graph(adj).relabel(order).adj)
            assert sorted(_codes(n, relabelled)) == want, n


@pytest.mark.parametrize("n, searched, unpruned", [(5, 37, 70), (6, 181, 348), (7, 1347, 2690)])
def test_searched_candidates_are_pinned(monkeypatch, n, searched, unpruned):
    parents = [g.adj for g in graph_classes(n - 1)]
    assert unpruned_codes(n, parents)[1] == unpruned
    calls = []
    search = twosc.enumeration._maximal_code

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(twosc.enumeration, "_maximal_code", counted)
    assert len(list(_codes(n, parents))) == ALL_GRAPH_COUNTS[n - 1]
    assert len(calls) == searched


# The generator's candidate data as it was computed before it was derived
# from the parent: the reference for the derived masks, cells and twins.
def ref_masks(n: int, base) -> list[int]:
    """The masks of ``base`` that pass the minimum-degree and twin-prefix rules."""
    low = min(m.bit_count() for m in base)
    lowest = sum(1 << v for v, m in enumerate(base) if m.bit_count() == low)
    twins = [(v, b) for v, b in enumerate(ref_twins_before(base)) if b]
    out = []
    for mask in range(1 << (n - 1)):
        d = mask.bit_count()
        if d > low + 1 or (d == low + 1 and lowest & ~mask):
            continue
        if any(mask >> v & 1 and b & ~mask for v, b in twins):
            continue
        out.append(mask)
    return out


def ref_cells(adj, n: int) -> list[int]:
    """The rank partition, per position its cell, from the candidate's own rows."""
    deg = [m.bit_count() for m in adj]
    shift = (n * n).bit_length()
    cells: dict[int, int] = {}
    for v, m in enumerate(adj):
        r = deg[v] << shift
        for u in _BITS[m]:
            r += deg[u]
        cells[r] = cells.get(r, 0) | 1 << v
    allowed: list[int] = []
    for r in sorted(cells, reverse=True):
        cell = cells[r]
        allowed += [cell] * cell.bit_count()
    return allowed


def ref_twins_before(adj) -> list[int]:
    """Per vertex, the bitmask of its twins with a smaller index."""
    before = []
    open_: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, m in enumerate(adj):
        o = open_.get(m, 0)
        c = closed.get(m | 1 << v, 0)
        before.append(o | c)
        open_[m] = o | 1 << v
        closed[m | 1 << v] = c | 1 << v
    return before


@pytest.mark.parametrize("n", range(2, 9))
def test_candidates_match_the_candidates_own_cells_and_twins(n):
    # every parent as listed and under 3 seeded relabellings: the derived
    # masks are the filter's, the rank test keeps exactly the candidates
    # whose new vertex is in the lowest-rank cell, and their cells and
    # twins are the ones read off the candidate's own rows
    rng = random.Random(22 + n)
    new = 1 << (n - 1)
    for adj in (g.adj for g in graph_classes(n - 1)):
        for _ in range(4):
            masks = ref_masks(n, adj)
            assert sorted(_masks([m.bit_count() for m in adj], ref_twins_before(adj))) == masks
            kept = []
            for mask in masks:
                child = [m | (mask >> v & 1) << (n - 1) for v, m in enumerate(adj)] + [mask]
                cells = ref_cells(child, n)
                if cells[-1] & new:
                    kept.append((child, n, cells, ref_twins_before(child)))
            assert sorted(_candidates(n, adj)) == sorted(kept), (adj, n)
            order = list(range(n - 1))
            rng.shuffle(order)
            adj = Graph(adj).relabel(order).adj


# graph6_digest of the n = 9 level, computed with every minimum-degree
# candidate searched
LEVEL_9_DIGEST = "6a4c92db50c2a4679a499b8371e4e1379c5d8737d5d5135408ba7fa0d52cbd3d"


@pytest.mark.slow
def test_nine_vertex_level():
    parents = [g.adj for g in graph_classes(8)]
    classes = _level(parents, 9, 2)
    assert len(classes) == 274668  # OEIS A000088
    assert graph6_digest(classes) == LEVEL_9_DIGEST
    del classes
    assert_slices_are_disjoint(9, parents, 274668)


def test_split_level_under_spawn(tmp_path):
    out = run_python(tmp_path, """
        import multiprocessing
        from twosc.enumeration import _level, graph_classes
        from twosc.io import graph6_encode

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            parents = [g.adj for g in graph_classes(5)]
            for g in _level(parents, 6, 2):
                print(graph6_encode(g))
    """)
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATOR_DIGESTS[6][0]


@pytest.mark.parametrize("helper, message", [
    ("fail_after_first", "ValueError: share of [1] fails"),
    ("die_after_first", "died with exit code 3"),
])
def test_failed_share_raises_in_caller(tmp_path, helper, message):
    out = run_python(tmp_path, f"""
        import os
        import shares
        from twosc.enumeration import _split

        if __name__ == "__main__":
            try:
                _split(shares.{helper}, 0, [0, 1], 2)
            except RuntimeError as err:
                print(err)
            else:
                raise SystemExit("no error raised")
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("all children reaped")
    """)
    assert message in out
    assert "all children reaped" in out


def test_import_starts_no_multiprocessing(tmp_path):
    # -S: no site hook imports any of these first.  dataclasses pulls in
    # inspect, ast, dis and tokenize, which every process, the battery's
    # and the generator's spawned shares included, would pay at start-up
    run_python(tmp_path, """
        import sys
        import twosc
        loaded = {"multiprocessing", "dataclasses", "inspect"} & set(sys.modules)
        assert not loaded, loaded
    """, "-S")


def test_three_vertex_classes_by_hand():
    got = {g.adj for g in enumerate_connected(3)}
    want = {canonical_masks(path_graph(3).adj), canonical_masks(complete_graph(3).adj)}
    assert got == want


def test_representatives_are_canonical_and_distinct():
    # the decoded codes are fixed points of the canonical form, sorted
    for n in range(1, 8):
        reps = [g.adj for g in graph_classes(n)]
        assert reps == sorted(set(reps))
        for adj in reps:
            assert canonical_masks(adj) == adj


def test_range_errors():
    with pytest.raises(RangeError):
        list(enumerate_connected(0))
    with pytest.raises(RangeError):
        list(enumerate_connected(GENERATOR_MAX + 1))


def test_ingest_matches_written_catalog(tmp_path):
    path = tmp_path / "catalog.g6"
    gs = [cycle_graph(4), capped_k33()]
    with open(path, "w") as handle:
        write_graph6(gs, handle)
    assert list(ingest_graph6(str(path))) == gs


def test_ingest_reports_bad_line(tmp_path):
    from twosc.io import FormatError

    path = tmp_path / "bad.g6"
    path.write_text(graph6_encode(cycle_graph(4)) + "\n" + "not graph6 at all\n")
    with pytest.raises(FormatError) as err:
        list(ingest_graph6(str(path)))
    assert err.value.line == 2
