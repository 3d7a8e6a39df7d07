import hashlib
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings

import twosc
from twosc.canon import canonical_masks, partition_code
from twosc.core import Graph
from twosc.enumeration import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    RangeError,
    _decode,
    _level,
    connected_classes,
    enumerate_connected,
    graph_classes,
)
from twosc.graphs import complete_graph, cycle_graph, path_graph, capped_k33
from twosc.io import write_graph6, ingest_graph6, graph6_encode

from conftest import GENERATOR_DIGESTS, graph6_digest, graphs


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


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_partition_code_decodes_to_its_graph(g):
    code = partition_code(g.adj)
    decoded = _decode(code, g.n)
    assert partition_code(decoded) == code
    assert canonical_masks(decoded) == canonical_masks(g.adj)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(twosc.__file__)))

# Share helpers the child processes can import under any start method.
SHARES_MODULE = """
import os


def fail_after_first(n, items):
    if items != [0]:
        raise ValueError(f"share of {items} fails")
    return items


def die_after_first(n, items):
    if items != [0]:
        os._exit(3)
    return items
"""


def run_python(tmp_path, body: str) -> str:
    """Run body in a fresh interpreter that sees twosc and the share helpers."""
    (tmp_path / "shares.py").write_text(SHARES_MODULE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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
    run_python(tmp_path, """
        import sys
        import twosc
        assert "multiprocessing" not in sys.modules
    """)


def test_three_vertex_classes_by_hand():
    got = {g.adj for g in enumerate_connected(3)}
    want = {canonical_masks(path_graph(3).adj), canonical_masks(complete_graph(3).adj)}
    assert got == want


def test_representatives_are_canonical_and_distinct():
    reps = connected_classes(5)
    assert len({g.adj for g in reps}) == len(reps)
    for g in reps:
        assert canonical_masks(g.adj) == g.adj


def test_range_errors():
    with pytest.raises(RangeError):
        list(enumerate_connected(0))
    with pytest.raises(RangeError):
        list(enumerate_connected(9))


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
