import pytest

from twosc.canon import canonical_masks
from twosc.core import Graph
from twosc.enumeration import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    RangeError,
    connected_classes,
    enumerate_connected,
    graph_classes,
)
from twosc.graphs import complete_graph, cycle_graph, path_graph, capped_k33
from twosc.io import write_graph6, ingest_graph6, graph6_encode

from conftest import GENERATOR_DIGESTS, graph6_digest


def test_counts_up_to_seven():
    for n in range(1, 8):
        assert len(graph_classes(n)) == ALL_GRAPH_COUNTS[n - 1]
        assert len(connected_classes(n)) == CONNECTED_GRAPH_COUNTS[n - 1]


def test_output_is_pinned_byte_for_byte_up_to_seven():
    for n in range(1, 8):
        got = (graph6_digest(graph_classes(n)), graph6_digest(connected_classes(n)))
        assert got == GENERATOR_DIGESTS[n], n


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
