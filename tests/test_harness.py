import hashlib
import json

import pytest

from twosc import gcb, harness
from twosc.core import Graph
from twosc.enumeration import RangeError, connected_classes
from twosc.harness import FULL_BATTERY_MAX, THEOREMS, BatteryResult, _run_chunk, render_table, verify_all
from twosc.io import write_graph6

# Class counts established by the exhaustive battery itself; the
# recognizer half is independently confirmed against shortest paths by
# the recognition_matches_metric report of the same run.
EXPECTED_COUNTING = {
    4: {"graphs": 6, "two_sc": 1, "edge_minimal": 1, "edge_maximal": 1, "triangle_free_two_sc": 1},
    5: {"graphs": 21, "two_sc": 4, "edge_minimal": 2, "edge_maximal": 1, "triangle_free_two_sc": 2},
    6: {"graphs": 112, "two_sc": 26, "edge_minimal": 4, "edge_maximal": 3, "triangle_free_two_sc": 3},
}


# sha256 of verify_all(7).to_json() with timings stripped, dumped with
# sorted keys.  Speed-ups of the battery must leave it unchanged.
BATTERY_7_DIGEST = "77f74dbfa439f699e854e643779875ce8851d7977790488fa5b7b5654ec91e56"

# The same digest for verify_all(8, full_battery_max=8), the full battery
# over every connected class with n <= 8, which the default range now
# runs.  No check fails there.
BATTERY_8_FULL_DIGEST = "5bc9bf084e1d5ee27b712c082278f7d8e5ae374bb3504ba0464887a3dfa4348d"


def strip_times(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("seconds", None)
    for rep in doc["reports"]:
        rep.pop("seconds", None)
    return doc


def test_battery_clean_up_to_six():
    result = verify_all(6)
    assert result.counterexample_total() == 0
    assert {rep.theorem for rep in result.reports} == set(THEOREMS)
    for rep in result.reports:
        assert rep.passes == rep.examined
        assert rep.passes + len(rep.counterexamples) == rep.examined
    for n, row in EXPECTED_COUNTING.items():
        assert result.counting[n] == row


def test_worker_counts_do_not_change_reports():
    serial = strip_times(verify_all(5).to_json())
    two = strip_times(verify_all(5, workers=2).to_json())
    three = strip_times(verify_all(5, workers=3).to_json())
    assert serial == two == three


def connected_up_to(n_max):
    return [g for n in range(1, n_max + 1) for g in connected_classes(n)]


def test_chunk_results_merge_associatively():
    graphs = connected_up_to(6)
    a, b, c = (_run_chunk(FULL_BATTERY_MAX, graphs[i::3]) for i in range(3))
    left = strip_times(a.merge(b).merge(c).to_json())
    right = strip_times(a.merge(b.merge(c)).to_json())
    assert left == right == strip_times(verify_all(6).to_json())
    assert strip_times(BatteryResult.empty().merge(a).to_json()) == strip_times(a.to_json())


def test_wrong_rebuild_is_recorded_not_raised(monkeypatch):
    # a defect in assemble shows wherever it is called
    def wrong(spec):
        return Graph(())

    monkeypatch.setattr(gcb, "assemble", wrong)
    monkeypatch.setattr(harness, "assemble", wrong)
    result = verify_all(6)
    rep = next(r for r in result.reports if r.theorem == "gcb_round_trip")
    assert rep.examined == 6 and rep.passes == 0  # triangle-free 2SC: 1, 2 and 3 at n = 4, 5, 6
    assert result.counterexample_total() == 6
    keys = [(c["n"], c["graph6"]) for c in rep.counterexamples]
    assert keys == sorted(keys)
    for c in rep.counterexamples:
        assert c["detail"]["rebuild_equal"] is False and c["detail"]["sbic"] is True
    # the records are sorted where parts merge, whatever order the stream had
    backwards = _run_chunk(FULL_BATTERY_MAX, connected_up_to(6)[::-1])
    assert strip_times(BatteryResult.empty().merge(backwards).to_json()) == strip_times(result.to_json())


def test_pool_never_exceeds_usable_cpus(monkeypatch):
    shares = []

    def recording_split(work, arg, items, count):
        """Stands in for enumeration._split: records the share count, works the shares in-process."""
        shares.append(count)
        if count == 1:
            assert not isinstance(items, list)  # one share streams the graphs
            return [work(arg, items)]
        items = list(items)
        return [work(arg, items[i::count]) for i in range(count)]

    monkeypatch.setattr(harness, "_split", recording_split)
    serial = strip_times(verify_all(5).to_json())
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    for workers in (2, 3, 5000):
        assert strip_times(verify_all(5, workers=workers).to_json()) == serial
    assert shares == [1, 2, 2, 2]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    for workers in (0, 5000):
        assert strip_times(verify_all(5, workers=workers).to_json()) == serial
    assert shares == [1, 2, 2, 2, 1, 1]


def test_repeat_runs_are_identical():
    first = strip_times(verify_all(5).to_json())
    second = strip_times(verify_all(5).to_json())
    assert first == second


def test_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    with open(path, "w") as handle:
        write_graph6(connected_classes(5), handle)
    from_file = verify_all(5, source="file", path=str(path))
    assert from_file.counterexample_total() == 0
    assert from_file.counting == {5: verify_all(5).counting[5]}


def test_render_table_mentions_everything():
    result = verify_all(5)
    text = render_table(result)
    for theorem in THEOREMS:
        assert theorem in text
    assert "two_sc" in text
    assert "checked below" not in text
    assert text.splitlines()[-1] == "total counterexamples: 0 over n = 1..5"


def battery_digest(result) -> str:
    return hashlib.sha256(json.dumps(strip_times(result.to_json()), sort_keys=True).encode()).hexdigest()


def test_battery_json_pinned_up_to_seven():
    assert battery_digest(verify_all(7)) == BATTERY_7_DIGEST


def test_full_battery_json_pinned_up_to_eight():
    assert battery_digest(verify_all(8, full_battery_max=8)) == BATTERY_8_FULL_DIGEST


def test_known_counterexample_from_a_file(tmp_path):
    # The greedy reduction order depends on the labels: on G}aHOs its
    # first step creates a triangle, on the isomorphic GthQ]? it
    # succeeds.  The reduction searches for an order, so both labellings
    # pass, as does the n = 9 graph H}iQYCM, which greedy also fails.
    path = tmp_path / "graphs.g6"
    path.write_text("G}aHOs\nGthQ]?\nH}iQYCM\n")
    result = verify_all(9, source="file", path=str(path), full_battery_max=9)
    rep = next(r for r in result.reports if r.theorem == "triangle_classification")
    assert (rep.examined, rep.passes) == (3, 3)
    assert result.counterexample_total() == 0


@pytest.mark.parametrize("n_max", [0, -1])
def test_empty_range_is_rejected(tmp_path, n_max):
    path = tmp_path / "graphs.g6"
    with open(path, "w") as handle:
        write_graph6(connected_classes(4), handle)
    with pytest.raises(RangeError):
        verify_all(n_max)
    with pytest.raises(RangeError):
        verify_all(n_max, source="file", path=str(path))


def test_render_table_names_what_it_skipped():
    lines = render_table(verify_all(6, full_battery_max=5)).splitlines()
    skipped = next(line for line in lines if line.startswith("checked below n = 6 only: "))
    for theorem in THEOREMS:
        assert (theorem in skipped) == (theorem != "gcb_round_trip")
    assert "triangle_classification (n = 5..5)" in skipped
    assert not any(line.startswith("reduction order notes") for line in lines)
    assert lines[-1] == "total counterexamples: 0 over n = 1..6, 6 of 7 theorems checked below n = 6 only"


def test_report_seconds_time_each_check():
    for result in (verify_all(3), verify_all(5, workers=2)):
        for rep in result.reports:
            assert rep.seconds >= 0.0
            if rep.examined == 0:
                assert rep.seconds == 0.0
        assert any(rep.seconds > 0.0 for rep in result.reports)
        assert sum(rep.seconds for rep in result.reports) <= result.seconds


def test_experiments_empty_in_range():
    # the reduction-order and zero-l experiments are gone from the report
    doc = verify_all(6).to_json()
    assert set(doc) == {"reports", "counting", "seconds"}
