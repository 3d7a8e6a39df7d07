import hashlib
import json
import pickle
import random
import sys

import pytest

from twosc import gcb, harness
from twosc.core import Graph, _decoded, complement, has_triangle
from twosc.enumeration import GENERATOR_MAX, RangeError, connected_classes
from twosc.graphs import complete_graph, cycle_graph, petersen_graph
from twosc.harness import (
    BLOCK,
    COUNTS,
    THEOREMS,
    BatteryResult,
    Facts,
    Theorem,
    VerificationReport,
    _run_chunk,
    facts,
    render_table,
    verify_all,
)
from twosc.io import graph6_decode, graph6_encode, write_graph6
from twosc.recognition import (
    complement_star_certificate,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    is_edge_minimal,
)

from conftest import run_python

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

# The same digest for verify_all(8), every theorem over every connected
# class with n <= 8.  No check fails there.
BATTERY_8_FULL_DIGEST = "5bc9bf084e1d5ee27b712c082278f7d8e5ae374bb3504ba0464887a3dfa4348d"

# The same digest for verify_all(9).
BATTERY_9_DIGEST = "e4a87ac31709e1aa0f1414085cab7567fb780dfe90e1f3e591f7427795204a04"


def strip_times(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("seconds", None)
    doc.pop("facts_seconds", None)
    for rep in doc["reports"]:
        rep.pop("seconds", None)
    return doc


def test_battery_clean_up_to_six():
    result = verify_all(6)
    assert result.counterexample_total() == 0
    assert [rep.theorem for rep in result.reports] == [t.name for t in THEOREMS]
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
    a, b, c = (_run_chunk(THEOREMS, graphs[i::3]) for i in range(3))
    left = strip_times(a.merge(b).merge(c).to_json())
    right = strip_times(a.merge(b.merge(c)).to_json())
    assert left == right == strip_times(verify_all(6).to_json())
    assert strip_times(BatteryResult.empty().merge(a).to_json()) == strip_times(a.to_json())


def reference_facts(g):
    """The per-graph facts record that the block pass replaced, on a fresh value of g."""
    g = Graph(g.adj)
    two_sc = g.two_sc
    minimal = two_sc and is_edge_minimal(g).minimal
    return Facts(g, two_sc, not has_triangle(g), minimal, complement_star_certificate(g) if two_sc else None)


def reference_sandwich(f):
    """The per-graph sandwich check that the block passes replaced, on validated copies of the greedy graphs."""
    g = f.g
    sub = Graph(greedy_edge_minimal(g).adj)
    sup = Graph(greedy_edge_maximal(g).adj)
    sub_ok = all(not s & ~m for s, m in zip(sub.adj, g.adj)) and sub.two_sc and is_edge_minimal(sub).minimal
    sup_ok = all(not m & ~s for s, m in zip(sup.adj, g.adj)) and sup.two_sc and edge_maximal_by_definition(sup)
    ok = sub_ok and sup_ok
    return ok, None if ok else {"subgraph_ok": sub_ok, "supergraph_ok": sup_ok}


def reference_chunk(theorems, graphs):
    """The per-graph loop that the blocks replace: each graph's facts, its counts, then each theorem that applies."""
    part = BatteryResult([VerificationReport(t.name) for t in theorems], {}, 0.0)
    for g in graphs:
        f = facts([g])[0]
        row = part.counting.setdefault(g.n, dict.fromkeys(COUNTS, 0))
        maximal = f.cert is not None and f.cert.maximal
        for key, val in zip(COUNTS, (1, f.two_sc, f.minimal, maximal, f.two_sc and f.triangle_free)):
            row[key] += val
        for theorem, rep in zip(theorems, part.reports):
            if theorem.applies(f):
                [(ok, detail)] = theorem.check([f])
                rep.n_min = g.n if not rep.examined else min(rep.n_min, g.n)
                rep.n_max = max(rep.n_max, g.n)
                rep.examined += 1
                if ok:
                    rep.passes += 1
                else:
                    rep.counterexamples.append({"n": g.n, "graph6": graph6_encode(g), "detail": detail})
    return part


def test_blocks_match_the_per_graph_loop():
    # 996 graphs, largest first, so blocks lower n_min; the sandwich
    # check fails on the last two 2SC graphs of the first block and on
    # the first 2SC graph of the second
    graphs = connected_up_to(7)[::-1]
    assert len(graphs) > 3 * BLOCK
    two_sc = [i for i, g in enumerate(graphs) if g.two_sc]
    first = [i for i in two_sc if i < BLOCK]
    failing = {graphs[first[-2]], graphs[first[-1]], graphs[min(i for i in two_sc if i >= BLOCK)]}
    sandwich = next(t for t in THEOREMS if t.name == "sandwich_existence")

    def check(records):
        outcomes = sandwich.check(records)
        return [(False, {"planted": True}) if f.g in failing else o for f, o in zip(records, outcomes)]

    table = tuple(Theorem(t.name, t.applies, check) if t is sandwich else t for t in THEOREMS)
    blocks = _run_chunk(table, iter(graphs))
    reference = reference_chunk(table, graphs)
    assert strip_times(blocks.to_json()) == strip_times(reference.to_json())
    rep = blocks.reports[THEOREMS.index(sandwich)]
    assert [c["graph6"] for c in rep.counterexamples] == [graph6_encode(g) for g in graphs if g in failing]
    assert rep.examined == len(two_sc) and (rep.n_min, rep.n_max) == (4, 7)


def test_block_facts_match_the_per_graph_records():
    # every connected class with n <= 8, in one stream's blocks; the
    # memos a block fills equal those a fresh value computes
    graphs = connected_up_to(8)
    for start in range(0, len(graphs), BLOCK):
        block = graphs[start:start + BLOCK]
        for g, f in zip(block, facts(block)):
            expected = reference_facts(g)
            assert f.g is g and f[1:] == expected[1:], g
            if f.two_sc:
                assert vars(g)["two_sc"] is True and vars(g)["common"] == expected.g.common


def test_block_sandwich_matches_the_per_graph_check():
    graphs = connected_up_to(8)
    sandwich = next(t for t in THEOREMS if t.name == "sandwich_existence")
    checked = 0
    for start in range(0, len(graphs), BLOCK):
        chosen = [f for f in facts(graphs[start:start + BLOCK]) if f.two_sc]
        assert sandwich.check(chosen) == [reference_sandwich(f) for f in chosen]
        checked += len(chosen)
    assert checked == sum(verify_all(8).counting[n]["two_sc"] for n in range(1, 9))


def mirror_broken(g, adj):
    """adj with its first edge (u, v), u < v, kept only in row u."""
    u = next(u for u, m in enumerate(adj) if m >> u + 1)
    v = (adj[u] >> u + 1 & -(adj[u] >> u + 1)).bit_length() + u
    return adj[:v] + (adj[v] & ~(1 << u),) + adj[v + 1:]


def with_loop(g, adj):
    """adj with a loop at vertex 0."""
    return (adj[0] | 1,) + adj[1:]


def graph_itself(g, adj):
    """g's own masks, when they differ from adj."""
    return g.adj if g.adj != adj else None


def relabelled(g, adj):
    """adj with its labels reversed, when that leaves it neither inside g nor around it."""
    moved = Graph(adj).relabel(range(len(adj) - 1, -1, -1)).adj
    inside = all(not s & ~m for s, m in zip(moved, g.adj))
    around = all(not m & ~s for s, m in zip(moved, g.adj))
    return None if inside or around else moved


def edgeless(g, adj):
    """No edges on g's vertices: a well-formed subgraph of g that is not 2SC."""
    return (0,) * len(adj)


def complete_graph_masks(g, adj):
    """The complete graph on g's vertices: a supergraph of g that is not 2SC."""
    return complete_graph(len(adj)).adj


def two_sc_graphs_on_seventeen():
    """co-C17 and seeded G(17, 1/2) graphs that are 2SC: the per-graph path."""
    rng = random.Random(17)
    out = [complement(cycle_graph(17))]
    while len(out) < 4:
        g = Graph.from_edges(17, [(u, v) for u in range(17) for v in range(u + 1, 17) if rng.random() < 0.5])
        if g.two_sc:
            out.append(g)
    return out


SPOILERS = [
    ("greedy_edge_minimal", mirror_broken),
    ("greedy_edge_minimal", with_loop),
    ("greedy_edge_minimal", graph_itself),
    ("greedy_edge_minimal", relabelled),
    ("greedy_edge_minimal", edgeless),
    ("greedy_edge_maximal", mirror_broken),
    ("greedy_edge_maximal", with_loop),
    ("greedy_edge_maximal", graph_itself),
    ("greedy_edge_maximal", relabelled),
    ("greedy_edge_maximal", complete_graph_masks),
]


@pytest.mark.parametrize("path", ["block", "per_graph"])
@pytest.mark.parametrize("name, spoil", SPOILERS, ids=[f"{n[7:]}-{s.__name__}" for n, s in SPOILERS])
def test_sandwich_rederives_what_it_checks(monkeypatch, name, spoil, path):
    # the greedy graphs are built without Graph.__init__, so a malformed
    # output, a subgraph that is not minimal or not inside g, and a
    # supergraph that is not 2SC or misses an edge of g each fail the
    # check for that graph alone, in a block pass (n <= 6) and one graph
    # at a time (n = 17)
    graphs = [g for g in connected_up_to(6) if g.two_sc] if path == "block" else two_sc_graphs_on_seventeen()
    greedy = {"greedy_edge_minimal": greedy_edge_minimal, "greedy_edge_maximal": greedy_edge_maximal}[name]
    spoiled = next(g for g in graphs[len(graphs) // 2:] + graphs if spoil(g, greedy(g).adj) is not None)

    def broken(g):
        out = greedy(g)
        return _decoded(spoil(g, out.adj)) if g is spoiled else out

    monkeypatch.setattr(harness, name, broken)
    sandwich = next(t for t in THEOREMS if t.name == "sandwich_existence")
    side = "subgraph" if name == "greedy_edge_minimal" else "supergraph"
    detail = {"subgraph_ok": side != "subgraph", "supergraph_ok": side != "supergraph"}
    assert sandwich.check(facts(graphs)) == [(False, detail) if g is spoiled else (True, None) for g in graphs]


def test_sandwich_rejects_a_subgraph_of_the_wrong_size_or_kind(monkeypatch):
    graphs = [g for g in connected_up_to(6) if g.two_sc]
    spoiled = {graphs[0]: (), graphs[1]: graphs[1].adj + (0,), graphs[2]: (-1,) + graphs[2].adj[1:],
               graphs[3]: (1 << 9,) + graphs[3].adj[1:], graphs[4]: ("x",) + graphs[4].adj[1:]}

    def broken(g):
        return _decoded(spoiled[g]) if g in spoiled else greedy_edge_minimal(g)

    monkeypatch.setattr(harness, "greedy_edge_minimal", broken)
    sandwich = next(t for t in THEOREMS if t.name == "sandwich_existence")
    detail = {"subgraph_ok": False, "supergraph_ok": True}
    assert sandwich.check(facts(graphs)) == [(False, detail) if g in spoiled else (True, None) for g in graphs]


def test_zero_vertex_records_merge_the_same_at_any_worker_count(tmp_path):
    # graph6 "?" is K0: n_min is 0 in the share that examines it, which
    # the merge must keep rather than read as "nothing examined"
    path = tmp_path / "graphs.g6"
    path.write_text("?\nCF\nC~\n")
    one, two = (strip_times(verify_all(8, source="file", path=str(path), workers=k).to_json()) for k in (1, 2))
    assert one == two
    rep = next(r for r in one["reports"] if r["theorem"] == "recognition_matches_metric")
    assert (rep["n_min"], rep["n_max"], rep["examined"]) == (0, 4, 3)


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
    backwards = _run_chunk(THEOREMS, connected_up_to(6)[::-1])
    assert strip_times(BatteryResult.empty().merge(backwards).to_json()) == strip_times(result.to_json())


def test_pool_never_exceeds_usable_cpus(monkeypatch, tmp_path):
    calls = []

    def recording_split(work, arg, items, count):
        """Stands in for enumeration._split: records the share count and the items, works the shares in-process."""
        streamed = not isinstance(items, list)
        items = list(items)
        calls.append((count, streamed, items))
        return [work(arg, items[i::count]) for i in range(count)]

    monkeypatch.setattr(harness, "_split", recording_split)
    serial = strip_times(verify_all(5).to_json())
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    for workers in (2, 3, 5000):
        assert strip_times(verify_all(5, workers=workers).to_json()) == serial
    assert [count for count, _, _ in calls] == [1, 2, 2, 2]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    for workers in (0, 5000):
        assert strip_times(verify_all(5, workers=workers).to_json()) == serial
    assert [count for count, _, _ in calls] == [1, 2, 2, 2, 1, 1]
    # the builtin shares get (n, parent masks) pairs, not graphs
    for _, _, items in calls:
        assert items and all(
            type(n) is int and type(parent) is tuple and all(type(m) is int for m in parent) for n, parent in items
        )
    path = tmp_path / "graphs.g6"
    with open(path, "w") as handle:
        write_graph6(connected_up_to(5), handle)
    assert strip_times(verify_all(5, source="file", path=str(path)).to_json()) == serial
    assert calls[-1][:2] == (1, True)  # one share streams the file's graphs


def test_builtin_battery_holds_no_level(tmp_path):
    # the caller generates only the parent levels, 1..n_max - 1, and
    # never the connected classes
    out = run_python(tmp_path, """
        from twosc.enumeration import connected_classes, graph_classes
        from twosc.harness import verify_all

        verify_all(6)
        print(graph_classes.cache_info().currsize, connected_classes.cache_info().currsize)
    """)
    assert out.split() == ["5", "0"]


def test_builtin_shares_under_spawn(tmp_path):
    out = run_python(tmp_path, """
        import json
        import multiprocessing
        from twosc.harness import verify_all

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            print(json.dumps([verify_all(6).to_json(), verify_all(6, workers=2).to_json()]))
    """)
    serial, two = json.loads(out)
    assert strip_times(two) == strip_times(serial)


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
        assert theorem.name in text
    assert "two_sc" in text
    assert "checked below" not in text
    assert text.splitlines()[-1] == "total counterexamples: 0 over n = 1..5"


def battery_digest(doc) -> str:
    return hashlib.sha256(json.dumps(strip_times(doc), sort_keys=True).encode()).hexdigest()


def test_battery_json_pinned_up_to_seven():
    assert battery_digest(verify_all(7).to_json()) == BATTERY_7_DIGEST


def test_full_battery_json_pinned_up_to_eight():
    assert battery_digest(verify_all(8).to_json()) == BATTERY_8_FULL_DIGEST


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM, and ru_maxrss in KiB")
def test_full_battery_up_to_nine_in_little_memory(tmp_path):
    # the command line's n <= 9 battery, as a user runs it: exit 0, and
    # every process's peak stays far below the 160 MB that holding the
    # n <= 9 classes as Graph lists took.  Linux keeps the peak of the
    # process that started an interpreter in that interpreter's
    # RUSAGE_SELF, so its own peak is read as VmHWM, which starts anew
    # at exec; its shares' peaks are RUSAGE_CHILDREN
    out = run_python(tmp_path, """
        import contextlib
        import io
        import json
        import resource
        from twosc.cli import main

        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["verify", "--n-max", "9", "--workers", "2", "--format", "json"])
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        peaks = [own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
        print(json.dumps([code, json.loads(printed.getvalue()), peaks]))
    """, timeout=300)
    code, doc, peaks = json.loads(out)
    assert code == 0
    assert battery_digest(doc) == BATTERY_9_DIGEST
    assert doc["counting"]["9"] == {
        "graphs": 261080, "two_sc": 79173, "edge_minimal": 102, "edge_maximal": 7, "triangle_free_two_sc": 15,
    }
    assert sum(len(rep["counterexamples"]) for rep in doc["reports"]) == 0
    assert all(peak < 60 * 1024 for peak in peaks), peaks


def test_known_counterexample_from_a_file(tmp_path):
    # The greedy reduction order depends on the labels: on G}aHOs its
    # first step creates a triangle, on the isomorphic GthQ]? it
    # succeeds.  The reduction searches for an order, so both labellings
    # pass, as does the n = 9 graph H}iQYCM, which greedy also fails.
    path = tmp_path / "graphs.g6"
    path.write_text("G}aHOs\nGthQ]?\nH}iQYCM\n")
    result = verify_all(9, source="file", path=str(path))
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


def test_unknown_or_pathless_source_is_rejected():
    with pytest.raises(ValueError, match="file source needs a path"):
        verify_all(4, source="file")
    with pytest.raises(ValueError, match="unknown source 'nope'"):
        verify_all(4, source="nope")


def test_builtin_range_beyond_the_generator_is_rejected_before_any_work(monkeypatch):
    def generate(n):
        raise AssertionError(f"graph_classes({n}) ran before the range check")

    monkeypatch.setattr(harness, "graph_classes", generate)
    with pytest.raises(RangeError, match="generator supports"):
        verify_all(GENERATOR_MAX + 1)


def test_render_table_names_what_it_skipped():
    # a part at n = 6 where only the round trip ran, merged onto a run to 5
    six = BatteryResult.empty()
    six.counting[6] = dict.fromkeys(COUNTS, 0)
    trip = next(r for r in six.reports if r.theorem == "gcb_round_trip")
    six.counting[6]["graphs"] = len(connected_classes(6))
    trips = [g for g in connected_classes(6) if g.two_sc and not has_triangle(g)]
    trip.record(trips, [(True, None)] * len(trips), 0.0)
    lines = render_table(verify_all(5).merge(six)).splitlines()
    skipped = next(line for line in lines if line.startswith("checked below n = 6 only: "))
    for theorem in THEOREMS:
        assert (theorem.name in skipped) == (theorem.name != "gcb_round_trip")
    assert "triangle_classification (n = 5..5)" in skipped
    assert not any(line.startswith("reduction order notes") for line in lines)
    assert lines[-1] == "total counterexamples: 0 over n = 1..6, 6 of 7 theorems checked below n = 6 only"


def test_file_graphs_above_eight_vertices_get_every_theorem(tmp_path):
    # H}iQYCM is edge-minimal with triangles (n = 9); Petersen is
    # triangle-free (n = 10); both run every theorem that applies
    path = tmp_path / "graphs.g6"
    with open(path, "w") as handle:
        write_graph6([graph6_decode("H}iQYCM"), petersen_graph()], handle)
    result = verify_all(10, source="file", path=str(path))
    examined = {rep.theorem: (rep.examined, rep.passes, rep.n_min, rep.n_max) for rep in result.reports}
    assert examined == {
        "recognition_matches_metric": (2, 2, 9, 10),
        "edge_maximal_complement_stars": (2, 2, 9, 10),
        "bipartite_minimal_proposition": (2, 2, 9, 10),
        "triangle_free_minimality": (2, 2, 9, 10),
        "gcb_round_trip": (1, 1, 10, 10),
        "triangle_classification": (1, 1, 9, 9),
        "sandwich_existence": (2, 2, 9, 10),
    }
    assert sorted(result.counting) == [9, 10]


@pytest.mark.parametrize("n_max", [1, 6])
def test_full_battery_max_below_n_max_is_rejected(n_max):
    with pytest.raises(ValueError, match="full_battery_max"):
        verify_all(n_max, full_battery_max=n_max - 1)
    assert verify_all(n_max, full_battery_max=n_max).counterexample_total() == 0


def test_file_source_in_shares(tmp_path):
    path = tmp_path / "graphs.g6"
    with open(path, "w") as handle:
        write_graph6([g for n in range(1, 7) for g in connected_classes(n)], handle)
    serial = strip_times(verify_all(6, source="file", path=str(path), workers=1).to_json())
    assert strip_times(verify_all(6, source="file", path=str(path), workers=2).to_json()) == serial
    assert serial == strip_times(verify_all(6).to_json())


def test_report_seconds_time_each_check():
    for result in (verify_all(3), verify_all(5, workers=2)):
        for rep in result.reports:
            assert rep.seconds >= 0.0
            if rep.examined == 0:
                assert rep.seconds == 0.0
        assert any(rep.seconds > 0.0 for rep in result.reports) and result.facts_seconds > 0.0
        assert sum(rep.seconds for rep in result.reports) + result.facts_seconds <= result.seconds


def test_reports_are_plain_values():
    a, b = VerificationReport("t"), VerificationReport("t")
    assert a == b and a.counterexamples is not b.counterexamples
    assert repr(a) == (
        "VerificationReport(theorem='t', n_min=0, n_max=0, examined=0, passes=0, counterexamples=[], seconds=0.0)"
    )
    g = petersen_graph()
    a.record([g], [(False, {"forward": False})], 0.0004)
    assert a != b
    assert list(a.to_json().items()) == [
        ("theorem", "t"), ("n_min", 10), ("n_max", 10), ("examined", 1), ("passes", 0),
        ("counterexamples", [{"n": 10, "graph6": graph6_encode(g), "detail": {"forward": False}}]),
        ("seconds", 0.0),
    ]
    with pytest.raises(TypeError):
        hash(a)
    # the battery's shares send their results back pickled
    result = _run_chunk(THEOREMS, connected_up_to(5))
    copy = pickle.loads(pickle.dumps(result))
    assert copy is not result and copy == result and copy.to_json() == result.to_json()
    assert repr(BatteryResult([], {}, 0.0)) == "BatteryResult(reports=[], counting={}, seconds=0.0, facts_seconds=0.0)"


def test_experiments_empty_in_range():
    # the reduction-order and zero-l experiments are gone from the report
    doc = verify_all(6).to_json()
    assert set(doc) == {"reports", "counting", "seconds", "facts_seconds"}
