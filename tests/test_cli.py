import io
import json

import pytest

from twosc.canon import canonical_graph
from twosc.cli import main
from twosc.graphs import complete_bipartite, cycle_graph, minimal_with_triangle, path_graph, capped_k33
from twosc.core import has_triangle
from twosc.enumeration import GENERATOR_MAX
from twosc.io import graph6_decode, graph6_encode
from twosc.reduction import apply_star_procedure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_two_self_centered(capsys):
    code, out, _ = run(capsys, "check", graph6_encode(cycle_graph(4)))
    assert code == 0
    assert "2-self-centered" in out and "edge-maximal" in out and "edge-minimal" in out


def test_check_rejects_path(capsys):
    code, out, _ = run(capsys, "check", graph6_encode(path_graph(4)))
    assert code == 1
    assert "not 2-self-centered" in out
    assert "no common neighbor" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", graph6_encode(cycle_graph(4)))
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["verdict"]["is_2sc"] is True
    assert doc[0]["edge_minimal"]["minimal"] is True


def test_build_complete_bipartite(capsys, tmp_path):
    spec_doc = {"k": 2, "l": 3, "x": {"n": 0, "edges": []}, "a_family": [], "b_family": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_doc))
    code, out, _ = run(capsys, "build", "--input", str(path))
    assert code == 0
    assert graph6_decode(out.strip()) == complete_bipartite(2, 3)


def test_decompose_then_build_round_trip(capsys, tmp_path):
    g6 = graph6_encode(capped_k33())
    code, out, _ = run(capsys, "decompose", g6)
    assert code == 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(out)
    code, out, _ = run(capsys, "build", "--input", str(spec_path))
    assert code == 0
    rebuilt = graph6_decode(out.strip())
    assert graph6_encode(canonical_graph(rebuilt)) == graph6_encode(canonical_graph(capped_k33()))


def test_decompose_pipes_into_build(capsys, monkeypatch):
    # the Petersen graph peels with an empty L side
    code, spec_doc, _ = run(capsys, "decompose", "IheA@GUAo")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(spec_doc))
    code, out, err = run(capsys, "build")
    assert (code, err) == (0, "")
    order = json.loads(spec_doc)["roles"]["order"]
    assert graph6_decode(out.strip()) == graph6_decode("IheA@GUAo").relabel(order)


def test_zero_l_reading_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--item8", "symmetric"])
    assert exc.value.code == 2
    assert "--item8" in capsys.readouterr().err


def test_reduce_fixture(capsys):
    code, out, _ = run(capsys, "reduce", graph6_encode(minimal_with_triangle()))
    assert code == 0
    doc = json.loads(out)
    assert doc["succeeded"] is True
    assert len(doc["steps"]) == 1


def test_reduce_where_the_greedy_order_fails(capsys):
    # the greedy order's first step creates a triangle on G}aHOs (it
    # exited 1); the search finds another order, and the printed steps
    # replay one valid star step at a time
    code, out, _ = run(capsys, "reduce", "G}aHOs")
    assert code == 0
    doc = json.loads(out)
    assert doc["succeeded"] is True and doc["failure_reason"] is None
    g = graph6_decode("G}aHOs")
    for printed in doc["steps"]:
        assert set(printed) == {"u", "v", "u_critical_partners", "v_critical_partners"}
        g, step = apply_star_procedure(g, printed["u"], printed["v"])
        assert list(step.u_partners) == printed["u_critical_partners"]
        assert list(step.v_partners) == printed["v_critical_partners"]
    assert graph6_encode(g) == doc["final"] and not has_triangle(g) and g.two_sc


def test_sample_deterministic(capsys):
    code, first, _ = run(capsys, "sample", "--n-max", "10", "--seed", "3")
    assert code == 0
    code, second, _ = run(capsys, "sample", "--n-max", "10", "--seed", "3")
    assert first == second


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n-max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_enumerate_pipes_into_check(capsys):
    code, out, _ = run(capsys, "enumerate", "--n-max", "4")
    records = out.strip().splitlines()
    verdicts = []
    for record in records:
        code, line, _ = run(capsys, "check", record)
        verdicts.append(code)
    assert verdicts.count(0) == 1  # exactly one 2-self-centered class on 4 vertices


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "counterexamples: 0" in out


def test_verify_json_is_the_same_for_any_worker_count(capsys):
    docs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--n-max", "6", "--workers", workers, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        doc.pop("seconds")
        for rep in doc["reports"]:
            rep.pop("seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counting"]["4"]["two_sc"] == 1


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_verify_empty_range_exits_two(capsys, tmp_path, n_max):
    path = tmp_path / "graphs.g6"
    path.write_text(graph6_encode(cycle_graph(4)) + "\n")
    for extra in ((), ("--input", str(path))):
        code, out, err = run(capsys, "verify", "--n-max", n_max, *extra)
        assert code == 2
        assert not out and "n_max >= 1" in err


def test_verify_beyond_the_generator_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--n-max", str(GENERATOR_MAX + 1))
    assert code == 2
    assert not out and "generator supports" in err


def test_bad_graph6_exits_two(capsys):
    code, _, err = run(capsys, "check", "C@ $")
    assert code == 2
    assert err


def test_bad_spec_document_exits_two(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "build", "--input", str(path))
    assert code == 2 and err


_EDGE = {"n": 2, "edges": [[0, 1]]}


@pytest.mark.parametrize("doc", [
    pytest.param([], id="not-an-object"),
    pytest.param({"k": 1, "l": 1, "x": []}, id="x-not-an-object"),
    pytest.param({"k": 2.5, "l": 3, "x": {"n": 0, "edges": []}}, id="float-k"),
    pytest.param({"k": 2, "l": True, "x": {"n": 0, "edges": []}}, id="bool-l"),
    pytest.param({"k": 1, "l": 1, "x": {"n": "2", "edges": []}}, id="string-n"),
    pytest.param({"k": -1, "l": 3, "x": {"n": 0, "edges": []}}, id="negative-k"),
    pytest.param({"k": 2, "l": -2, "x": _EDGE}, id="negative-l"),
    pytest.param({"k": 1, "l": 1, "x": {"n": 2, "edges": [[0]]}}, id="edge-not-a-pair"),
    pytest.param({"k": 1, "l": 1, "x": {"n": 2, "edges": [[0, 1.0]]}}, id="edge-not-ints"),
    pytest.param({"k": 1, "l": 1, "x": _EDGE, "a_family": ["a"]}, id="member-not-a-list"),
    pytest.param({"k": 1, "l": 1, "x": _EDGE, "a_family": [["a"]]}, id="member-not-ints"),
    pytest.param({"k": 1, "l": 1, "x": _EDGE, "b_family": [[-1]]}, id="negative-vertex"),
    pytest.param({"k": 1, "l": 1, "x": _EDGE, "b_family": [[2]]}, id="vertex-beyond-x"),
    pytest.param({"k": 1, "l": 1, "x": _EDGE, "a_family": {}}, id="family-not-a-list"),
])
def test_malformed_spec_document_exits_two(capsys, tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "build", "--input", str(path))
    assert code == 2
    assert not out and err.startswith("twosc build:")


def test_decompose_wants_one_graph(capsys):
    g6 = graph6_encode(cycle_graph(4))
    code, _, err = run(capsys, "decompose", g6, g6)
    assert code == 2 and err


def test_dot_output(capsys):
    code, out, _ = run(capsys, "sample", "--n-max", "4", "--seed", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {") and "--" in out
