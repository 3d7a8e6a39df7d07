"""Rules on the library source itself."""

import ast
import importlib.util
import pathlib

import pytest

import twosc
from twosc import core, gcb, harness, recognition, reduction, sbic
from twosc.enumeration import connected_classes
from twosc.graphs import petersen_graph
from twosc.io import write_graph6

SRC = pathlib.Path(twosc.__file__).parent


def test_library_has_no_assert_and_no_debug_branch():
    # python -O drops both, so a check written either way would run under
    # python and vanish under python -O; checks raise or live in the tests
    found = []
    files = sorted(SRC.glob("*.py"))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert len(files) > 10 and found == []


def test_benchmark_finds_what_it_calls(tmp_path):
    # the benchmark wraps these functions by name, builds specs with
    # build_gcb's zero_l_reading keyword and runs the battery with
    # verify_all's full_battery_max keyword; a rename or deletion in the
    # library must fail here, not only in the benchmark's own smoke run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for mod, attr in tracer.WRAPPED
               if not callable(getattr(getattr(twosc, mod, None), attr, None))]
    assert len(tracer.WRAPPED) > 20 and missing == []

    g = petersen_graph()
    gcb_spec, roles = gcb.decompose_triangle_free(g)
    built = gcb.build_gcb(gcb.GcbSpec.from_json(gcb_spec.to_json()), zero_l_reading=gcb.PRINTED)
    assert built == g.relabel(roles.order)

    frozen = tmp_path / "connected_n5.g6"
    with open(frozen, "w") as handle:
        write_graph6(connected_classes(5), handle)
    result = harness.verify_all(5, source="file", path=str(frozen), full_battery_max=5, workers=1)
    assert result.counterexample_total() == 0 and sorted(result.counting) == [5]


# Unpacking and tuple equality read the result records by position, so
# each record's field order is part of the API.
RECORD_FIELDS = {
    core.DistanceProfile: ("distances", "eccentricities", "radius", "diameter", "infinity"),
    recognition.TwoScVerdict: ("is_2sc", "violating_vertex", "violating_pair"),
    recognition.ComplementComponent: ("vertices", "star", "center"),
    recognition.MaximalityCertificate: ("maximal", "complement_connected", "components"),
    recognition.MinimalityWitness: ("minimal", "removable_edge"),
    gcb.RuleVerdict: ("ok", "applicable", "counterexample"),
    gcb.GcbValidation: (
        "sbic", "sbic_error", "zero_k", "zero_l", "empty_family_sides",
        "empty_core_iff_no_connectors", "singleton_core_needs_side",
    ),
    gcb.GcbRoles: ("k_vertices", "l_vertices", "y_vertices", "z_vertices", "x_vertices"),
    sbic.ConditionVerdict: ("ok", "counterexample"),
    sbic.SbicReport: (
        "triangle_free", "covering", "distant_pairs_share_set", "a_far_vertices_escape", "b_far_vertices_escape",
    ),
    reduction.ReductionTrace: ("steps", "final", "succeeded", "failure_reason"),
    reduction.TriangleClassification: ("minimal", "failing_edge", "trace"),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda record: record.__name__)
def test_result_records_are_tuples_in_field_order(record):
    assert issubclass(record, tuple) and record._fields == RECORD_FIELDS[record]
