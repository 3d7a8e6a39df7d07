"""The theorem battery: exhaustive machine verification over small graphs.

Every generated (or ingested) graph is pushed through each applicable
check; failures become counterexample records carrying the graph6 string
so they can be reproduced externally.  Graphs above the full-battery
limit only run the decomposition round trip, which is the one check that
stays cheap at 8 vertices.

Two open experiments ride along: whether any decomposition distinguishes
the two readings of the zero-l validation rule, and whether a failed
deterministic reduction order can be rescued by some other order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .core import Graph, has_triangle, triangles
from .enumeration import RangeError, connected_classes
from .gcb import PRINTED, SYMMETRIC, assemble, decompose_triangle_free, validate_gcb_spec
from .io import graph6_encode, ingest_graph6
from .recognition import (
    check_bipartite_proposition,
    complement_star_certificate,
    conditions_ok,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    has_critical_triple,
    is_edge_minimal,
    metric_two_self_centered,
)
from .reduction import (
    classify_edge_minimal_with_triangles,
    reduction_succeeds_in_any_order,
    replay_trace,
)
from .sbic import verify_sbic

FULL_BATTERY_MAX = 7

THEOREMS = (
    "recognition_matches_metric",
    "edge_maximal_complement_stars",
    "bipartite_minimal_proposition",
    "triangle_free_minimality",
    "gcb_round_trip",
    "triangle_classification",
    "sandwich_existence",
)


@dataclass
class VerificationReport:
    """Outcome of one theorem check over a graph stream.

    ``seconds`` is the time inside this theorem's check, summed over graphs
    and worker processes, so with workers it can exceed the wall time.  The
    shared prelude, the 2SC test and the counting table's minimality and
    maximality, is charged to no theorem; the reduction-order experiment
    to ``triangle_classification``, which triggers it.
    """

    theorem: str
    n_min: int = 0
    n_max: int = 0
    examined: int = 0
    passes: int = 0
    counterexamples: list[dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "examined": self.examined,
            "passes": self.passes,
            "counterexamples": self.counterexamples,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class BatteryResult:
    """All reports plus the per-n counting table and experiment notes."""

    reports: list[VerificationReport]
    counting: dict[int, dict[str, int]]
    zero_l_divergences: list[str]
    order_dependence: list[dict[str, Any]]
    seconds: float

    def counterexample_total(self) -> int:
        return sum(len(r.counterexamples) for r in self.reports)

    def to_json(self) -> dict[str, Any]:
        return {
            "reports": [r.to_json() for r in self.reports],
            "counting": {str(n): row for n, row in sorted(self.counting.items())},
            "zero_l_divergences": self.zero_l_divergences,
            "order_dependence": self.order_dependence,
            "seconds": round(self.seconds, 3),
        }


def _stable_hash(adj: Sequence[int]) -> int:
    h = 1469598103934665603
    for m in adj:
        h = ((h ^ (m + 1)) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def _check_graph(g: Graph, full: bool) -> dict[str, Any]:
    """Run the battery on one graph; returns theorem outcomes and counts."""
    out: dict[str, Any] = {"n": g.n, "checks": {}, "counts": {}, "zero_l_diverges": False, "order_note": None}
    checks = out["checks"]
    clock = time.perf_counter

    two_sc = conditions_ok(g.adj, g.n)
    triangle_free = not has_triangle(g)
    minimal = is_edge_minimal(g).minimal if two_sc else False
    maximal_char = complement_star_certificate(g).maximal if two_sc else False
    out["counts"] = {
        "graphs": 1,
        "two_sc": int(two_sc),
        "edge_minimal": int(minimal),
        "edge_maximal": int(maximal_char),
        "triangle_free_two_sc": int(two_sc and triangle_free),
    }

    if full:
        start = clock()
        metric = metric_two_self_centered(g)
        checks["recognition_matches_metric"] = (
            two_sc == metric,
            None if two_sc == metric else {"conditions": two_sc, "metric": metric},
            clock() - start,
        )

        start = clock()
        checks["bipartite_minimal_proposition"] = (
            check_bipartite_proposition(g),
            None,
            clock() - start,
        )

        if two_sc:
            start = clock()
            defn_max = edge_maximal_by_definition(g)
            checks["edge_maximal_complement_stars"] = (
                maximal_char == defn_max,
                None if maximal_char == defn_max else {"characterization": maximal_char, "definition": defn_max},
                clock() - start,
            )

            start = clock()
            forward_ok = minimal or not triangle_free
            converse_ok = triangle_free or not (minimal and not has_critical_triple(g))
            checks["triangle_free_minimality"] = (
                forward_ok and converse_ok,
                None
                if forward_ok and converse_ok
                else {"forward": forward_ok, "converse": converse_ok},
                clock() - start,
            )

            if not triangle_free:
                start = clock()
                cls = classify_edge_minimal_with_triangles(g)
                agree = cls.minimal == minimal
                trace_ok = True
                if cls.trace is not None and cls.trace.succeeded:
                    trace_ok = replay_trace(g, cls.trace)
                if cls.every_triangle_edge_critical and cls.trace is not None and not cls.trace.succeeded:
                    out["order_note"] = {
                        "default_order_failed": True,
                        "some_order_succeeds": reduction_succeeds_in_any_order(g),
                        "edge_minimal": minimal,
                    }
                checks["triangle_classification"] = (
                    agree and trace_ok,
                    None
                    if agree and trace_ok
                    else {"classified": cls.minimal, "definition": minimal, "trace_ok": trace_ok},
                    clock() - start,
                )

            start = clock()
            sub = greedy_edge_minimal(g)
            sup = greedy_edge_maximal(g)
            sub_ok = (
                all(not (sub.adj[v] & ~g.adj[v]) for v in range(g.n))
                and conditions_ok(sub.adj, sub.n)
                and is_edge_minimal(sub).minimal
            )
            sup_ok = (
                all(not (g.adj[v] & ~sup.adj[v]) for v in range(g.n))
                and conditions_ok(sup.adj, sup.n)
                and edge_maximal_by_definition(sup)
            )
            checks["sandwich_existence"] = (
                sub_ok and sup_ok,
                None if sub_ok and sup_ok else {"subgraph_ok": sub_ok, "supergraph_ok": sup_ok},
                clock() - start,
            )

    if two_sc and triangle_free:
        start = clock()
        spec, roles = decompose_triangle_free(g)
        rebuilt = assemble(spec)
        equal = rebuilt == g.relabel(roles.order)
        sbic_ok = verify_sbic(spec.x, spec.witness).passed
        printed_ok = validate_gcb_spec(spec, PRINTED).passed
        symmetric_ok = validate_gcb_spec(spec, SYMMETRIC).passed
        ok = equal and sbic_ok and (printed_ok or symmetric_ok)
        checks["gcb_round_trip"] = (
            ok,
            None
            if ok
            else {
                "rebuild_equal": equal,
                "sbic": sbic_ok,
                "validation_printed": printed_ok,
                "validation_symmetric": symmetric_ok,
            },
            clock() - start,
        )
        out["zero_l_diverges"] = printed_ok != symmetric_ok

    return out


def _run_chunk(payload: tuple[Iterable[Graph], int]) -> dict[str, Any]:
    graphs, full_max = payload
    merged: dict[str, Any] = {
        "theorems": {name: {"examined": 0, "passes": 0, "counterexamples": [], "n_min": 0, "n_max": 0, "seconds": 0.0} for name in THEOREMS},
        "counting": {},
        "zero_l": [],
        "order_notes": [],
    }
    for g in graphs:
        record = _check_graph(g, g.n <= full_max)
        n = g.n
        row = merged["counting"].setdefault(n, dict.fromkeys(record["counts"], 0))
        for key, val in record["counts"].items():
            row[key] += val
        for name, (ok, detail, seconds) in record["checks"].items():
            agg = merged["theorems"][name]
            agg["examined"] += 1
            agg["seconds"] += seconds
            agg["n_min"] = n if not agg["n_min"] else min(agg["n_min"], n)
            agg["n_max"] = max(agg["n_max"], n)
            if ok:
                agg["passes"] += 1
            else:
                agg["counterexamples"].append({"n": n, "graph6": graph6_encode(g), "detail": detail})
        if record["zero_l_diverges"]:
            merged["zero_l"].append(graph6_encode(g))
        if record["order_note"]:
            merged["order_notes"].append({"graph6": graph6_encode(g), **record["order_note"]})
    return merged


def _merge(parts: list[dict[str, Any]], elapsed: float) -> BatteryResult:
    reports = []
    for name in THEOREMS:
        rep = VerificationReport(theorem=name)
        for part in parts:
            agg = part["theorems"][name]
            rep.examined += agg["examined"]
            rep.passes += agg["passes"]
            rep.seconds += agg["seconds"]
            rep.counterexamples.extend(agg["counterexamples"])
            if agg["n_min"]:
                rep.n_min = agg["n_min"] if not rep.n_min else min(rep.n_min, agg["n_min"])
            rep.n_max = max(rep.n_max, agg["n_max"])
        rep.counterexamples.sort(key=lambda c: (c["n"], c["graph6"]))
        reports.append(rep)
    counting: dict[int, dict[str, int]] = {}
    for part in parts:
        for n, row in part["counting"].items():
            dest = counting.setdefault(n, dict.fromkeys(row, 0))
            for key, val in row.items():
                dest[key] += val
    zero_l = sorted({g6 for part in parts for g6 in part["zero_l"]})
    notes = sorted(
        (note for part in parts for note in part["order_notes"]),
        key=lambda d: d["graph6"],
    )
    return BatteryResult(reports, counting, zero_l, notes, elapsed)


def verify_all(
    n_max: int = FULL_BATTERY_MAX,
    *,
    source: str = "builtin",
    path: str | None = None,
    workers: int = 1,
    full_battery_max: int = FULL_BATTERY_MAX,
) -> BatteryResult:
    """Run the whole battery over the builtin generator or a graph6 file.

    Graphs with more than ``full_battery_max`` vertices only run the
    decomposition round trip.  With ``workers > 1`` the stream is
    partitioned by a stable hash of each graph's adjacency masks (the
    canonical ones from the generator, the ones as read from a file);
    reports merge associatively, so the outcome is identical for any
    worker count.  Each input ``Graph`` is validated once, by the reader
    or the generator, and reaches the checks as that value; workers get
    it pickled, which does not validate it again.  Raises ``RangeError``
    when ``n_max < 1``, since such a run would check nothing.
    """
    start = time.perf_counter()
    if n_max < 1:
        raise RangeError(f"the battery needs n_max >= 1, got {n_max}")
    if source == "builtin":
        graphs: Iterable[Graph] = (g for n in range(1, n_max + 1) for g in connected_classes(n))
    elif source == "file":
        if path is None:
            raise ValueError("file source needs a path")
        graphs = (g for g in ingest_graph6(path) if g.n <= n_max)
    else:
        raise ValueError(f"unknown source {source!r}")

    if workers <= 1:
        parts = [_run_chunk((graphs, full_battery_max))]
    else:
        buckets: list[list[Graph]] = [[] for _ in range(workers)]
        for g in graphs:
            buckets[_stable_hash(g.adj) % workers].append(g)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [(b, full_battery_max) for b in buckets]))
    return _merge(parts, time.perf_counter() - start)


def _ran(rep: VerificationReport) -> str:
    return f"n = {rep.n_min}..{rep.n_max}" if rep.examined else "never ran"


def render_table(result: BatteryResult) -> str:
    """Human-readable summary of the reports and the counting table.

    Names every theorem that stopped below the table's largest n, so the
    summary lines claim only the ranges that were checked.
    """
    lines = []
    width = max(len(name) for name in THEOREMS)
    lines.append(f"{'theorem':<{width}}  {'range':>7}  {'examined':>8}  {'passes':>8}  {'fails':>5}")
    for rep in result.reports:
        rng = f"{rep.n_min}..{rep.n_max}" if rep.examined else "-"
        lines.append(
            f"{rep.theorem:<{width}}  {rng:>7}  {rep.examined:>8}  {rep.passes:>8}  {len(rep.counterexamples):>5}"
        )
    lines.append("")
    lines.append(f"{'n':>2}  {'graphs':>6}  {'two_sc':>6}  {'minimal':>7}  {'maximal':>7}  {'tri_free_2sc':>12}")
    for n, row in sorted(result.counting.items()):
        lines.append(
            f"{n:>2}  {row['graphs']:>6}  {row['two_sc']:>6}  {row['edge_minimal']:>7}  "
            f"{row['edge_maximal']:>7}  {row['triangle_free_two_sc']:>12}"
        )
    lines.append("")
    top = max(result.counting, default=0)
    short = [rep for rep in result.reports if rep.n_max < top]
    if short:
        lines.append(f"checked below n = {top} only: " + ", ".join(f"{r.theorem} ({_ran(r)})" for r in short))
    if result.zero_l_divergences:
        lines.append(f"zero-l rule readings diverge on {len(result.zero_l_divergences)} graph(s): "
                     + " ".join(result.zero_l_divergences))
    else:
        lines.append("zero-l rule readings: no graph distinguishes them")
    if result.order_dependence:
        lines.append(f"reduction order notes: {result.order_dependence}")
    else:
        classified = next(r for r in result.reports if r.theorem == "triangle_classification")
        note = f"deterministic order never failed ({_ran(classified)})" if classified.examined else "none ran"
        lines.append(f"reduction order notes: {note}")
    total = f"total counterexamples: {result.counterexample_total()}"
    if result.counting:
        total += f" over n = {min(result.counting)}..{top}"
    if short:
        total += f", {len(short)} of {len(result.reports)} theorems checked below n = {top} only"
    lines.append(total)
    return "\n".join(lines)
