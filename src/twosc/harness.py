"""The theorem battery: exhaustive machine verification over small graphs.

Every generated (or ingested) graph is pushed through each applicable
check; failures become counterexample records carrying the graph6 string
so they can be reproduced externally.  Graphs above the full-battery
limit (``FULL_BATTERY_MAX`` by default, every size the generator reaches)
only run the decomposition round trip.  The triangle classification
requires that a minimal graph's reduction trace succeed and replay.
Worker processes take shares of the stream through
``enumeration._split``, and the parts' results merge as values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Iterable

from .core import Graph, has_triangle
from .enumeration import GENERATOR_MAX, RangeError, _split, _usable_cpus, connected_classes
from .gcb import assemble, decompose_triangle_free, validate_gcb_spec
from .io import graph6_encode, ingest_graph6
from .recognition import (
    _bipartite_sides_agree,
    complement_star_certificate,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    has_critical_triple,
    is_edge_minimal,
    metric_two_self_centered,
)
from .reduction import classify_edge_minimal_with_triangles, replay_trace

FULL_BATTERY_MAX = 8

COUNTS = ("graphs", "two_sc", "edge_minimal", "edge_maximal", "triangle_free_two_sc")

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
    shared prelude (the 2SC test, the counting table's minimality and
    maximality, and the complement certificate) is charged to no theorem,
    and the reduction's search to ``triangle_classification``.  ``n_min``
    is 0 while no graph has been examined.
    """

    theorem: str
    n_min: int = 0
    n_max: int = 0
    examined: int = 0
    passes: int = 0
    counterexamples: list[dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, g: Graph, ok: bool, detail: dict[str, Any] | None, seconds: float) -> None:
        """Count one examined graph; a failure keeps its graph6 and ``detail``."""
        n = len(g.adj)
        if not self.examined or n < self.n_min:
            self.n_min = n
        if n > self.n_max:
            self.n_max = n
        self.examined += 1
        self.seconds += seconds
        if ok:
            self.passes += 1
        else:
            self.counterexamples.append({"n": n, "graph6": graph6_encode(g), "detail": detail})

    def merge(self, other: VerificationReport) -> VerificationReport:
        """The report over both streams; counterexamples sorted by (n, graph6)."""
        return VerificationReport(
            self.theorem,
            min(self.n_min or other.n_min, other.n_min or self.n_min),
            max(self.n_max, other.n_max),
            self.examined + other.examined,
            self.passes + other.passes,
            sorted(self.counterexamples + other.counterexamples, key=lambda c: (c["n"], c["graph6"])),
            self.seconds + other.seconds,
        )

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
    """All reports plus the per-n counting table.

    ``seconds`` is the wall time of the run that produced the result; a
    merge adds the parts' times, and ``verify_all`` reports its own.
    """

    reports: list[VerificationReport]
    counting: dict[int, dict[str, int]]
    seconds: float

    @staticmethod
    def empty() -> BatteryResult:
        """The result over no graphs, which merging leaves unchanged."""
        return BatteryResult([VerificationReport(name) for name in THEOREMS], {}, 0.0)

    def merge(self, other: BatteryResult) -> BatteryResult:
        """The result over both streams.

        Associative, and the only place where the counterexamples are
        sorted, so a run gives the same JSON however its graphs were
        split.
        """
        counting = {n: dict(row) for n, row in self.counting.items()}
        for n, row in other.counting.items():
            dest = counting.setdefault(n, dict.fromkeys(row, 0))
            for key, val in row.items():
                dest[key] += val
        return BatteryResult(
            [mine.merge(theirs) for mine, theirs in zip(self.reports, other.reports)],
            counting,
            self.seconds + other.seconds,
        )

    def counterexample_total(self) -> int:
        return sum(len(r.counterexamples) for r in self.reports)

    def to_json(self) -> dict[str, Any]:
        return {
            "reports": [r.to_json() for r in self.reports],
            "counting": {str(n): row for n, row in sorted(self.counting.items())},
            "seconds": round(self.seconds, 3),
        }


def _check_graph(g: Graph, full: bool, part: BatteryResult, reports: dict[str, VerificationReport]) -> None:
    """Run the battery on one graph and record its outcomes in ``part``.

    ``reports`` maps each theorem to its report in ``part``; ``_run_chunk``
    builds it once per stream rather than once per graph.
    """
    clock = time.perf_counter
    two_sc = g.two_sc
    triangle_free = not has_triangle(g)
    minimal = is_edge_minimal(g).minimal if two_sc else False
    cert = complement_star_certificate(g) if two_sc else None
    maximal_char = cert is not None and cert.maximal
    row = part.counting.get(g.n)
    if row is None:
        row = part.counting[g.n] = dict.fromkeys(COUNTS, 0)
    for key, val in zip(COUNTS, (1, two_sc, minimal, maximal_char, two_sc and triangle_free)):
        row[key] += val

    if full:
        start = clock()
        metric = metric_two_self_centered(g)
        reports["recognition_matches_metric"].record(
            g,
            two_sc == metric,
            None if two_sc == metric else {"conditions": two_sc, "metric": metric},
            clock() - start,
        )

        start = clock()
        left = cert is not None and not cert.complement_connected and minimal
        reports["bipartite_minimal_proposition"].record(g, _bipartite_sides_agree(g, left), None, clock() - start)

        if two_sc:
            start = clock()
            defn_max = edge_maximal_by_definition(g)
            reports["edge_maximal_complement_stars"].record(
                g,
                maximal_char == defn_max,
                None if maximal_char == defn_max else {"characterization": maximal_char, "definition": defn_max},
                clock() - start,
            )

            start = clock()
            forward_ok = minimal or not triangle_free
            converse_ok = triangle_free or not (minimal and not has_critical_triple(g))
            reports["triangle_free_minimality"].record(
                g,
                forward_ok and converse_ok,
                None if forward_ok and converse_ok else {"forward": forward_ok, "converse": converse_ok},
                clock() - start,
            )

            if not triangle_free:
                start = clock()
                cls = classify_edge_minimal_with_triangles(g)
                agree = cls.minimal == minimal
                trace_ok = cls.trace is None or (cls.trace.succeeded and replay_trace(g, cls.trace))
                reports["triangle_classification"].record(
                    g,
                    agree and trace_ok,
                    None if agree and trace_ok else {"classified": cls.minimal, "definition": minimal, "trace_ok": trace_ok},
                    clock() - start,
                )

            start = clock()
            sub = greedy_edge_minimal(g)
            sup = greedy_edge_maximal(g)
            sub_ok = (
                all(not s & ~m for s, m in zip(sub.adj, g.adj))
                and sub.two_sc
                and is_edge_minimal(sub).minimal
            )
            sup_ok = (
                all(not m & ~s for s, m in zip(sup.adj, g.adj))
                and sup.two_sc
                and edge_maximal_by_definition(sup)
            )
            reports["sandwich_existence"].record(
                g,
                sub_ok and sup_ok,
                None if sub_ok and sup_ok else {"subgraph_ok": sub_ok, "supergraph_ok": sup_ok},
                clock() - start,
            )

    if two_sc and triangle_free:
        start = clock()
        spec, roles = decompose_triangle_free(g)
        rebuilt = assemble(spec)
        equal = rebuilt == g.relabel(roles.order)
        validation = validate_gcb_spec(spec)
        ok = equal and validation.passed
        reports["gcb_round_trip"].record(
            g,
            ok,
            None
            if ok
            else {
                "rebuild_equal": equal,
                "sbic": validation.sbic is not None and validation.sbic.passed,
                "validation": validation.passed,
            },
            clock() - start,
        )


def _run_chunk(full_max: int, graphs: Iterable[Graph]) -> BatteryResult:
    """The battery over one stream of graphs, full up to ``full_max`` vertices."""
    start = time.perf_counter()
    part = BatteryResult.empty()
    reports = {rep.theorem: rep for rep in part.reports}
    for g in graphs:
        _check_graph(g, g.n <= full_max, part, reports)
    part.seconds = time.perf_counter() - start
    return part


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
    decomposition round trip.  With ``workers > 1`` the stream is read
    into a list and dealt into that many shares by position
    (``enumeration._split``): the caller works the first and one child
    process each of the others.  Reports merge associatively, so the
    outcome is identical for any worker count.  There are never more
    shares than usable CPUs, and one share streams the input without
    holding it.  Each input ``Graph`` is validated once, by the reader
    or the generator, and reaches the checks as that value; children get
    it pickled, which does not validate it again.  Raises ``RangeError``
    when ``n_max < 1``, since such a run would check nothing, and, before
    any work, when the builtin source gets ``n_max > GENERATOR_MAX``.
    """
    start = time.perf_counter()
    if n_max < 1:
        raise RangeError(f"the battery needs n_max >= 1, got {n_max}")
    if source == "builtin":
        if n_max > GENERATOR_MAX:
            raise RangeError(f"generator supports 1..{GENERATOR_MAX} vertices, got n_max = {n_max}")
        graphs: Iterable[Graph] = (g for n in range(1, n_max + 1) for g in connected_classes(n))
    elif source == "file":
        if path is None:
            raise ValueError("file source needs a path")
        graphs = (g for g in ingest_graph6(path) if g.n <= n_max)
    else:
        raise ValueError(f"unknown source {source!r}")

    workers = max(1, min(workers, _usable_cpus()))
    parts = _split(_run_chunk, full_battery_max, graphs, workers)
    result = reduce(BatteryResult.merge, parts, BatteryResult.empty())
    result.seconds = time.perf_counter() - start
    return result


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
    total = f"total counterexamples: {result.counterexample_total()}"
    if result.counting:
        total += f" over n = {min(result.counting)}..{top}"
    if short:
        total += f", {len(short)} of {len(result.reports)} theorems checked below n = {top} only"
    lines.append(total)
    return "\n".join(lines)
