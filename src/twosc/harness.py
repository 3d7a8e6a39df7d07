"""The theorem battery: exhaustive machine verification over small graphs.

Each theorem is one entry of ``THEOREMS``, whose check runs on every
graph it applies to; the entries and the per-n counting table read one
``Facts`` record per graph.  ``n_max`` is the one range for the builtin
generator and for graph6 files, and every graph in it gets every
theorem.  Failures become counterexample records carrying the graph6
string so they can be reproduced externally.  The triangle
classification requires that a minimal graph's reduction trace succeed
and replay.  Worker processes take shares of the parents or of the file
through ``enumeration._split``, and the parts' results merge as values.
"""

from __future__ import annotations

import time
from functools import reduce
from typing import Any, Callable, Iterable, NamedTuple

from .core import Graph, has_triangle
from .enumeration import GENERATOR_MAX, RangeError, _connected_from, _split, _usable_cpus, graph_classes
from .gcb import assemble, decompose_triangle_free, validate_gcb_spec
from .io import graph6_encode, ingest_graph6
from .recognition import (
    MaximalityCertificate,
    bipartite_proposition_holds,
    complement_star_certificate,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    has_critical_triple,
    is_edge_minimal,
    metric_two_self_centered,
)
from .reduction import classify_edge_minimal_with_triangles, replay_trace

COUNTS = ("graphs", "two_sc", "edge_minimal", "edge_maximal", "triangle_free_two_sc")


class Facts(NamedTuple):
    """One graph's 2SC and triangle tests, edge-minimality (False off 2SC) and complement certificate (None off 2SC)."""

    g: Graph
    two_sc: bool
    triangle_free: bool
    minimal: bool
    cert: MaximalityCertificate | None


def facts(g: Graph) -> Facts:
    """The facts record of g, which every theorem and the counting row read."""
    two_sc = g.two_sc
    minimal = two_sc and is_edge_minimal(g).minimal
    return Facts(g, two_sc, not has_triangle(g), minimal, complement_star_certificate(g) if two_sc else None)


# A check's verdict and, on a failure, the detail its record keeps.
Outcome = tuple[bool, dict[str, Any] | None]


class Theorem(NamedTuple):
    """One theorem: ``check`` runs on each graph that ``applies`` admits; both are module-level, so a table pickles."""

    name: str
    applies: Callable[[Facts], bool]
    check: Callable[[Facts], Outcome]


def _any_graph(f: Facts) -> bool:
    return True


def _two_sc(f: Facts) -> bool:
    return f.two_sc


def _triangle_free_two_sc(f: Facts) -> bool:
    return f.two_sc and f.triangle_free


def _two_sc_with_triangles(f: Facts) -> bool:
    return f.two_sc and not f.triangle_free


def _recognition_matches_metric(f: Facts) -> Outcome:
    metric = metric_two_self_centered(f.g)
    ok = f.two_sc == metric
    return ok, None if ok else {"conditions": f.two_sc, "metric": metric}


def _edge_maximal_complement_stars(f: Facts) -> Outcome:
    maximal = f.cert is not None and f.cert.maximal
    definition = edge_maximal_by_definition(f.g)
    ok = maximal == definition
    return ok, None if ok else {"characterization": maximal, "definition": definition}


def _bipartite_minimal_proposition(f: Facts) -> Outcome:
    return bipartite_proposition_holds(f.g, f.cert, f.minimal), None


def _triangle_free_minimality(f: Facts) -> Outcome:
    forward = f.minimal or not f.triangle_free
    converse = f.triangle_free or not (f.minimal and not has_critical_triple(f.g))
    ok = forward and converse
    return ok, None if ok else {"forward": forward, "converse": converse}


def _gcb_round_trip(f: Facts) -> Outcome:
    spec, roles = decompose_triangle_free(f.g)
    equal = assemble(spec) == f.g.relabel(roles.order)
    validation = validate_gcb_spec(spec)
    ok = equal and validation.passed
    return ok, None if ok else {"rebuild_equal": equal, "sbic": validation.sbic.passed, "validation": validation.passed}


def _triangle_classification(f: Facts) -> Outcome:
    cls = classify_edge_minimal_with_triangles(f.g)
    trace_ok = cls.trace is None or (cls.trace.succeeded and replay_trace(f.g, cls.trace))
    ok = cls.minimal == f.minimal and trace_ok
    return ok, None if ok else {"classified": cls.minimal, "definition": f.minimal, "trace_ok": trace_ok}


def _sandwich_existence(f: Facts) -> Outcome:
    g = f.g
    sub = greedy_edge_minimal(g)
    sup = greedy_edge_maximal(g)
    sub_ok = all(not s & ~m for s, m in zip(sub.adj, g.adj)) and sub.two_sc and is_edge_minimal(sub).minimal
    sup_ok = all(not m & ~s for s, m in zip(sup.adj, g.adj)) and sup.two_sc and edge_maximal_by_definition(sup)
    ok = sub_ok and sup_ok
    return ok, None if ok else {"subgraph_ok": sub_ok, "supergraph_ok": sup_ok}


THEOREMS = (
    Theorem("recognition_matches_metric", _any_graph, _recognition_matches_metric),
    Theorem("edge_maximal_complement_stars", _two_sc, _edge_maximal_complement_stars),
    Theorem("bipartite_minimal_proposition", _any_graph, _bipartite_minimal_proposition),
    Theorem("triangle_free_minimality", _two_sc, _triangle_free_minimality),
    Theorem("gcb_round_trip", _triangle_free_two_sc, _gcb_round_trip),
    Theorem("triangle_classification", _two_sc_with_triangles, _triangle_classification),
    Theorem("sandwich_existence", _two_sc, _sandwich_existence),
)


class _Report:
    """A mutable record whose fields are its ``__slots__``: equal field by field, unhashable."""

    __slots__ = ()

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class VerificationReport(_Report):
    """Outcome of one theorem check over a graph stream.

    ``seconds`` is the time inside this theorem's check, summed over graphs
    and worker processes, so with workers it can exceed the wall time.  The
    shared prelude, ``facts``, is charged to no theorem, and the
    reduction's search to ``triangle_classification``.  ``n_min`` is 0
    while no graph has been examined.
    """

    __slots__ = ("theorem", "n_min", "n_max", "examined", "passes", "counterexamples", "seconds")

    def __init__(
        self,
        theorem: str,
        n_min: int = 0,
        n_max: int = 0,
        examined: int = 0,
        passes: int = 0,
        counterexamples: list[dict[str, Any]] | None = None,
        seconds: float = 0.0,
    ) -> None:
        self.theorem = theorem
        self.n_min = n_min
        self.n_max = n_max
        self.examined = examined
        self.passes = passes
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.seconds = seconds

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
        doc = {name: getattr(self, name) for name in self.__slots__}
        doc["counterexamples"] = list(self.counterexamples)
        doc["seconds"] = round(self.seconds, 3)
        return doc


class BatteryResult(_Report):
    """All reports plus the per-n counting table.

    ``seconds`` is the wall time of the run that produced the result; a
    merge adds the parts' times, and ``verify_all`` reports its own.
    """

    __slots__ = ("reports", "counting", "seconds")

    def __init__(self, reports: list[VerificationReport], counting: dict[int, dict[str, int]], seconds: float) -> None:
        self.reports = reports
        self.counting = counting
        self.seconds = seconds

    @staticmethod
    def empty() -> BatteryResult:
        """The result over no graphs, which merging leaves unchanged."""
        return BatteryResult([VerificationReport(t.name) for t in THEOREMS], {}, 0.0)

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


def _check_graph(g: Graph, theorems: tuple[Theorem, ...], part: BatteryResult) -> None:
    """Count g in ``part``'s table, and record each entry of ``theorems`` that applies in its report."""
    clock = time.perf_counter
    f = facts(g)
    row = part.counting.setdefault(g.n, dict.fromkeys(COUNTS, 0))
    maximal = f.cert is not None and f.cert.maximal
    for key, val in zip(COUNTS, (1, f.two_sc, f.minimal, maximal, f.two_sc and f.triangle_free)):
        row[key] += val
    for theorem, rep in zip(theorems, part.reports):
        if theorem.applies(f):
            start = clock()
            ok, detail = theorem.check(f)
            rep.record(g, ok, detail, clock() - start)


def _run_chunk(theorems: tuple[Theorem, ...], graphs: Iterable[Graph]) -> BatteryResult:
    """The battery table ``theorems`` over one stream of graphs."""
    start = time.perf_counter()
    part = BatteryResult([VerificationReport(t.name) for t in theorems], {}, 0.0)
    for g in graphs:
        _check_graph(g, theorems, part)
    part.seconds = time.perf_counter() - start
    return part


def _run_streamed(theorems: tuple[Theorem, ...], pairs: Iterable[tuple[int, tuple[int, ...]]]) -> BatteryResult:
    """The battery table ``theorems`` over the connected classes streamed from these (n, parent masks) pairs."""
    return _run_chunk(theorems, _connected_from(pairs))


def verify_all(
    n_max: int = GENERATOR_MAX,
    *,
    source: str = "builtin",
    path: str | None = None,
    workers: int = 1,
    full_battery_max: int | None = None,
) -> BatteryResult:
    """Run every theorem over the builtin generator or a graph6 file.

    ``n_max``, by default ``GENERATOR_MAX``, is the one range for both
    sources: each graph with at most ``n_max`` vertices runs every
    theorem that applies to it.  ``enumeration._split`` deals the items
    by position to ``workers`` shares, at most one per usable CPU.  The
    builtin items are (n, parent masks) pairs, n = 2..``n_max``; each
    share checks the connected classes it streams from its parents, so
    no ``Graph`` is held or pickled, and the caller checks K1.  A file's
    graphs reach the shares pickled.  Reports merge associatively, so
    any worker count gives one result.  Raises ``RangeError`` when
    ``n_max < 1``, and before any work on a builtin ``n_max > GENERATOR_MAX``.

    ``full_battery_max`` limits nothing.  The benchmark's ``battery-n8``
    passes ``n_max``, and the keyword goes away with ROADMAP item 9's
    benchmark change.  A value below ``n_max`` raises ValueError.
    """
    start = time.perf_counter()
    if n_max < 1:
        raise RangeError(f"the battery needs n_max >= 1, got {n_max}")
    if full_battery_max is not None and full_battery_max < n_max:
        raise ValueError(f"full_battery_max must be at least n_max = {n_max}, got {full_battery_max}")
    if source == "builtin":
        if n_max > GENERATOR_MAX:
            raise RangeError(f"generator supports 1..{GENERATOR_MAX} vertices, got n_max = {n_max}")
        head, work = _run_chunk(THEOREMS, graph_classes(1)), _run_streamed
        items: Iterable[Any] = ((n, g.adj) for n in range(2, n_max + 1) for g in graph_classes(n - 1))
    elif source == "file":
        if path is None:
            raise ValueError("file source needs a path")
        head, work = BatteryResult.empty(), _run_chunk
        items = (g for g in ingest_graph6(path) if g.n <= n_max)
    else:
        raise ValueError(f"unknown source {source!r}")

    workers = max(1, min(workers, _usable_cpus()))
    result = reduce(BatteryResult.merge, _split(work, THEOREMS, items, workers), head)
    result.seconds = time.perf_counter() - start
    return result


def _ran(rep: VerificationReport) -> str:
    return f"n = {rep.n_min}..{rep.n_max}" if rep.examined else "never ran"


def render_table(result: BatteryResult) -> str:
    """Human-readable summary of the reports and the counting table.

    Names every theorem that stopped below the table's largest n, so the
    summary lines claim only the ranges that were checked.
    """
    width = max(len(t.name) for t in THEOREMS)
    lines = [f"{'theorem':<{width}}  {'range':>7}  {'examined':>8}  {'passes':>8}  {'fails':>5}"]
    for rep in result.reports:
        rng = f"{rep.n_min}..{rep.n_max}" if rep.examined else "-"
        lines.append(
            f"{rep.theorem:<{width}}  {rng:>7}  {rep.examined:>8}  {rep.passes:>8}  {len(rep.counterexamples):>5}"
        )
    lines += ["", f"{'n':>2}  {'graphs':>6}  {'two_sc':>6}  {'minimal':>7}  {'maximal':>7}  {'tri_free_2sc':>12}"]
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
