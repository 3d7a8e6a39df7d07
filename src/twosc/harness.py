"""The theorem battery: exhaustive machine verification over small graphs.

Each theorem is one entry of ``THEOREMS``, whose check runs on every
graph it applies to; the entries and the per-n counting table read one
``Facts`` record per graph.  ``n_max`` is the one range for the builtin
generator and for graph6 files, and every graph in it gets every
theorem.  Failures become counterexample records carrying the graph6
string so they can be reproduced externally.  The triangle
classification requires that a minimal graph's reduction trace succeed
and replay.  Shares of the source (``enumeration._split``) merge as values.

Each share takes its stream in blocks of ``BLOCK`` graphs: it computes
the block's facts records, counts them into the table, then hands each
theorem's check the block's records it applies to, between one pair of
clock reads.  So a theorem's seconds are timed per block, and still
cover only its own checks.  ``facts`` reads the 2SC test, triangles and
edge-minimality of a block's graphs from the common-neighbour kernels
of its runs (``core.kernel_block``), and ``sandwich_existence``
re-derives its greedy graphs' properties from kernels of the same runs
of greedy graphs.  ``_runs`` chooses the runs in one place: one per lane
width for graphs with n <= ``core.BLOCK_MAX_N``, and runs of one above
it.  The other checks take the block one graph at a time.
"""

from __future__ import annotations

import struct
import time
from functools import reduce
from itertools import islice
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .core import BLOCK_MAX_N, Graph, _lane_width, _remember, kernel_block, lane_groups, pack_slots
from .enumeration import GENERATOR_MAX, RangeError, _connected_walk, _split, _usable_cpus, graph_classes
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


def _runs(sizes: Iterable[int]) -> list[list[int]]:
    """The positions of a block's graphs, in the runs the kernel reads them in.

    One run per lane group when w <= ``BLOCK_MAX_N``, otherwise runs of
    one: a run of wider graphs costs more per graph than a run of one.
    """
    runs: list[list[int]] = []
    for w, where in lane_groups(sizes).items():
        runs += [where] if w <= BLOCK_MAX_N else [[i] for i in where]
    return runs


def facts(graphs: Sequence[Graph]) -> list[Facts]:
    """The facts records of a block of graphs, in order, which every theorem and the counting row read.

    Each run of ``_runs`` is read from one kernel: the 2SC test,
    triangle-freeness (no edge with a common neighbour) and
    edge-minimality (no deletable edge) come from its verdict words, and
    each 2SC graph's ``two_sc`` and ``common`` memos are filled with its
    slot, a run of one.
    """
    made: dict[int, Facts] = {}
    for where in _runs(len(g.adj) for g in graphs):
        made.update(zip(where, _run_facts([graphs[i] for i in where])))
    return [made[i] for i in range(len(graphs))]


def _run_facts(run: list[Graph]) -> list[Facts]:
    sizes = [len(g.adj) for g in run]
    w = _lane_width(max(sizes))
    kernel = kernel_block(pack_slots([g.adj for g in run], w), sizes, w)
    two_sc = kernel.two_sc()
    triangles = kernel.words(kernel.adjacency & kernel.one)
    deletable = kernel.words(kernel.deletable())
    chosen = [i for i, flag in enumerate(two_sc) if flag]
    for i, common in zip(chosen, kernel.slots(chosen)):
        _remember(run[i], two_sc=True, common=common)
    return [
        Facts(g, flag, not tri, flag and not edges, complement_star_certificate(g) if flag else None)
        for g, flag, tri, edges in zip(run, two_sc, triangles, deletable)
    ]


# A check's verdict and, on a failure, the detail its record keeps.
Outcome = tuple[bool, dict[str, Any] | None]


class Theorem(NamedTuple):
    """One theorem: ``check`` takes a block's records that ``applies`` admits and returns their outcomes, in order.

    Both are module-level, so a table pickles.  A check that reads one
    graph at a time is an ``_EachGraph`` over its per-graph function.
    """

    name: str
    applies: Callable[[Facts], bool]
    check: Callable[[Sequence[Facts]], list[Outcome]]


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


class _EachGraph:
    """A check over a block that runs a per-graph check on each record in turn; pickles by the function's name."""

    def __init__(self, check: Callable[[Facts], Outcome]) -> None:
        self.check = check

    def __call__(self, records: Sequence[Facts]) -> list[Outcome]:
        return [self.check(f) for f in records]


def _sandwich_existence(records: Sequence[Facts]) -> list[Outcome]:
    """The greedy subgraph and supergraph of each graph, checked again from their masks alone.

    Their ``Graph`` values are built without validation, so well-formedness
    is derived here: each must have the graph's n masks, in range, with no
    loop and equal to its transpose.  Then sub is inside g and g inside
    sup, sub is 2SC with no deletable edge, and sup is 2SC and edge-maximal
    by definition.  Each run of ``_runs`` reads all of it from kernels of
    its greedy graphs.
    """
    graphs = [f.g for f in records]
    subs = [greedy_edge_minimal(g) for g in graphs]
    sups = [greedy_edge_maximal(g) for g in graphs]
    verdicts: dict[int, tuple[bool, bool]] = {}
    for where in _runs(len(g.adj) for g in graphs):
        run = [graphs[i] for i in where]
        verdicts.update(zip(where, _run_sandwich(run, [subs[i] for i in where], [sups[i] for i in where])))
    pairs = [verdicts[i] for i in range(len(graphs))]
    return [(a and b, None if a and b else {"subgraph_ok": a, "supergraph_ok": b}) for a, b in pairs]


def _run_sandwich(run: list[Graph], subs: list[Graph], sups: list[Graph]) -> list[tuple[bool, bool]]:
    """The (subgraph, supergraph) verdicts of a run of graphs with their greedy graphs.

    A run whose greedy graphs ``_packed`` rejects is read again as runs of
    one, and a graph whose own run it rejects fails that side's check.
    """
    sizes = [len(g.adj) for g in run]
    w = _lane_width(max(sizes))
    x, sub, sup = pack_slots([g.adj for g in run], w), _packed(subs, sizes, w), _packed(sups, sizes, w)
    if len(run) > 1 and (sub is None or sup is None):
        return [pair for i in range(len(run)) for pair in _run_sandwich(run[i:i + 1], subs[i:i + 1], sups[i:i + 1])]
    lower_ok = [False]
    if sub is not None:
        lower = kernel_block(sub, sizes, w)
        bad = lower.words(lower.malformed(sub) | sub & ~x | lower.deletable())
        lower_ok = [not word and flag for word, flag in zip(bad, lower.two_sc())]
    upper_ok = [False]
    if sup is not None:
        upper = kernel_block(sup, sizes, w)
        bad = upper.words(upper.malformed(sup) | x & ~sup)
        upper_ok = [not word and flag for word, flag in zip(bad, upper.two_sc())]
        for i, big in enumerate(sups):
            if upper_ok[i]:
                _remember(big, two_sc=True)
                upper_ok[i] = edge_maximal_by_definition(big)
    return list(zip(lower_ok, upper_ok))


def _packed(graphs: list[Graph], sizes: list[int], w: int) -> int | None:
    """``pack_slots`` of the graphs' masks, or None when it raises or a graph's mask count is not its size."""
    if any(len(h.adj) != n for h, n in zip(graphs, sizes)):
        return None
    try:
        return pack_slots([h.adj for h in graphs], w)
    except struct.error:
        return None


THEOREMS = (
    Theorem("recognition_matches_metric", _any_graph, _EachGraph(_recognition_matches_metric)),
    Theorem("edge_maximal_complement_stars", _two_sc, _EachGraph(_edge_maximal_complement_stars)),
    Theorem("bipartite_minimal_proposition", _any_graph, _EachGraph(_bipartite_minimal_proposition)),
    Theorem("triangle_free_minimality", _two_sc, _EachGraph(_triangle_free_minimality)),
    Theorem("gcb_round_trip", _triangle_free_two_sc, _EachGraph(_gcb_round_trip)),
    Theorem("triangle_classification", _two_sc_with_triangles, _EachGraph(_triangle_classification)),
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

    ``seconds`` is the time inside this theorem's checks, timed once per
    block of graphs and summed over blocks and worker processes, so with
    workers it can exceed the wall time.  The shared prelude, ``facts``,
    is timed apart in ``BatteryResult.facts_seconds``, and the
    reduction's search is charged to ``triangle_classification``.
    ``n_min`` is 0 while no graph has been examined.
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

    def record(self, graphs: Sequence[Graph], outcomes: Sequence[Outcome], seconds: float) -> None:
        """Count a nonempty block of examined graphs and its checks' seconds; a failure keeps its graph6 and detail."""
        sizes = [len(g.adj) for g in graphs]
        low = min(sizes)
        if not self.examined or low < self.n_min:
            self.n_min = low
        self.n_max = max(self.n_max, *sizes)
        self.examined += len(graphs)
        self.seconds += seconds
        fails = [(n, g, detail) for n, g, (ok, detail) in zip(sizes, graphs, outcomes) if not ok]
        self.passes += len(graphs) - len(fails)
        self.counterexamples += [{"n": n, "graph6": graph6_encode(g), "detail": detail} for n, g, detail in fails]

    def merge(self, other: VerificationReport) -> VerificationReport:
        """The report over both streams; counterexamples sorted by (n, graph6)."""
        return VerificationReport(
            self.theorem,
            min((r.n_min for r in (self, other) if r.examined), default=0),
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
    ``facts_seconds`` is the time spent computing the ``facts`` records,
    summed over blocks and worker processes like a report's ``seconds``.
    """

    __slots__ = ("reports", "counting", "seconds", "facts_seconds")

    def __init__(
        self,
        reports: list[VerificationReport],
        counting: dict[int, dict[str, int]],
        seconds: float,
        facts_seconds: float = 0.0,
    ) -> None:
        self.reports = reports
        self.counting = counting
        self.seconds = seconds
        self.facts_seconds = facts_seconds

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
            self.facts_seconds + other.facts_seconds,
        )

    def counterexample_total(self) -> int:
        return sum(len(r.counterexamples) for r in self.reports)

    def to_json(self) -> dict[str, Any]:
        return {
            "reports": [r.to_json() for r in self.reports],
            "counting": {str(n): row for n, row in sorted(self.counting.items())},
            "seconds": round(self.seconds, 3),
            "facts_seconds": round(self.facts_seconds, 3),
        }


# Graphs per block of ``_run_chunk``: each block's facts records are
# held at once, and each theorem's checks over it are timed together.
BLOCK = 256
# The builtin battery's shares walk below level min(this, n_max - 1): 7 is the
# first level ``graph_classes`` splits, so the caller's largest level holds 1,044 graphs.
WALK_ROOT_LEVEL = 7


def _run_chunk(theorems: tuple[Theorem, ...], graphs: Iterable[Graph]) -> BatteryResult:
    """The battery table ``theorems`` over one stream of graphs, taken in blocks of ``BLOCK``."""
    clock = time.perf_counter
    start = clock()
    part = BatteryResult([VerificationReport(t.name) for t in theorems], {}, 0.0)
    stream = iter(graphs)
    while block := list(islice(stream, BLOCK)):
        begin = clock()
        records = facts(block)
        part.facts_seconds += clock() - begin
        for f in records:
            row = part.counting.setdefault(len(f.g.adj), dict.fromkeys(COUNTS, 0))
            maximal = f.cert is not None and f.cert.maximal
            for key, val in zip(COUNTS, (1, f.two_sc, f.minimal, maximal, f.two_sc and f.triangle_free)):
                row[key] += val
        for theorem, rep in zip(theorems, part.reports):
            _, applies, check = theorem
            chosen = [f for f in records if applies(f)]
            if chosen:
                begin = clock()
                outcomes = check(chosen)
                rep.record([f.g for f in chosen], outcomes, clock() - begin)
    part.seconds = clock() - start
    return part


def _run_walk(s_and_n_max: tuple[int, int], classes: Iterable[tuple[int, ...]]) -> BatteryResult:
    return _run_chunk(THEOREMS, _connected_walk(classes, *s_and_n_max))


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
    builtin items are the masks of the classes on levels 1..s, s =
    min(``WALK_ROOT_LEVEL``, n_max - 1) or 1; a share checks the connected
    ones and those it walks to below level s.  A file's graphs reach the
    shares pickled.  Reports merge associatively, so any worker count
    gives one result.  Raises ``RangeError`` when ``n_max < 1``, and
    before any work on a builtin ``n_max > GENERATOR_MAX``.

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
        s = max(1, min(WALK_ROOT_LEVEL, n_max - 1))
        work, arg = _run_walk, (s, n_max)
        items: Iterable[Any] = (g.adj for n in range(1, s + 1) for g in graph_classes(n))
    elif source == "file":
        if path is None:
            raise ValueError("file source needs a path")
        work, arg = _run_chunk, THEOREMS
        items = (g for g in ingest_graph6(path) if g.n <= n_max)
    else:
        raise ValueError(f"unknown source {source!r}")

    workers = max(1, min(workers, _usable_cpus()))
    result = reduce(BatteryResult.merge, _split(work, arg, items, workers), BatteryResult.empty())
    result.seconds = time.perf_counter() - start
    return result


def _ran(rep: VerificationReport) -> str:
    return f"n = {rep.n_min}..{rep.n_max}" if rep.examined else "never ran"


def render_table(result: BatteryResult) -> str:
    """Human-readable summary of the reports, the counting table and the facts prelude's time.

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
    lines += ["", f"facts prelude: {result.facts_seconds:.3f} s"]
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
