"""The three workloads and the checks on their outputs.

Each runner takes the imported ``twosc`` package, the run's config and
an optional tracer, performs the workload's timed load, checks every
output outside the timed region, and returns an ``Outcome``.  Functions
are looked up through their module at call time, so the tracer's
wrappers are reached when tracing is on.  Each runner also samples the
reference loop (refloop.py) next to its load, outside the timed region.

``attempted`` and ``failed`` count each operation of the workload's
fixed input once, so they depend on the seed and the program only, not
on how many times the time budget lets the load repeat.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from dataclasses import dataclass, field
from statistics import median
from typing import Any

import oracle
import refloop

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FROZEN = os.path.join(DATA, "connected_n8.g6")
REF_SAMPLES = 10   # reference samples before and after a fixed load (about 16 ms each)
REF_INTERVAL = 0.1  # seconds between reference samples during a fixed load
REF_EVERY = 32     # query-mix: one reference sample per this many requests
TRACED_PASSES = 2  # query-mix: a traced run serves the requests this many times
BLOCKS = 32        # query-mix: 64 requests each, so 2048 distinct requests


def expected() -> dict[str, Any]:
    with open(os.path.join(DATA, "expected.json"), encoding="ascii") as handle:
        return json.load(handle)


def frozen_by_n() -> dict[int, set[str]]:
    """The frozen records grouped by vertex count (the graph6 size byte)."""
    out: dict[int, set[str]] = {}
    with open(FROZEN, encoding="ascii") as handle:
        for line in handle:
            rec = line.strip()
            out.setdefault(ord(rec[0]) - 63, set()).add(rec)
    return out


@dataclass
class Outcome:
    walls: list[float] = field(default_factory=list)       # seconds per repeat of the fixed load
    refs: list[float] = field(default_factory=list)        # reference-loop seconds next to each repeat
    latencies_ms: list[float] = field(default_factory=list)  # query-mix: each request's median over passes
    latencies_ref: list[float] = field(default_factory=list)  # the same, each pass over its reference time
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)      # benchmark checks that failed
    failures: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)  # (kind, graph6) -> (reason, detail)
    failed_by_kind: dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str, graph6: str, reason: str, detail: str = "") -> None:
        self.failed += 1
        self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1
        self.failures.setdefault((kind, graph6), (reason, detail))


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer else contextlib.nullcontext()


# ------------------------------------------------------------ generate-n8

def generate(twosc: Any, cfg: dict, tracer: Any) -> Outcome:
    """Cold graph_classes(n) and connected_classes(n) for n = 1..n_max."""
    n_max = 6 if cfg["smoke"] else 8
    enum = twosc.enumeration
    out = Outcome()
    ref = refloop.Reference()
    ref.take(REF_SAMPLES)
    mark = len(ref.samples)
    with _span(tracer, "workload"), ref.every(None if tracer else REF_INTERVAL):
        start = time.perf_counter()
        for n in range(1, n_max + 1):
            enum.graph_classes(n)
            enum.connected_classes(n)
        out.walls.append(time.perf_counter() - start - sum(ref.samples[mark:]))
    ref.take(REF_SAMPLES)
    out.refs.append(ref.seconds())

    exp = expected()
    frozen = frozen_by_n()
    for n in range(1, n_max + 1):
        out.attempted += 2
        every = enum.graph_classes(n)
        if len(every) != exp["all_graph_counts"][n - 1]:
            out.problems.append(f"graph_classes({n}) has {len(every)} classes, published {exp['all_graph_counts'][n - 1]}")
            out.fail("graph_classes", str(n), "class count")
        conn = enum.connected_classes(n)
        if {oracle.g6_encode(g.adj) for g in conn} == frozen[n] and len(conn) == len(frozen[n]):
            continue
        # The representatives differ from the frozen ones: compare the
        # classes through the program's current canonical form.
        want = {twosc.canon.canonical_masks(oracle.g6_decode(r)) for r in frozen[n]}
        if len(conn) != len(want) or {g.adj for g in conn} != want:
            out.problems.append(f"connected_classes({n}) differs from the frozen records")
            out.fail("connected_classes", str(n), "record set")
    return out


# ------------------------------------------------------------ battery-n8

def battery(twosc: Any, cfg: dict, tracer: Any) -> Outcome:
    """verify_all over the frozen file, full battery up to n_max."""
    n_max = 6 if cfg["smoke"] else 8
    out = Outcome()
    ref = refloop.Reference()
    ref.take(REF_SAMPLES)
    mark = len(ref.samples)
    with _span(tracer, "workload"), ref.every(None if tracer else REF_INTERVAL):
        start = time.perf_counter()
        result = twosc.harness.verify_all(n_max, source="file", path=FROZEN, full_battery_max=n_max, workers=1)
        out.walls.append(time.perf_counter() - start - sum(ref.samples[mark:]))
    ref.take(REF_SAMPLES)
    out.refs.append(ref.seconds())

    doc = result.to_json()
    want = {n: row for n, row in expected()["counting"].items() if int(n) <= n_max}
    if doc["counting"] != want:
        out.problems.append(f"counting table differs from the seed's: {doc['counting']}")
    for report in doc["reports"]:
        out.attempted += report["examined"]
        for cex in report["counterexamples"]:
            out.fail(report["theorem"], cex["graph6"], "counterexample", json.dumps(cex["detail"], sort_keys=True))
    return out


# ------------------------------------------------------------ query-mix

def serve(twosc: Any, kind: str, record: str) -> Any:
    """What one CLI command computes and prints, without argparse."""
    io, gcb = twosc.io, twosc.gcb
    g = io.graph6_decode(record)
    if kind == "check":
        rec = twosc.recognition
        verdict = rec.is_two_self_centered(g)
        doc: dict[str, Any] = {"graph6": io.graph6_encode(g), "n": g.n, "verdict": verdict.to_json()}
        if verdict.is_2sc:
            doc["edge_maximal"] = rec.is_edge_maximal(g).to_json()
            doc["edge_minimal"] = rec.is_edge_minimal(g).to_json()
            doc["critical_triples"] = [t.to_json() for t in rec.critical_triples(g)]
        return json.dumps([doc], indent=2)
    if kind == "decompose_build":
        spec, roles = gcb.decompose_triangle_free(g)
        doc = spec.to_json()
        doc["roles"] = roles.to_json()
        doc["graph6"] = io.graph6_encode(g)
        text = json.dumps(doc, indent=2)
        built = gcb.build_gcb(gcb.GcbSpec.from_json(json.loads(text)), zero_l_reading=gcb.PRINTED)
        return text, io.graph6_encode(built)
    trace = twosc.reduction.reduce_to_triangle_free(g)
    return json.dumps(trace.to_json(), indent=2)


def judge(req: oracle.Request, printed: Any) -> tuple[str | None, str, bool]:
    """(why the request failed or None, detail, whether the answer was wrong)."""
    exp = req.expect
    if req.kind == "check":
        doc = json.loads(printed)[0]
        if doc["verdict"]["is_2sc"] != exp["is_2sc"]:
            return "wrong 2SC verdict", "", True
        if exp["is_2sc"]:
            if doc["edge_maximal"]["maximal"] != exp["maximal"]:
                return "wrong edge-maximal verdict", "", True
            if doc["edge_minimal"]["minimal"] != exp["minimal"]:
                return "wrong edge-minimal verdict", "", True
            triples = sorted((t["vertex"], *t["pair"]) for t in doc["critical_triples"])
            if triples != [tuple(t) for t in exp["triples"]]:
                return "wrong critical triples", "", True
        return None, "", False
    if req.kind == "decompose_build":
        text, built = printed
        order = json.loads(text)["roles"]["order"]
        if oracle.g6_decode(built) != oracle.relabel(oracle.g6_decode(req.graph6), order):
            return "rebuilt graph differs from the input relabelled by roles.order", "", True
        return None, "", False
    doc = json.loads(printed)
    if doc["succeeded"]:
        final = oracle.g6_decode(doc["final"])
        if not (oracle.triangle_free(final) and oracle.is_2sc(final)):
            return "final graph is not a triangle-free 2SC graph", "", True
        return None, "", False
    if exp["minimal"]:
        return f"trace failed on an edge-minimal input: {doc['failure_reason']}", "", False
    return None, "", False


def query_mix(twosc: Any, cfg: dict, tracer: Any) -> Outcome:
    """A closed loop, one client, over a seeded stream of requests.

    The stream is served in passes until the time is up; a traced run
    serves a fixed number of passes, so that its counts repeat exactly.
    The first pass counts attempts and failures; every later pass must
    give each request the outcome it had in the first.  A request's
    latency is its median over the passes.
    """
    requests = oracle.make_requests(cfg["seed"], 1 if cfg["smoke"] else BLOCKS)
    if cfg["smoke"]:
        requests = requests[:32]
    passes = 1 if cfg["smoke"] else TRACED_PASSES if tracer else None
    out = Outcome()
    ref = refloop.Reference()
    first: list[str | None] = []
    pass_ms: list[array] = []
    deadline = time.perf_counter() + cfg["seconds"]
    rid = 0
    while True:
        served = 0.0
        mark = len(ref.samples)
        took_ms = array("d", bytes(8 * len(requests)))
        for i, req in enumerate(requests):
            if i % REF_EVERY == 0:
                ref.take()
            rid += 1
            if tracer:
                tracer.request_id = rid
            with _span(tracer, f"query.{req.kind}"):
                start = time.perf_counter()
                try:
                    printed = serve(twosc, req.kind, req.graph6)
                except Exception as exc:  # every exception is a failed request
                    printed = exc
                took = time.perf_counter() - start
            served += took
            took_ms[i] = took * 1e3
            if isinstance(printed, Exception):
                reason, detail, wrong = type(printed).__name__, str(printed)[:200], False
            else:
                reason, detail, wrong = judge(req, printed)
            if wrong and f"{req.kind} {req.graph6}: {reason}" not in out.problems:
                out.problems.append(f"{req.kind} {req.graph6}: {reason}")
            if len(first) < len(requests):
                first.append(reason)
                out.attempted += 1
                if reason:
                    out.fail(req.kind, req.graph6, reason, detail)
            elif reason != first[i]:
                problem = f"{req.kind} {req.graph6}: outcome changed between passes ({first[i]} -> {reason})"
                if problem not in out.problems:
                    out.problems.append(problem)
        out.walls.append(served)
        out.refs.append(ref.seconds(mark))
        pass_ms.append(took_ms)
        if len(out.walls) == passes or (passes is None and time.perf_counter() >= deadline):
            break
    for i in range(len(requests)):
        out.latencies_ms.append(median(ms[i] for ms in pass_ms))
        out.latencies_ref.append(median(ms[i] / (ref_s * 1e3) for ms, ref_s in zip(pass_ms, out.refs)))
    return out


RUNNERS = {"generate-n8": generate, "battery-n8": battery, "query-mix": query_mix}
