"""Spans around twosc's public functions, recorded from outside the package.

Each wrapped function is replaced at every module attribute of the
``twosc`` package that binds it, so a caller that looks it up through
its own module (``twosc.harness.is_edge_minimal``, say) reaches the
wrapper.  A span records name, start, end, parent span and request id;
spans stay in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from typing import Any, Callable, Iterator

# Every function the per-layer metrics name, as (module, attribute).
WRAPPED = (
    ("enumeration", "graph_classes"),
    ("canon", "canonical_masks"),
    ("harness", "verify_all"),
    *(("recognition", f) for f in (
        "condition_verdict", "metric_two_self_centered", "check_bipartite_proposition",
        "complement_star_certificate", "edge_maximal_by_definition", "is_edge_minimal",
        "has_critical_triple", "greedy_edge_minimal", "greedy_edge_maximal",
        "is_two_self_centered", "is_edge_maximal", "critical_triples",
    )),
    *(("gcb", f) for f in ("decompose_triangle_free", "assemble", "validate_gcb_spec", "build_gcb")),
    ("sbic", "verify_sbic"),
    *(("reduction", f) for f in (
        "classify_edge_minimal_with_triangles", "reduce_to_triangle_free",
        "replay_trace", "reduction_succeeds_in_any_order",
    )),
    ("io", "ingest_graph6"),
    ("io", "graph6_decode"),
    ("io", "graph6_encode"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(i)

    # -------------------------------------------------------- wrapping

    def _wrapper(self, fn: Callable, name: str, label: Callable | None) -> Callable:
        open_, close, intern = self.open, self.close, self.intern
        nid = intern(name)
        if inspect.isgeneratorfunction(fn):
            # Time each resumption; the caller's code between items is not ours.
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                gen = fn(*args, **kwargs)
                while True:
                    i = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            i = open_(intern(f"{name}.{label(*args)}") if label else nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return wrapper

    def install(self, package: Any) -> None:
        """Wrap every function in WRAPPED, and the Graph constructor."""
        modules = [m for k, m in list(sys.modules.items()) if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, attr in WRAPPED:
            orig = getattr(getattr(package, mod_name), attr)
            label = (lambda n, *_: f"n{n}") if attr == "graph_classes" else None
            wrapper = self._wrapper(orig, f"{mod_name}.{attr}", label)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        graph = package.core.Graph
        graph.__init__ = self._wrapper(graph.__init__, "core.Graph", None)

    # -------------------------------------------------------- summaries

    def summary(self) -> tuple[dict[str, dict[str, Any]], dict[tuple[str, str], list[float]]]:
        """Per span name: calls, inclusive and self seconds, durations.
        Per (name, parent name): [count, inclusive seconds]."""
        n = len(self.name)
        names, name, parent = self.names, self.name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += dur[i]
        per_name: dict[str, dict[str, Any]] = {
            nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []} for nm in names
        }
        per_pair: dict[tuple[str, str], list[float]] = {}
        for i in range(n):
            rec = per_name[names[name[i]]]
            rec["calls"] += 1
            rec["incl_s"] += dur[i]
            rec["self_s"] += dur[i] - covered[i]
            rec["durations"].append(dur[i])
            p = parent[i]
            key = (names[name[i]], names[name[p]] if p >= 0 else "")
            pair = per_pair.setdefault(key, [0, 0.0])
            pair[0] += 1
            pair[1] += dur[i]
        return per_name, per_pair


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


LEVEL_PREFIX = "enumeration.graph_classes."
RECOGNITION = [attr for mod, attr in WRAPPED if mod == "recognition"]
REDUCTION = [attr for mod, attr in WRAPPED if mod == "reduction"]
GCB_SELF = [f"{mod}.{attr}" for mod, attr in WRAPPED if mod in ("gcb", "sbic")]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced workload run."""
    per_name, per_pair = tracer.summary()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name: str) -> dict[str, Any]:
        return per_name.get(name, empty)

    def under(child: str, parent: str) -> list[float]:
        return per_pair.get((child, parent), [0, 0.0])

    m: dict[str, float] = {}
    # A level's time excludes the lower levels it asks for.
    for n in (7, 8):
        level = f"{LEVEL_PREFIX}n{n}"
        inner = sum(under(f"{LEVEL_PREFIX}n{k}", level)[1] for k in range(1, n))
        m[f"enumeration.level_s.n{n}"] = get(level)["incl_s"] - inner
    m["enumeration.candidates.n8"] = under("canon.canonical_masks", f"{LEVEL_PREFIX}n8")[0]

    canon = get("canon.canonical_masks")
    m["canon.canonical_masks.calls"] = canon["calls"]
    m["canon.canonical_masks.us_p50"] = quantile(canon["durations"], 0.5) * 1e6
    m["canon.canonical_masks.us_p99"] = quantile(canon["durations"], 0.99) * 1e6
    m["canon.canonical_masks.share"] = canon["self_s"] / wall if wall > 0 else 0.0

    m["core.Graph.calls"] = get("core.Graph")["calls"]
    m["core.Graph.self_s"] = get("core.Graph")["self_s"]

    m["harness.verify_all.s"] = get("harness.verify_all")["incl_s"]
    m["harness.self_s"] = get("harness.verify_all")["self_s"]

    for fn in RECOGNITION:
        rec = get(f"recognition.{fn}")
        m[f"recognition.{fn}.calls"] = rec["calls"]
        m[f"recognition.{fn}.self_s"] = rec["self_s"]
    m["recognition.crosscheck_s"] = sum(
        under(f"recognition.{inner}", f"recognition.{outer}")[1]
        for inner, outer in (
            ("metric_two_self_centered", "is_two_self_centered"),
            ("edge_maximal_by_definition", "is_edge_maximal"),
        )
    )

    for name in GCB_SELF:
        m[f"{name}.self_s"] = get(name)["self_s"]
    for fn in REDUCTION:
        rec = get(f"reduction.{fn}")
        m[f"reduction.{fn}.self_s"] = rec["self_s"]
        m[f"reduction.{fn}.calls"] = rec["calls"]

    m["io.ingest_graph6.s"] = get("io.ingest_graph6")["incl_s"]
    m["io.graph6_decode.us_p50"] = quantile(get("io.graph6_decode")["durations"], 0.5) * 1e6
    m["io.graph6_encode.calls"] = get("io.graph6_encode")["calls"]

    for kind in ("check", "decompose_build", "reduce"):
        m[f"query.{kind}.ms_p50"] = quantile(get(f"query.{kind}")["durations"], 0.5) * 1e3
    return m
