"""twosc benchmark entry point.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the benchmark imports ``src/twosc``.
Every workload run is a fresh interpreter with default flags.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
separate traced run gives the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A copy with the machine record goes to perfbench/results/.

Times of the program are given in two ways.  The end-to-end ``*_ref``
metrics divide them by the time of a fixed reference loop measured in
the same process (refloop.py), which cancels the host's drift in speed;
the traced run reports the plain seconds as per-layer metrics.
``--smoke`` runs every workload at a small scale, both ways, and checks
that every metric BENCHMARK.json names is present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

from tracer import quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("generate-n8", "battery-n8", "query-mix")
PROBES = 15           # set-up probes before the load, and again after it
CHILD_TIMEOUT = 170   # seconds; a run that takes longer is an error
SHOWN = 8             # failing records printed per kind and reason


def metric_spec() -> dict[str, dict[str, str]]:
    """Metric names and units, end_to_end and per_layer, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(cfg: dict) -> dict:
    """Run child.py in a fresh interpreter; its report plus the set-up time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(cfg)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['mode']} child exceeded {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cfg['mode']} child exited with {proc.returncode}")
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def check_inputs() -> None:
    """The program source and the frozen battery input must be present and intact."""
    if not os.path.isfile(os.path.join(ROOT, "src", "twosc", "__init__.py")):
        raise BenchError(f"no src/twosc under {ROOT}; run from the root of a twosc checkout")
    with open(os.path.join(HERE, "data", "expected.json"), encoding="ascii") as handle:
        exp = json.load(handle)
    path = os.path.join(HERE, "data", "connected_n8.g6")
    with open(path, "rb") as handle:
        blob = handle.read()
    if hashlib.sha256(blob).hexdigest() != exp["connected_n8.g6"]["sha256"]:
        raise BenchError("connected_n8.g6 does not match its digest")
    counts = [0] * 8
    for rec in blob.split():
        counts[rec[0] - 64] += 1
    if counts != exp["connected_graph_counts"]:
        raise BenchError(f"connected_n8.g6 per-n counts {counts} differ from the published ones")


def machine(debug: bool) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "debug": debug,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result object plus details."""
    units = metric_spec()["per_layer" if trace else "end_to_end"]
    cfg = {"mode": workload, "seed": seed, "seconds": seconds, "trace": False, "smoke": smoke}
    # query-mix gives the median over its many passes.  A fixed load
    # repeats only a few times, and its best repeat, the one a slow spell
    # of the host disturbed least, counts.
    typical = median if workload == "query-mix" else min
    if not trace:
        # Set-up is sampled before and after the load, so that one slow
        # spell of the machine does not decide the median.
        probes = 1 if smoke else PROBES
        setups = [spawn({"mode": "probe"})["setup_s"] for _ in range(probes)]
        runs = []
        deadline = time.perf_counter() + seconds
        while not runs or (workload != "query-mix" and time.perf_counter() < deadline and not smoke):
            runs.append(spawn(cfg))
        setups += [spawn({"mode": "probe"})["setup_s"] for _ in range(probes)]
        setups += [r["setup_s"] for r in runs]
        # Each time is divided by the reference time measured next to it.
        # A fixed load is one request, so its latency is the load's time.
        walls = [w / ref for r in runs for w, ref in zip(r["walls"], r["refs"])]
        latencies = runs[0]["latencies_ref"] if workload == "query-mix" else [min(walls)]
        values = {
            "setup_s": median(setups),
            "wall_ref": typical(walls),
            "peak_rss_mb": median(r["rss_mb"] for r in runs),
            "req_p50_ref": quantile(latencies, 0.50),
            "req_p99_ref": quantile(latencies, 0.99),
        }
        samples = {"setup_s": len(setups), "repeats": len(walls), "distinct_requests": len(latencies)}
        plain = runs
    else:
        plain = [spawn(cfg)]
        traced = spawn({**cfg, "trace": True})
        runs = [plain[0], traced]
        values = dict(traced["layers"])
        values.update(spawn({**cfg, "mode": "micro"})["layers"])
        for kind in ("check", "decompose_build", "reduce"):
            values[f"query.{kind}.failed"] = traced["failed_by_kind"].get(kind, 0)
        values["failed_ratio"] = traced["failed"] / traced["attempted"]
        values["trace.overhead_s"] = typical(traced["walls"]) - typical(plain[0]["walls"])
        samples = {"traced_loads": len(traced["walls"])}
    # The plain seconds, as measured.
    plain_walls = [w for r in plain for w in r["walls"]]
    latencies_ms = plain[0]["latencies_ms"] if workload == "query-mix" else [min(plain_walls) * 1e3]
    raw = {
        "wall_s": typical(plain_walls),
        "req_p50_ms": quantile(latencies_ms, 0.50),
        "req_p99_ms": quantile(latencies_ms, 0.99),
        "ref_us": median(ref for r in plain for ref in r["refs"]) * 1e6,
    }
    if trace:
        values.update(raw)
    failures: dict[tuple[str, str], dict] = {}
    for r in runs:
        for f in r["failures"]:
            failures.setdefault((f["kind"], f["graph6"]), f)
    problems = sorted({p for r in runs for p in r["problems"]})
    # Every run serves the same input, so it must attempt and fail the same operations.
    counts = {(r["attempted"], r["failed"], tuple((f["kind"], f["graph6"]) for f in r["failures"])) for r in runs}
    if len(counts) > 1:
        problems.append("runs of the same input differ in the operations attempted or failed")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {
        "result": {
            "correct": not problems,
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        },
        "samples": samples,
        "raw": raw,
        "problems": problems,
        "failures": [failures[key] for key in sorted(failures)],
        "machine": machine(runs[0]["debug"]),
    }


def report(workload: str, seed: int, seconds: float, trace: bool, run: dict) -> None:
    res = run["result"]
    m = run["machine"]
    print(f"# twosc benchmark  workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# {m['python']}  nproc={m['nproc']}  cpu={m['cpu']}  __debug__={m['debug']}")
    for name, metric in res["metrics"].items():
        print(f"{name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print("# plain seconds: " + "  ".join(f"{k}={v:.6g}" for k, v in run["raw"].items()))
    print(f"# samples: {run['samples']}")
    print(f"# attempted {res['attempted']}, failed {res['failed']}, "
          f"{len(run['failures'])} distinct failing record(s), by kind and reason:")
    groups: dict[tuple[str, str], list[str]] = {}
    for f in run["failures"]:
        groups.setdefault((f["kind"], f["reason"]), []).append(f["graph6"])
    for (kind, reason), records in sorted(groups.items()):
        shown = " ".join(records[:SHOWN])
        more = f" ... (+{len(records) - SHOWN}, see the results file)" if len(records) > SHOWN else ""
        print(f"#   {kind} [{reason}] {len(records)}: {shown}{more}")
    for p in run["problems"]:
        print(f"# CHECK FAILED: {p}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **run}, handle, indent=1)
    print(json.dumps(res))


def smoke() -> int:
    """Every workload at small scale, untraced and traced; every named metric measured."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            run = measure(workload, 1, 1, trace, smoke=True)
            res = run["result"]
            ok = ok and res["correct"]
            print(f"{'ok' if res['correct'] else 'FAIL'}  {workload:<12} trace={int(trace)}  "
                  f"metrics={len(res['metrics'])}  attempted={res['attempted']} failed={res['failed']}"
                  + "".join(f"  {p}" for p in run["problems"]))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        check_inputs()
        if args.smoke:
            return smoke()
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.seconds, bool(args.trace), run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
