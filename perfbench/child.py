"""One fresh interpreter: a set-up probe, one workload run, or the micro-timings.

Usage (from run.py): python3 perfbench/child.py '<json config>'.  The
last line of standard output is a JSON report.  ``ready`` is the clock
reading right after ``import twosc``; the parent subtracts the reading
it took before starting this process to get the set-up time.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import twosc  # noqa: E402  (set-up ends here)

READY = time.perf_counter()


def main() -> None:
    cfg = json.loads(sys.argv[1])
    report = {"ready": READY, "debug": __debug__}
    mode = cfg["mode"]
    if mode == "micro":
        import micro

        report["layers"] = micro.run(twosc, cfg["seed"], cfg["smoke"])
    elif mode != "probe":
        import resource

        import tracer as tracing
        import workloads

        tracer = None
        if cfg["trace"]:
            tracer = tracing.Tracer()
            tracer.install(twosc)
        out = workloads.RUNNERS[mode](twosc, cfg, tracer)
        report.update(
            walls=out.walls,
            refs=out.refs,
            latencies_ms=out.latencies_ms,
            latencies_ref=out.latencies_ref,
            attempted=out.attempted,
            failed=out.failed,
            failed_by_kind=out.failed_by_kind,
            problems=out.problems,
            failures=[
                {"kind": k, "graph6": g, "reason": r, "detail": d} for (k, g), (r, d) in sorted(out.failures.items())
            ],
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            report["layers"] = tracing.layer_metrics(tracer, sum(out.walls))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
