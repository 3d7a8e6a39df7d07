"""Micro-timings of the core calls, on fixed inputs made from the seed.

`canonical_masks` is timed call by call, on n = 8 graphs (the packed
search the generator uses) and on n = 10..12 graphs (the wide search no
workload reaches).  The cheaper calls are timed in batches and reported
per call.  Every figure is a median in microseconds.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Any, Callable

import oracle


def _per_call_us(fn: Callable, inputs: list, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        for x in inputs:
            start = time.perf_counter()
            fn(x)
            times.append(time.perf_counter() - start)
    return median(times) * 1e6


def _batched_us(fn: Callable, inputs: list, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        times.append((time.perf_counter() - start) / len(inputs))
    return median(times) * 1e6


def run(twosc: Any, seed: int, smoke: bool) -> dict[str, float]:
    rng = random.Random(seed)
    rounds = 1 if smoke else 5
    packed = [oracle.gnp(rng, 8, rng.uniform(0.2, 0.8)) for _ in range(200)]
    wide = [oracle.gnp(rng, rng.randint(10, 12), rng.uniform(0.2, 0.8)) for _ in range(20)]
    eights = [oracle.gnp(rng, 8, 0.5) for _ in range(200)]
    graph = twosc.core.Graph
    built = [graph(adj) for adj in eights]
    canonical_masks = twosc.canon.canonical_masks
    conditions_ok = twosc.recognition.conditions_ok
    return {
        "canon.packed.us_p50": _per_call_us(canonical_masks, packed, rounds),
        "canon.wide.us_p50": _per_call_us(canonical_masks, wide, rounds),
        "core.Graph.us": _batched_us(graph, eights, 4 * rounds),
        "core.distance_profile.us": _batched_us(twosc.core.distance_profile, built, 4 * rounds),
        "recognition.conditions_ok.us": _batched_us(lambda adj: conditions_ok(adj, 8), eights, 4 * rounds),
    }
