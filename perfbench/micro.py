"""CycNum microbenchmarks: one multiplication or one inverse per sample, on
operands drawn from the seed, at the conductors the workloads use (12, 24, 60)
and at 43 (the ROADMAP baseline row).

Prints one JSON object: per conductor the median and a tail percentile in
microseconds. The tail is the highest percentile with at least ten samples
beyond it: p95 of 200 multiplications, p75 of 40 inverses.

    PYTHONPATH=src python3 perfbench/micro.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from time import perf_counter_ns

from cubicsym.cyclo import CycNum, context

CONDUCTORS = (12, 24, 43, 60)
MUL_SAMPLES, MUL_TAIL = 200, 95
INV_SAMPLES, INV_TAIL = 40, 75


def operand(rng: random.Random, n: int) -> CycNum:
    while True:
        x = CycNum.from_vector(n, [rng.randint(-9, 9) for _ in range(context(n).phi)],
                               rng.randint(1, 9))
        if not x.is_rational():
            return x


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def sample(rng: random.Random, n: int, op: str, count: int) -> list[float]:
    out = []
    for _ in range(count):
        a, b = operand(rng, n), operand(rng, n)
        if op == "mul":
            t0 = perf_counter_ns()
            a * b
            t1 = perf_counter_ns()
        else:
            t0 = perf_counter_ns()
            a.inv()
            t1 = perf_counter_ns()
        out.append((t1 - t0) / 1000)
    return out


def measure(seed: int) -> dict:
    metrics = {"cyclo.mul_samples": (MUL_SAMPLES, "count"),
               "cyclo.inv_samples": (INV_SAMPLES, "count")}
    for n in CONDUCTORS:
        rng = random.Random(seed * 1009 + n)
        for op, count, tail in (("mul", MUL_SAMPLES, MUL_TAIL), ("inv", INV_SAMPLES, INV_TAIL)):
            us = sample(rng, n, op, count)
            metrics[f"cyclo.{op}_us.N{n}"] = (statistics.median(us), "us")
            metrics[f"cyclo.{op}_us.N{n}.p{tail}"] = (percentile(us, tail), "us")
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(measure(args.seed)))


if __name__ == "__main__":
    main()
