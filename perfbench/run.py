"""cubicsym benchmark: certified answers per batch, end to end and per layer.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src (nothing is
installed). Each workload (see workloads.py) is a `cubicsym run` manifest whose
task order comes from the seed (reps-enumerate keeps its listed order). Tasks run in a fresh `cubicsym` process with
the shipped defaults (CUBICSYM_THREADS unset), one at a time: a closed loop
with one client.

Times are scaled to the CPU's nominal speed. The host changes the speed of
each CPU of a small VM by up to 2x within tens of seconds, and the two CPUs
change apart. So the benchmark and every process it starts are pinned to one
CPU, and a thread on that CPU times a fixed unit of Fraction arithmetic (CPU
time, not wall time) every 50 ms. A time measured over [a, b] is multiplied by
the CPU's mean speed over [a, b]: the mean, over 1 s windows, of PACE_NOMINAL_S
divided by the window's median unit time. The unit takes about 2.7% of the
CPU. The thread runs benchmark code only, so a change to the program does not
change it. Set-up and the microbenchmarks are scaled by the speed; a
workload's passes by the speed to the workload's `pace_power` (see
workloads.py).

--trace 0 reports the end-to-end metrics, tracing off:
  setup_s         median of 9 fresh processes (5 before the passes, 4 after)
                  that import cubicsym and build the 35 corpus records, each
                  scaled by the speed over the second around it
  makespan_s      median scaled wall time of `cubicsym run` over the manifest;
                  passes repeat while another one fits in --seconds (at least
                  one)
  slowest_task_s  median over passes of the largest scaled per-task `elapsed`;
                  tasks run in manifest order, so each one's interval is
                  known from the `elapsed` of the tasks after it
  peak_rss_mb     median over passes of the run process's peak resident memory
  fail_share      (failed + 1/2) / (tasks + 1) for the worst pass: the Jeffreys
                  estimate of the task failure rate. It is never 0, so a bound
                  relative to the parent stays defined; one failed task in a
                  pass triples it. The raw counts are `failed` / `attempted`.

--trace 1 runs one untraced pass, one traced pass (traced.py) and the CycNum
microbenchmarks (micro.py), and reports the per-layer metrics plus the
tracing overhead. Each process's times (units s and us) are scaled by the
speed over its whole run, as the workload's passes are; `pace.speed` is the
speed over the untraced pass. It fails when a layer the workload must
exercise records nothing, or when the layer spans cover under 90% of the
traced makespan.

Every task's output is checked (workloads.task_failure); the last line of
stdout is the JSON result. With --trace 0 the line before it gives each pass's
raw wall time, speed and slowest task as [scaled s, raw s, label]. Exit code 2 when the program is not in ./src or an
argument is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS, record_mismatches, task_failure, task_label, task_labels

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_RUNS = (5, 4)  # set-up probes before and after the measured passes
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_COVERAGE = 0.90
PACE_EVERY_S = 0.05
PACE_WINDOW_S = 1.0
# median CPU time of pace_unit() on a 2-core Xeon VM (Python 3.11.7) in its
# usual state; it only sets the scale, so it must never change
PACE_NOMINAL_S = 1.35e-3


def pace_unit() -> None:
    acc: dict = {}
    for i in range(300):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)


class Pace:
    """Samples the speed of the CPU this process is pinned to (see the top)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, unit CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PACE_EVERY_S):
            c0 = time.thread_time()
            pace_unit()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, a: float, b: float) -> float:
        """Mean speed over [a, b] relative to nominal; at least one window."""
        if b - a < PACE_WINDOW_S:
            a, b = (a + b - PACE_WINDOW_S) / 2, (a + b + PACE_WINDOW_S) / 2
        n = round((b - a) / PACE_WINDOW_S)
        edges = [a + (b - a) * k / n for k in range(n + 1)]
        speeds = []
        for lo, hi in zip(edges, edges[1:]):
            units = [d for t, d in self.samples if lo <= t < hi]
            if units:
                speeds.append(PACE_NOMINAL_S / statistics.median(units))
        if not speeds:
            raise RuntimeError(f"no pace sample in a {b - a:.1f} s interval")
        return statistics.mean(speeds)


def pin_to_one_cpu() -> None:
    """Pin this process, its later threads and children to its first CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CUBICSYM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child(NamedTuple):
    start: float  # perf_counter at spawn
    wall: float  # seconds from spawn to exit
    rss: float  # peak resident memory, MB
    code: int

    @property
    def interval(self) -> tuple[float, float]:
        return self.start, self.start + self.wall


def spawn(args: list[str], stdout_path: Path, deadline: float) -> Child:
    """Run a child to completion."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RuntimeError(f"{args[:2]} killed at the deadline")
    return Child(t0, wall, usage.ru_maxrss / 1024, proc.returncode)


def record_table(deadline: float) -> dict:
    dump = OUT / "records.json"
    child = spawn([str(BENCH / "ready.py"), "--dump"], dump, deadline)
    return json.loads(dump.read_text()) if child.code == 0 else {}


def setup_times(pace: Pace, count: int, deadline: float) -> list[float]:
    children = [spawn([str(BENCH / "ready.py")], OUT / "ready.out", deadline)
                for _ in range(count)]
    return [c.wall * pace.speed(*c.interval) for c in children]


def run_pass(pace: Pace, power: float, manifest: Path, tasks: list[dict], deadline: float) -> dict:
    """One untraced `cubicsym run` over the manifest, its times scaled by speed ** power."""

    def scale(a: float, b: float) -> float:
        return pace.speed(a, b) ** power

    stdout = OUT / f"{manifest.stem}.out"
    child = spawn(["-m", "cubicsym", "run", str(manifest)], stdout, deadline)
    by_index = {}
    for line in stdout.read_text().splitlines():
        try:
            row = json.loads(line)
            by_index[row["index"]] = row
        except (ValueError, KeyError, TypeError):
            continue
    results = [by_index.get(i) for i in range(len(tasks))]
    # tasks run one after another just before the results are printed at the end
    task_s, t = [], child.start + child.wall
    for task, res in zip(reversed(tasks), reversed(results)):
        elapsed = (res or {}).get("elapsed", 0.0)
        task_s.append((elapsed * scale(t - elapsed, t), elapsed, task_label(task)))
        t -= elapsed
    # exit code 1 only says some task did not PASS; failures() checks each task
    return {"wall": child.wall, "speed": pace.speed(*child.interval),
            "makespan": child.wall * scale(*child.interval), "rss": child.rss,
            "slowest": max(task_s), "results": results}


def failures(tasks: list[dict], results: list) -> list[str]:
    out = []
    for task, res in zip(tasks, results):
        why = task_failure(task, res)
        if why is not None:
            out.append(f"{task_label(task)}: {why}")
    return out


def fail_share(failed: int, attempted: int) -> float:
    return (failed + 0.5) / (attempted + 1)


def end_to_end(pace: Pace, workload, manifest: Path, tasks: list[dict], seconds: int,
               deadline: float):
    passes, task_fails = [], []
    t0 = time.perf_counter()
    while True:
        p = run_pass(pace, workload.pace_power, manifest, tasks, deadline)
        p["failures"] = failures(tasks, p["results"])
        passes.append(p)
        task_fails += p["failures"]
        elapsed = time.perf_counter() - t0
        if elapsed + p["wall"] > seconds or time.monotonic() + 2 * p["wall"] > deadline:
            break
    metrics = {
        "makespan_s": (statistics.median(p["makespan"] for p in passes), "s"),
        "slowest_task_s": (statistics.median(p["slowest"][0] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
        "fail_share": (max(fail_share(len(p["failures"]), len(tasks)) for p in passes), "ratio"),
    }
    print(json.dumps({"passes": [{"wall_s": p["wall"], "speed": p["speed"],
                                  "slowest": p["slowest"]} for p in passes]}))
    return metrics, len(passes) * len(tasks), task_fails


def scaled(metrics: dict, speed: float) -> dict:
    return {k: (v * speed if u in ("s", "us") else v, u) for k, (v, u) in metrics.items()}


def traced(pace: Pace, workload, manifest: Path, tasks: list[dict], seed: int, deadline: float):
    plain = run_pass(pace, workload.pace_power, manifest, tasks, deadline)
    task_fails = failures(tasks, plain["results"])
    summary_path = OUT / f"{manifest.stem}.trace.json"
    spans_path = OUT / f"{manifest.stem}.spans.gz"
    child = spawn([str(BENCH / "traced.py"), str(manifest), str(spans_path)],
                  summary_path, deadline)
    if child.code != 0:
        raise RuntimeError(f"traced run exited with {child.code}")
    traced_speed = pace.speed(*child.interval) ** workload.pace_power
    summary = json.loads(summary_path.read_text())
    if not Path(summary["program"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"traced run imported {summary['program']}")
    task_fails += failures(tasks, summary["results"])
    micro_path = OUT / f"{manifest.stem}.micro.json"
    child = spawn([str(BENCH / "micro.py"), "--seed", str(seed)], micro_path, deadline)
    if child.code != 0:
        raise RuntimeError(f"microbenchmarks exited with {child.code}")
    micro_speed = pace.speed(*child.interval)

    metrics = {k: (v["value"], v["unit"]) for k, v in summary["metrics"].items()}
    for label in task_labels():
        metrics[f"task.{label}_s"] = (summary["task_s"].get(f"task.{label}", 0.0), "s")
    metrics["trace.makespan_s"] = (summary["makespan_s"], "s")
    metrics = scaled(metrics, traced_speed)
    micro = {k: tuple(v) for k, v in json.loads(micro_path.read_text()).items()}
    metrics.update(scaled(micro, micro_speed))
    metrics["trace.untraced_makespan_s"] = (plain["makespan"], "s")
    metrics["trace.overhead_ratio"] = (metrics["trace.makespan_s"][0] / plain["makespan"], "ratio")
    metrics["pace.speed"] = (plain["speed"], "ratio")
    metrics["trace.span_coverage"] = (summary["span_coverage"], "ratio")
    metrics["trace.spans"] = (summary["spans"], "count")

    problems = []
    for layer in workload.layers:
        if not summary["layers"].get(layer):
            problems.append(f"layer {layer} recorded no span on {workload.name}")
    if summary["span_coverage"] < MIN_COVERAGE:
        problems.append(f"layer spans cover {summary['span_coverage']:.1%} of the traced run")
    print(json.dumps({"absent": summary["absent"], "layers": summary["layers"],
                      "spans_file": str(spans_path.relative_to(ROOT))}))
    return metrics, 2 * len(tasks), task_fails, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cubicsym" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'cubicsym'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    pace = Pace()
    try:
        return measure(args, pace, deadline)
    finally:
        pace.stop()


def measure(args, pace: Pace, deadline: float) -> int:
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tasks = workload.manifest(args.seed)
    manifest = OUT / f"{workload.name}-{args.seed}.json"
    manifest.write_text(json.dumps(tasks, indent=1))

    problems = [f"record {rid}: expected orders differ from the pinned ones"
                for rid in record_mismatches(record_table(deadline))]
    if args.trace:
        metrics, attempted, task_fails, checks = traced(pace, workload, manifest, tasks,
                                                        args.seed, deadline)
        problems += checks
    else:
        setups = setup_times(pace, SETUP_RUNS[0], deadline)
        metrics, attempted, task_fails = end_to_end(pace, workload, manifest, tasks,
                                                    args.seconds, deadline)
        setups += setup_times(pace, SETUP_RUNS[1], deadline)
        metrics["setup_s"] = (statistics.median(setups), "s")
    for line in problems + task_fails:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not task_fails,
        "attempted": attempted,
        "failed": len(task_fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
