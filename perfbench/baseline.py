"""Reproduce the rows of the ROADMAP Baseline table that the benchmark covers,
and record the machine they ran on.

    python3 perfbench/baseline.py [--out perfbench/out/BENCH_baseline.json]

Each row is timed once in this process (the ROADMAP figures were single ad-hoc
timings too) and printed next to the ROADMAP figure with their ratio. A row
whose function no longer exists is reported as absent. Takes about 70 s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from cubicsym import corpus, groups, invariants, reps, smooth  # noqa: E402

import micro  # noqa: E402

DIFFERS = 0.20  # a row differs when measured/ROADMAP leaves [1/1.2, 1.2]
SEED = 1  # microbenchmark operands


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def rows() -> list[dict]:
    out = []

    def row(what, roadmap, unit, measure, note=""):
        try:
            value, detail = measure()
        except (AttributeError, KeyError) as ex:  # a timed function was removed
            out.append({"what": what, "roadmap": roadmap, "unit": unit, "measured": None,
                        "note": f"absent: {ex}"})
            return
        ratio = value / roadmap
        out.append({"what": what, "roadmap": roadmap, "unit": unit, "measured": value,
                    "ratio": ratio, "differs": not 1 / (1 + DIFFERS) <= ratio <= 1 + DIFFERS,
                    "note": " ".join(x for x in (note, detail) if x)})
        print(f"{what}: {value:.4g} {unit} (ROADMAP {roadmap:g}, x{ratio:.2f}) {detail}",
              flush=True)

    spec = reps.AbelianGroupSpec.from_factors([9, 5])
    stage = {}

    def enum():
        dt, (rows_, _) = timed(reps._canonical_rows, spec, 7, 3)
        stage["rows"] = rows_
        return dt, f"{rows_.shape[0]} rows (ROADMAP 1,622,540)"

    def valid():
        dt, mask = timed(reps._valid_mask, stage["rows"], spec)
        stage["valid"] = stage["rows"][mask]
        return dt, f"{int(mask.sum())} kept (ROADMAP 1,606,956)"

    def bulk():
        dt, mask = timed(reps._bulk_square_mask, stage["valid"], spec)
        return dt, f"{int(mask.sum())} kept (ROADMAP 1)"

    row("C9xC5 _canonical_rows", 17.8, "s", enum)
    row("C9xC5 _valid_mask", 4.2, "s", valid)
    row("C9xC5 _bulk_square_mask", 2.0, "s", bulk)
    stage.clear()

    def smoothness(rid):
        dt, res = timed(smooth.is_smooth, corpus.record(rid).form)
        return dt, res.status

    for rid, roadmap in (("X15'", 3.7), ("X18", 3.2), ("X10'", 2.7), ("X12", 2.4)):
        row(f"is_smooth {rid}", roadmap, "s", lambda rid=rid: smoothness(rid))

    def close(rid):
        dt, grp = timed(groups.closure, corpus.record(rid).generators)
        return dt, f"order {grp.order}"

    for rid, roadmap in (("X3", 1.1), ("X15", 2.5)):
        row(f"closure {rid}", roadmap, "s", lambda rid=rid: close(rid))

    def symplectic():
        rec = corpus.record("X15'")
        grp = groups.closure(rec.generators)  # untimed, as in the ROADMAP row
        dt, order = timed(invariants.symplectic_order, grp, rec.form)
        return dt, f"order {order} (expected 72)"

    row("symplectic_order X15'", 14.45, "s", symplectic,
        "ROADMAP gives 12.6-16.3 s; compared with the midpoint.")

    m = micro.measure(SEED)
    for n, mul_us, inv_ms in ((12, 7.3, 0.33), (24, 17, 1.1), (43, 258, 167)):
        row(f"CycNum mul N={n}", mul_us, "us",
            lambda n=n: (m[f"cyclo.mul_us.N{n}"][0], f"median of {micro.MUL_SAMPLES}"))
        row(f"CycNum.inv N={n}", inv_ms, "ms",
            lambda n=n: (m[f"cyclo.inv_us.N{n}"][0] / 1000, f"median of {micro.INV_SAMPLES}"))
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "BENCH_baseline.json"))
    args = ap.parse_args()
    report = {"label": "baseline", "date": time.strftime("%Y-%m-%d"),
              "machine": machine(), "seed": SEED, "rows": rows()}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    differ = [r["what"] for r in report["rows"] if r.get("differs")]
    print(f"machine: {report['machine']}")
    print(f"rows off by more than {DIFFERS:.0%}: {differ or 'none'}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
