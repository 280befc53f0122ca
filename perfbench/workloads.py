"""The benchmark's workloads: manifests, the values each task must produce, and
the layers each workload must exercise.

A workload is a list of `cubicsym run` tasks. The seed only permutes the task
order, so every seed does the same work. reps-enumerate keeps its order: see
Workload.permute.

Expected values carry their provenance:
  * "published": representation counts from the source paper;
  * "pinned": what the program computes at the commit that added this
    benchmark (class totals, the extra groups, the verify check profiles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- corpus-verify ------------------------------------------------------------

# Check profile of `example verify <id>` at default effort: check -> status.
# A pinned "pass" must stay "pass". A pinned "skip" may become "pass" (a check
# that got cheap enough to run), never "fail". Any "fail" fails the task.
VERIFY_PROFILE = {
    "X1": "smooth=pass invariance=pass order=skip",
    "X2": "smooth=pass invariance=pass order=skip",
    "X3": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X4": "smooth=pass invariance=pass order=skip",
    "X5": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X6": "smooth=pass invariance=pass order=pass partial=skip",
    "X7": "smooth=pass invariance=pass order=skip",
    "X8": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X9": "smooth=pass invariance=pass order=skip",
    "X10": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X11": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X12": "smooth=pass invariance=skip order=skip partial=skip",
    "X13": "smooth=pass invariance=pass order=skip",
    "X14": "smooth=pass invariance=pass order=pass partial=skip",
    "X15": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X16": "smooth=pass invariance=pass order=skip",
    "X17": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X18": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X19": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X20": "smooth=pass invariance=pass order=pass projective-order=pass",
    "X1'": "smooth=pass invariance=pass order=skip",
    "X2'": "smooth=pass invariance=pass order=skip",
    "X3'": "smooth=pass invariance=pass order=pass projective-order=pass symplectic-order=pass",
    "X5'": "smooth=pass invariance=pass order=pass projective-order=pass symplectic-order=pass",
    "X6'": "smooth=pass invariance=pass order=pass partial=skip",
    "X7'": "smooth=pass invariance=pass order=skip",
    "X8'": "smooth=pass invariance=pass order=pass projective-order=pass symplectic-order=pass",
    "X9'": "smooth=pass invariance=pass order=pass projective-order=pass symplectic-order=pass",
    "X10'": "smooth=pass invariance=skip order=skip partial=skip",
    "X12'": "smooth=pass invariance=pass order=pass partial=skip",
    "X14'": "smooth=pass invariance=pass order=pass projective-order=pass symplectic-order=pass",
}

# Left out of corpus-verify: each spends 15-45 s in its symplectic-order check
# (X4' 15 s, X11' 45 s, X13' 19 s, X15' 22 s), which would not fit one run.
# baseline.py still times the X15' symplectic order.
VERIFY_LEFT_OUT = ("X4'", "X11'", "X13'", "X15'")

# The orders each corpus record expects: (projective, closure, symplectic).
# `verify` compares its computations against these, so they are checked too:
# a "pass" against an edited expectation is not a pass.
RECORD_ORDERS = {
    "X1": (3674160, 3674160, None), "X2": (69984, 69984, None),
    "X3": (1296, 1296, None), "X4": (19440, 19440, None),
    "X5": (288, 288, None), "X6": (11880, 990, None),
    "X7": (23328, 23328, None), "X8": (864, 864, None),
    "X9": (12960, 12960, None), "X10": (96, 96, None),
    "X11": (378, 378, None), "X12": (2160, None, None),
    "X13": (15120, 15120, None), "X14": (96, 24, None),
    "X15": (1008, 1008, None), "X16": (7560, None, None),
    "X17": (144, 144, None), "X18": (648, 648, None),
    "X19": (64, 64, None), "X20": (301, 301, None),
    "X1'": (174960, 524880, 29160), "X2'": (5832, 17496, 486),
    "X3'": (144, 144, 6), "X4'": (2160, 2160, 360),
    "X5'": (48, 48, 1), "X6'": (1980, 165, None),
    "X7'": (7776, 23328, 1944), "X8'": (32, 32, 1),
    "X9'": (126, 378, 21), "X10'": (720, None, 720),
    "X11'": (5040, 5040, 2520), "X12'": (32, 24, None),
    "X13'": (336, 336, 168), "X14'": (48, 144, 48),
    "X15'": (216, 648, 72),
}

# -- reps workloads -----------------------------------------------------------


@dataclass(frozen=True)
class RepsExpect:
    abelian: str
    classes: int
    accepted: int
    source: str  # provenance of `accepted`; class totals are always pinned


ENUMERATE = (
    RepsExpect("2", 6, 3, "published"),
    RepsExpect("7", 290, 1, "published"),
    RepsExpect("11", 1950, 1, "published"),
    RepsExpect("9,5", 1606956, 1, "published"),
    RepsExpect("7,2", 12384, 0, "published"),
    RepsExpect("6,6", 11304, 45, "pinned"),
)

# C4 (58 classes, 7 accepted, pinned) is left out: its witness search alone
# takes about 27 s, which would not fit one run.
WITNESS = (
    RepsExpect("8", 870, 9, "pinned"),
    RepsExpect("12", 2726, 35, "pinned"),
    RepsExpect("2,2", 20, 4, "pinned"),
    RepsExpect("2,4", 448, 10, "pinned"),
    RepsExpect("2,6", 907, 33, "pinned"),
    RepsExpect("2,2,2", 36, 2, "pinned"),
)

# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple  # manifest entries in canonical order
    layers: tuple  # layers the traced run must see doing work
    # Whether the seed permutes the tasks. The peak memory of reps-enumerate
    # depends on the order: 340, 354, 412 or 421 MB for the same six tasks,
    # as glibc keeps freed numpy blocks according to which tasks ran before.
    # A seeded order would make peak_rss_mb measure the seed, so that workload
    # runs in the listed order, which peaks at the upper end of that range.
    permute: bool = True
    # run.py scales a pass's times by the CPU speed to this power, about the
    # slope of log time on log speed; per task of corpus-verify it was
    # 0.76-0.95. Work that is bound by memory traffic speeds up less than the
    # Fraction pace unit. Quartile spreads over ten seeds, at powers 0 / 0.5 /
    # 0.75 / 1 (makespan_s; slowest_task_s):
    #   corpus-verify   0.185 / 0.100 / 0.052 / 0.028;  0.148 / 0.100 / 0.046 / 0.057
    #   reps-witness    0.078 / 0.035 / 0.015 / 0.022;  0.098 / 0.029 / 0.057 / 0.093
    #   reps-enumerate  0.072 / 0.011 / 0.050 / 0.082   (numpy, memory-bound)
    pace_power: float = 1.0

    def manifest(self, seed: int) -> list[dict]:
        tasks = [dict(t) for t in self.tasks]
        if self.permute:
            random.Random(seed).shuffle(tasks)
        return tasks


def _reps_tasks(groups) -> tuple:
    return tuple({"task": "reps-count", "abelian": g.abelian, "vars": 7, "degree": 3}
                 for g in groups)


WORKLOADS = {w.name: w for w in (
    Workload("corpus-verify",
             tuple({"task": "verify", "id": rid} for rid in VERIFY_PROFILE),
             ("cyclo", "forms", "groebner", "smooth", "groups", "invariants",
              "corpus", "cli")),
    Workload("reps-enumerate", _reps_tasks(ENUMERATE), ("reps", "corpus", "cli"),
             permute=False, pace_power=0.5),
    Workload("reps-witness", _reps_tasks(WITNESS),
             ("cyclo", "groebner", "smooth", "reps", "corpus", "cli"), pace_power=0.75),
)}

_REPS_EXPECT = {g.abelian: g for g in ENUMERATE + WITNESS}


def task_label(task: dict) -> str:
    """Metric-safe task name: X15' -> X15p, reps 9,5 -> C9xC5."""
    if task["task"] == "verify":
        return task["id"].replace("'", "p")
    return "x".join(f"C{f}" for f in str(task["abelian"]).split(","))


def task_failure(task: dict, out: dict | None) -> str | None:
    """Why the task's output is wrong, or None when it is right."""
    if out is None:
        return "no result"
    if out.get("status") != "PASS":
        return f"status {out.get('status')}: {out.get('result')}"
    result = out.get("result")
    if task["task"] == "verify":
        want = dict(kv.split("=") for kv in VERIFY_PROFILE[task["id"]].split())
        if not isinstance(result, dict):
            return f"result {result!r}"
        for check, status in result.items():
            if status == "fail":
                return f"{check} failed"
        for check, status in want.items():
            got = result.get(check)
            if status == "pass" and got != "pass":
                return f"{check} went from pass to {got}"
        return None
    g = _REPS_EXPECT[str(task["abelian"])]
    want = {"classes": g.classes, "accepted": g.accepted, "undecided": 0}
    if result != want:
        return f"result {result}, expected {want} ({g.source} accepted count)"
    return None


def record_mismatches(table: dict) -> list[str]:
    """Records whose expected orders differ from RECORD_ORDERS."""
    bad = [rid for rid, orders in RECORD_ORDERS.items()
           if tuple(table.get(rid, ())) != orders]
    bad += [rid for rid in table if rid not in RECORD_ORDERS]
    return bad


def task_labels() -> list[str]:
    return [task_label(t) for w in WORKLOADS.values() for t in w.tasks]
