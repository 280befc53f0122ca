"""Command-line front end.

Each job is one function. It takes the inputs of a `cubicsym run` task as
keyword arguments, with its defaults in its signature, and returns an Outcome.
A subcommand prints the outcome's lines and exits with its status's code;
`cubicsym run` reports the status and result of each task as one JSON line.
An input the job does not take is an input error.

Exit codes: 0 decisive/pass, 1 mismatch against expectations, 2 input error,
3 budget or cap exhausted.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import corpus
from .forms import CycMatrix, Form, fixes
from .diffrank import eigen_partition_witness, rank_d, support_partition
from .groups import CapExceeded, DEFAULT_CAP, MatGroup, closure, projective_order, scalar_subgroup
from .invariants import (_factor_and_character, covering_lift, invariant_forms,
                         symplectic_order)
from .reps import AbelianGroupSpec, classify, enumerate_diagonal_reps
from .smooth import DEFAULT_BUDGET, is_smooth

EXIT_CODES = {"PASS": 0, "FAIL": 1, "EXHAUSTED": 3}
EXIT_INPUT = 2

# the largest recorded closure order `example verify` computes by default
VERIFY_CAP = 10_000


@dataclass(frozen=True)
class Outcome:
    status: str  # PASS | FAIL | EXHAUSTED; an input error raises instead
    result: object  # the `result` of the task's `cubicsym run` line
    lines: tuple  # what the subcommand prints


def _against(got, expect) -> str:
    return "PASS" if expect is None or got == expect else "FAIL"


def _call(job, inputs: dict) -> Outcome:
    try:
        inspect.signature(job).bind(**inputs)
    except TypeError as ex:
        raise ValueError(f"{job.__name__.removeprefix('job_')}: {ex}") from None
    return job(**inputs)


def _read_form(path: str) -> Form:
    return Form.parse(Path(path).read_text())


def _read_group(path: str) -> MatGroup:
    return MatGroup.parse(Path(path).read_text())


def _spec(abelian) -> AbelianGroupSpec:
    return AbelianGroupSpec.from_factors([int(x) for x in str(abelian).split(",") if x])


# -- the jobs --------------------------------------------------------------------


def job_smooth(form: str, budget: int = DEFAULT_BUDGET, expect: str | None = None) -> Outcome:
    res = is_smooth(_read_form(form), budget=budget)
    if res.status == "exhausted":
        return Outcome("EXHAUSTED", res.status, ("EXHAUSTED",))
    line = "SMOOTH" if res.status == "smooth" else f"SINGULAR {res.witness}"
    return Outcome(_against(res.status, expect), res.status, (line,))


def job_order(group: str, cap: int = DEFAULT_CAP, expect: int | None = None) -> Outcome:
    try:
        grp = closure(_read_group(group).generators, cap=cap)
    except CapExceeded as ex:
        line = f"CAP EXCEEDED after {ex.count} elements"
        return Outcome("EXHAUSTED", line, (line,))
    # closure takes the group to be finite.  A finite set that holds I and is
    # closed under the invertible generators is the group they generate.
    elements = set(grp.elements)
    if any(a * g not in elements for a in grp.elements for g in grp.generators):
        raise ValueError("the generated group is infinite: its closure mod p "
                         "is not closed under the generators")
    line = (f"order {grp.order} scalars {scalar_subgroup(grp)} "
            f"projective {projective_order(grp)}")
    return Outcome(_against(grp.order, expect), grp.order, (line,))


def job_check_invariance(group: str, form: str) -> Outcome:
    f = _read_form(form)
    fixed = [fixes(gen, f) for gen in _read_group(group).generators]
    lines = tuple(f"generator {k}: {'FIXES' if ok else 'MOVES'}" for k, ok in enumerate(fixed))
    return Outcome("PASS" if all(fixed) else "FAIL", all(fixed), lines)


def job_invariants(group: str, degree: int = 3, expect: int | None = None) -> Outcome:
    space = invariant_forms(list(_read_group(group).generators), degree)
    lines = (f"dimension {space.dimension}", *(b.encode().rstrip("\n") for b in space.basis))
    return Outcome(_against(space.dimension, expect), space.dimension, lines)


def job_symplectic(matrix: str, form: str, expect: bool | None = None) -> Outcome:
    a = CycMatrix.parse(Path(matrix).read_text())
    f = _read_form(form)
    lam, chi = _factor_and_character(a, f)  # raises unless A(F) = lambda*F
    verdict = chi.is_one()
    line = f"{'YES' if verdict else 'NO'} lambda {lam.encode()} det {a.det().encode()}"
    return Outcome(_against(verdict, expect), verdict, (line,))


def job_reps_count(abelian: str, vars: int = 7, degree: int = 3,
                   witness_dir: str | None = None, expect: int | None = None) -> Outcome:
    report = classify(_spec(abelian), vars, degree)
    bound = "" if report.total_exact else "≤ "
    lines = [f"classes {bound}{report.total_classes} accepted {report.accepted} "
             f"rejected {report.rejected} undecided {report.undecided}"]
    for v in report.verdicts:
        line = f"{v.rep.exp_matrix} {v.status}"
        if v.witness is not None:
            line += f" {v.witness}"
        if v.status == "accepted" and witness_dir:
            path = Path(witness_dir) / f"witness_{abs(hash(v.rep.exp_matrix))}.form"
            path.write_text(v.witness_form.encode())
            line += f" witness {path}"
        lines.append(line)
    total = "classes" if report.total_exact else "classes_at_most"
    result = {total: report.total_classes, "accepted": report.accepted,
              "undecided": report.undecided}
    return Outcome(_against(report.accepted, expect), result, tuple(lines))


def job_reps_classes(abelian: str, vars: int = 7, degree: int = 3) -> Outcome:
    classes = enumerate_diagonal_reps(_spec(abelian), vars, degree)
    return Outcome("PASS", len(classes),
                   (f"classes {len(classes)}", *(str(rc.exp_matrix) for rc in classes)))


def job_reps(filter: bool = False, **inputs) -> Outcome:
    """`cubicsym reps`: the classified count with --filter, the class list without."""
    return _call(job_reps_count if filter else job_reps_classes, inputs)


def runs_closure(rec: corpus.ExampleRecord, cap: int) -> bool:
    """Whether `example verify` computes a record's group: it has generators
    and a recorded closure order of at most cap."""
    return bool(rec.generators) and rec.closure_order is not None and rec.closure_order <= cap


def job_verify(id: str, cap: int = VERIFY_CAP) -> Outcome:
    """Check a corpus record against its recorded expectations."""
    rec = corpus.record(id)
    checks = []  # (name, status, detail)

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, "pass" if ok else "fail", detail))

    res = is_smooth(rec.form)
    if res.status == "exhausted":
        checks.append(("smooth", "skip", "budget exhausted"))
    else:
        check("smooth", res.status == "smooth", "" if res.witness is None else str(res.witness))
    if not rec.generators:
        checks.append(("invariance", "skip", "no shipped generators (partial record)"))
    else:
        bad = [k for k, g in enumerate(rec.generators) if not fixes(g, rec.form)]
        check("invariance", not bad, f"generators {bad} move the form" if bad else "")
    if not runs_closure(rec, cap):
        detail = f"expected order {rec.projective_order} recorded"
        if rec.generators:
            detail += " (enumeration skipped: above default effort)"
        checks.append(("order", "skip", detail))
    else:
        try:
            grp = closure(rec.generators, cap=cap)
        except CapExceeded:  # the group is larger than its recorded order
            check("order", False, f"closure exceeded cap {cap}, expected {rec.closure_order}")
        else:
            check("order", grp.order == rec.closure_order,
                  f"closure {grp.order}, expected {rec.closure_order}")
            if not rec.partial:
                proj = projective_order(grp)
                check("projective-order", proj == rec.projective_order,
                      f"projective {proj}, expected {rec.projective_order}")
            if rec.form.nvars == 6 and not rec.partial and rec.symplectic_order is not None:
                so = symplectic_order(grp, rec.form)
                check("symplectic-order", so == rec.symplectic_order,
                      f"symplectic {so}, expected {rec.symplectic_order}")
    if rec.partial:
        checks.append(("partial", "skip",
                       f"record is partial: {rec.notes or 'generators incomplete'}"))
    failed = any(status == "fail" for _, status, _ in checks)
    return Outcome("FAIL" if failed else "PASS", {name: status for name, status, _ in checks},
                   tuple(f"{n}: {s}" + (f" ({d})" if d else "") for n, s, d in checks))


def job_example_list() -> Outcome:
    lines = []
    for rid in corpus.all_ids():
        rec = corpus.record(rid)
        flags = [flag for flag, on in (("partial", rec.partial),
                                       ("enumerable", runs_closure(rec, VERIFY_CAP))) if on]
        lines.append(f"{rid:5s} m={rec.form.nvars} order={rec.projective_order} "
                     f"{','.join(flags)}")
    return Outcome("PASS", None, tuple(lines))


def job_export(id: str, dir: str) -> Outcome:
    rec = corpus.record(id)
    out = Path(dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = id.replace("'", "p").lower()
    (out / f"{stem}.form").write_text(rec.form.encode())
    if rec.generators:
        (out / f"{stem}.group").write_text(MatGroup(rec.generators).encode())
    line = f"wrote {stem}.form" + (f" and {stem}.group" if rec.generators else "")
    return Outcome("PASS", None, (line,))


def job_example(action: str, **inputs) -> Outcome:
    jobs = {"verify": job_verify, "list": job_example_list, "export": job_export}
    return _call(jobs[action], inputs)


def job_rank(form: str, order: int) -> Outcome:
    r = rank_d(_read_form(form), order)
    return Outcome("PASS", r, (str(r),))


def job_partition(form: str, group: str | None = None) -> Outcome:
    f = _read_form(form)
    report = support_partition(f.terms.keys(), f.nvars)
    lines = [f"blocks {report.blocks} residual {report.residual} "
             f"certified-by {report.certified_by}"]
    if group:
        for k, gen in enumerate(_read_group(group).generators):
            tag = eigen_partition_witness(gen) if gen.dim == 7 else None
            if tag:
                lines.append(f"generator {k}: eigenvalue partition witness {tag}")
    return Outcome("PASS", None, tuple(lines))


def job_lift(group: str, degree: int = 3, form: str | None = None) -> Outcome:
    f = _read_form(form) if form else None
    lifted = covering_lift(list(_read_group(group).generators), degree, form=f)
    return Outcome("PASS", None, (MatGroup(lifted).encode().rstrip("\n"),))


# -- batch runner ----------------------------------------------------------------

RUN_TASKS = {"verify": job_verify, "smooth": job_smooth, "order": job_order,
             "check-invariance": job_check_invariance, "invariants-dim": job_invariants,
             "symplectic": job_symplectic, "reps-count": job_reps_count}


def _run_task(task: dict) -> dict:
    kind = task.get("task")
    t0 = time.perf_counter()
    inputs = {k: v for k, v in task.items() if k != "task"}
    out: dict = {"task": kind, "inputs": inputs}
    try:
        if kind not in RUN_TASKS:
            raise ValueError(f"unknown task kind {kind!r}")
        res = _call(RUN_TASKS[kind], inputs)
        out["result"], out["status"] = res.result, res.status
    except Exception as ex:  # recorded, batch continues
        out["result"] = f"{type(ex).__name__}: {ex}"
        out["status"] = "ERROR"
    out["elapsed"] = round(time.perf_counter() - t0, 3)
    return out


def job_run(manifest: str) -> Outcome:
    tasks = json.loads(Path(manifest).read_text())
    if isinstance(tasks, dict):
        tasks = tasks["tasks"]
    results = [_run_task(t) for t in tasks]
    lines = tuple(json.dumps({"index": i, **res}, default=str) for i, res in enumerate(results))
    return Outcome("PASS" if all(res["status"] == "PASS" for res in results) else "FAIL",
                   None, lines)


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubicsym",
                                description="Exact symmetry computations for cubic hypersurfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, job, help: str) -> argparse.ArgumentParser:
        # an option left out is left to the job's own default
        s = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        s.set_defaults(job=job)
        return s

    s = command("smooth", job_smooth, "decide smoothness of a form")
    s.add_argument("--form", required=True)
    s.add_argument("--budget", type=int)

    s = command("rank", job_rank, "derivative rank of a form")
    s.add_argument("--form", required=True)
    s.add_argument("--order", type=int, required=True)

    s = command("partition", job_partition, "support partition report")
    s.add_argument("--form", required=True)
    s.add_argument("--group")

    s = command("order", job_order, "group order by closure")
    s.add_argument("--group", required=True)
    s.add_argument("--cap", type=int)
    s.add_argument("--expect", type=int)

    s = command("check-invariance", job_check_invariance, "do the generators fix the form")
    s.add_argument("--group", required=True)
    s.add_argument("--form", required=True)

    s = command("invariants", job_invariants, "invariant forms of a group")
    s.add_argument("--group", required=True)
    s.add_argument("--degree", type=int)

    s = command("symplectic", job_symplectic, "symplectic test for one matrix")
    s.add_argument("--matrix", required=True)
    s.add_argument("--form", required=True)

    s = command("reps", job_reps, "diagonal representations of an abelian group")
    s.add_argument("--abelian", required=True, help="comma-separated factors, e.g. 9,5")
    s.add_argument("--vars", type=int)
    s.add_argument("--degree", type=int)
    s.add_argument("--filter", action="store_true")
    s.add_argument("--witness-dir")

    s = command("lift", job_lift, "covering lift of a group")
    s.add_argument("--group", required=True)
    s.add_argument("--degree", type=int)
    s.add_argument("--form")

    s = command("example", job_example, "the shipped example corpus")
    s.add_argument("action", choices=["verify", "list", "export"])
    s.add_argument("id", nargs="?")
    s.add_argument("--cap", type=int, help="largest recorded closure order verify computes")
    s.add_argument("--dir")

    s = command("run", job_run, "batch manifest, JSON-lines output")
    s.add_argument("manifest")
    return p


def main(argv=None) -> int:
    inputs = vars(build_parser().parse_args(argv))
    job = inputs.pop("job")
    del inputs["command"]
    try:
        out = _call(job, inputs)
    except (OSError, ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    for line in out.lines:
        print(line)
    return EXIT_CODES[out.status]


if __name__ == "__main__":
    sys.exit(main())
