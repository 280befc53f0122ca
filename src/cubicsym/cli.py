"""Command-line front end.

Exit codes: 0 decisive/pass, 1 mismatch against expectations, 2 input error,
3 budget or cap exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus
from .forms import CycMatrix, Form, fixes, semi_invariance_factor
from .diffrank import eigen_partition_witness, rank_d, support_partition
from .groups import CapExceeded, DEFAULT_CAP, MatGroup, closure, projective_order, scalar_subgroup
from .invariants import covering_lift, invariant_forms, is_symplectic, symplectic_order
from .reps import AbelianGroupSpec, classify, enumerate_diagonal_reps
from .smooth import is_smooth

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


def _read_form(path: str) -> Form:
    return Form.parse(Path(path).read_text())


def _read_group(path: str) -> MatGroup:
    return MatGroup.parse(Path(path).read_text())


def _read_matrix(path: str) -> CycMatrix:
    return CycMatrix.parse(Path(path).read_text())


# -- subcommand implementations ------------------------------------------------


def cmd_smooth(args) -> int:
    f = _read_form(args.form)
    result = is_smooth(f, budget=args.budget)
    if result.status == "smooth":
        print("SMOOTH")
        return EXIT_OK
    if result.status == "singular":
        print(f"SINGULAR {result.witness}")
        return EXIT_OK
    print("EXHAUSTED")
    return EXIT_EXHAUSTED


def cmd_rank(args) -> int:
    f = _read_form(args.form)
    print(rank_d(f, args.order))
    return EXIT_OK


def cmd_partition(args) -> int:
    f = _read_form(args.form)
    report = support_partition(f.terms.keys(), f.nvars)
    print(f"blocks {report.blocks} residual {report.residual} "
          f"certified-by {report.certified_by}")
    if args.group:
        g = _read_group(args.group)
        for k, gen in enumerate(g.generators):
            if gen.dim == 7:
                tag = eigen_partition_witness(gen)
                if tag:
                    print(f"generator {k}: eigenvalue partition witness {tag}")
    return EXIT_OK


def cmd_order(args) -> int:
    g = _read_group(args.group)
    try:
        grp = closure(g.generators, cap=args.cap)
    except CapExceeded as ex:
        print(f"CAP EXCEEDED after {ex.count} elements")
        return EXIT_EXHAUSTED
    print(f"order {grp.order} scalars {scalar_subgroup(grp)} "
          f"projective {projective_order(grp)}")
    if args.expect is not None and grp.order != args.expect:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_check_invariance(args) -> int:
    g = _read_group(args.group)
    f = _read_form(args.form)
    bad = 0
    for k, gen in enumerate(g.generators):
        ok = fixes(gen, f)
        print(f"generator {k}: {'FIXES' if ok else 'MOVES'}")
        bad += not ok
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def cmd_invariants(args) -> int:
    g = _read_group(args.group)
    space = invariant_forms(list(g.generators), args.degree)
    print(f"dimension {space.dimension}")
    for b in space.basis:
        sys.stdout.write(b.encode())
    return EXIT_OK


def cmd_symplectic(args) -> int:
    a = _read_matrix(args.matrix)
    f = _read_form(args.form)
    lam = semi_invariance_factor(a, f)
    if lam is None:
        print("matrix does not preserve the form up to scalar", file=sys.stderr)
        return EXIT_INPUT
    verdict = is_symplectic(a, f)
    print(f"{'YES' if verdict else 'NO'} lambda {lam.encode()} det {a.det().encode()}")
    return EXIT_OK


def cmd_reps(args) -> int:
    factors = [int(x) for x in args.abelian.split(",") if x]
    spec = AbelianGroupSpec.from_factors(factors)
    if args.filter:
        report = classify(spec, args.vars, args.degree)
        bound = "" if report.total_exact else "≤ "
        print(f"classes {bound}{report.total_classes} accepted {report.accepted} "
              f"rejected {report.rejected} undecided {report.undecided}")
        for v in report.verdicts:
            line = f"{v.rep.exp_matrix} {v.status}"
            if v.witness is not None:
                line += f" {v.witness}"
            if v.status == "accepted" and args.witness_dir:
                path = Path(args.witness_dir) / f"witness_{abs(hash(v.rep.exp_matrix))}.form"
                path.write_text(v.witness_form.encode())
                line += f" witness {path}"
            print(line)
        return EXIT_OK
    classes = enumerate_diagonal_reps(spec, args.vars, args.degree)
    print(f"classes {len(classes)}")
    for rc in classes:
        print(rc.exp_matrix)
    return EXIT_OK


def cmd_lift(args) -> int:
    g = _read_group(args.group)
    f = _read_form(args.form) if args.form else None
    lifted = covering_lift(list(g.generators), args.degree, form=f)
    sys.stdout.write(MatGroup(lifted).encode())
    return EXIT_OK


# -- example verification --------------------------------------------------------


@dataclass
class VerifyReport:
    id: str
    checks: list = field(default_factory=list)  # (name, status, detail)

    def add(self, name: str, status: str, detail: str = ""):
        self.checks.append((name, status, detail))

    @property
    def passed(self) -> bool:
        return all(s != "fail" for _, s, _ in self.checks)


def verify_example(rid: str, cap: int = DEFAULT_CAP,
                   smooth_budget: int = 2_000_000,
                   force_enumerate: bool = False) -> VerifyReport:
    rec = corpus.record(rid)
    rep = VerifyReport(rid)
    result = is_smooth(rec.form, budget=smooth_budget)
    if result.status == "smooth":
        rep.add("smooth", "pass")
    elif result.status == "exhausted":
        rep.add("smooth", "skip", "budget exhausted")
    else:
        rep.add("smooth", "fail", str(result.witness))
    if not rec.generators:
        rep.add("invariance", "skip", "no shipped generators (partial record)")
    else:
        bad = [k for k, g in enumerate(rec.generators) if not fixes(g, rec.form)]
        rep.add("invariance", "pass" if not bad else "fail",
                "" if not bad else f"generators {bad} move the form")
    run_closure = bool(rec.generators) and (rec.enumerable or force_enumerate)
    if run_closure and rec.closure_order is not None and rec.closure_order > cap:
        run_closure = False
    if run_closure:
        try:
            grp = closure(rec.generators, cap=cap)
        except CapExceeded as ex:
            rep.add("order", "skip", f"cap exceeded at {ex.count}")
            grp = None
        if grp is not None:
            if rec.closure_order is not None:
                rep.add("order", "pass" if grp.order == rec.closure_order else "fail",
                        f"closure {grp.order}, expected {rec.closure_order}")
            else:
                rep.add("order", "skip", f"closure {grp.order}, no recorded expectation")
            if not rec.partial:
                proj = projective_order(grp)
                rep.add("projective-order",
                        "pass" if proj == rec.projective_order else "fail",
                        f"projective {proj}, expected {rec.projective_order}")
            if (rec.form.nvars == 6 and not rec.partial
                    and rec.symplectic_order is not None):
                so = symplectic_order(grp, rec.form)
                rep.add("symplectic-order",
                        "pass" if so == rec.symplectic_order else "fail",
                        f"symplectic {so}, expected {rec.symplectic_order}")
    else:
        detail = f"expected order {rec.projective_order} recorded"
        if rec.generators and not rec.enumerable:
            detail += " (enumeration skipped: above default effort)"
        rep.add("order", "skip", detail)
    if rec.partial:
        rep.add("partial", "skip",
                f"record is partial: {rec.notes or 'generators incomplete'}")
    return rep


def cmd_example(args) -> int:
    if args.action == "list":
        for rid in corpus.all_ids():
            rec = corpus.record(rid)
            flags = []
            if rec.partial:
                flags.append("partial")
            if rec.enumerable:
                flags.append("enumerable")
            print(f"{rid:5s} m={rec.form.nvars} order={rec.projective_order} "
                  f"{','.join(flags)}")
        return EXIT_OK
    if args.action == "export":
        if not args.id or not args.dir:
            print("export needs an id and --dir", file=sys.stderr)
            return EXIT_INPUT
        rec = corpus.record(args.id)
        out = Path(args.dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = args.id.replace("'", "p").lower()
        (out / f"{stem}.form").write_text(rec.form.encode())
        if rec.generators:
            (out / f"{stem}.group").write_text(MatGroup(rec.generators).encode())
        print(f"wrote {stem}.form" + (f" and {stem}.group" if rec.generators else ""))
        return EXIT_OK
    # verify
    if not args.id:
        print("verify needs an example id", file=sys.stderr)
        return EXIT_INPUT
    try:
        rep = verify_example(args.id, cap=args.cap, force_enumerate=args.force)
    except KeyError as ex:
        print(str(ex), file=sys.stderr)
        return EXIT_INPUT
    for name, status, detail in rep.checks:
        line = f"{name}: {status}"
        if detail:
            line += f" ({detail})"
        print(line)
    return EXIT_OK if rep.passed else EXIT_MISMATCH


# -- batch runner ----------------------------------------------------------------


def _run_task(task: dict) -> dict:
    kind = task.get("task")
    t0 = time.perf_counter()
    out: dict = {"task": kind, "inputs": {k: v for k, v in task.items() if k != "task"}}
    try:
        if kind == "verify":
            rep = verify_example(task["id"], cap=task.get("cap", DEFAULT_CAP))
            out["result"] = {name: status for name, status, _ in rep.checks}
            out["status"] = "PASS" if rep.passed else "FAIL"
        elif kind == "smooth":
            res = is_smooth(_read_form(task["form"]), budget=task.get("budget", 1_000_000))
            out["result"] = res.status
            expect = task.get("expect")
            if res.status == "exhausted":
                out["status"] = "EXHAUSTED"
            else:
                out["status"] = "PASS" if expect in (None, res.status) else "FAIL"
        elif kind == "order":
            grp = closure(_read_group(task["group"]).generators,
                          cap=task.get("cap", DEFAULT_CAP))
            out["result"] = grp.order
            expect = task.get("expect")
            out["status"] = "PASS" if expect in (None, grp.order) else "FAIL"
        elif kind == "check-invariance":
            g = _read_group(task["group"])
            f = _read_form(task["form"])
            ok = all(fixes(gen, f) for gen in g.generators)
            out["result"] = ok
            out["status"] = "PASS" if ok else "FAIL"
        elif kind == "invariants-dim":
            g = _read_group(task["group"])
            space = invariant_forms(list(g.generators), task.get("degree", 3))
            out["result"] = space.dimension
            expect = task.get("expect")
            out["status"] = "PASS" if expect in (None, space.dimension) else "FAIL"
        elif kind == "symplectic":
            verdict = is_symplectic(_read_matrix(task["matrix"]), _read_form(task["form"]))
            out["result"] = verdict
            expect = task.get("expect")
            out["status"] = "PASS" if expect in (None, verdict) else "FAIL"
        elif kind == "reps-count":
            factors = [int(x) for x in str(task["abelian"]).split(",")]
            report = classify(AbelianGroupSpec.from_factors(factors),
                              task.get("vars", 7), task.get("degree", 3))
            total = "classes" if report.total_exact else "classes_at_most"
            out["result"] = {total: report.total_classes,
                             "accepted": report.accepted,
                             "undecided": report.undecided}
            expect = task.get("expect")
            out["status"] = "PASS" if expect in (None, report.accepted) else "FAIL"
        else:
            out["result"] = f"unknown task kind {kind!r}"
            out["status"] = "ERROR"
    except Exception as ex:  # recorded, batch continues
        out["result"] = f"{type(ex).__name__}: {ex}"
        out["status"] = "ERROR"
    out["elapsed"] = round(time.perf_counter() - t0, 3)
    return out


def cmd_run(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, json.JSONDecodeError) as ex:
        print(f"cannot read manifest: {ex}", file=sys.stderr)
        return EXIT_INPUT
    tasks = manifest["tasks"] if isinstance(manifest, dict) else manifest
    results = [_run_task(t) for t in tasks]
    all_ok = True
    for i, res in enumerate(results):
        res_out = {"index": i, **res}
        print(json.dumps(res_out, default=str))
        if res["status"] != "PASS":
            all_ok = False
    return EXIT_OK if all_ok else EXIT_MISMATCH


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubicsym",
                                description="Exact symmetry computations for cubic hypersurfaces")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("smooth", help="decide smoothness of a form")
    s.add_argument("--form", required=True)
    s.add_argument("--budget", type=int, default=1_000_000)
    s.set_defaults(fn=cmd_smooth)

    s = sub.add_parser("rank", help="derivative rank of a form")
    s.add_argument("--form", required=True)
    s.add_argument("--order", type=int, required=True)
    s.set_defaults(fn=cmd_rank)

    s = sub.add_parser("partition", help="support partition report")
    s.add_argument("--form", required=True)
    s.add_argument("--group")
    s.set_defaults(fn=cmd_partition)

    s = sub.add_parser("order", help="group order by closure")
    s.add_argument("--group", required=True)
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)
    s.add_argument("--expect", type=int)
    s.set_defaults(fn=cmd_order)

    s = sub.add_parser("check-invariance", help="do the generators fix the form")
    s.add_argument("--group", required=True)
    s.add_argument("--form", required=True)
    s.set_defaults(fn=cmd_check_invariance)

    s = sub.add_parser("invariants", help="invariant forms of a group")
    s.add_argument("--group", required=True)
    s.add_argument("--degree", type=int, default=3)
    s.set_defaults(fn=cmd_invariants)

    s = sub.add_parser("symplectic", help="symplectic test for one matrix")
    s.add_argument("--matrix", required=True)
    s.add_argument("--form", required=True)
    s.set_defaults(fn=cmd_symplectic)

    s = sub.add_parser("reps", help="diagonal representations of an abelian group")
    s.add_argument("--abelian", required=True, help="comma-separated factors, e.g. 9,5")
    s.add_argument("--vars", type=int, default=7)
    s.add_argument("--degree", type=int, default=3)
    s.add_argument("--filter", action="store_true")
    s.add_argument("--witness-dir")
    s.set_defaults(fn=cmd_reps)

    s = sub.add_parser("lift", help="covering lift of a group")
    s.add_argument("--group", required=True)
    s.add_argument("--degree", type=int, default=3)
    s.add_argument("--form")
    s.set_defaults(fn=cmd_lift)

    s = sub.add_parser("example", help="the shipped example corpus")
    s.add_argument("action", choices=["verify", "list", "export"])
    s.add_argument("id", nargs="?")
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)
    s.add_argument("--dir")
    s.add_argument("--force", action="store_true",
                   help="run closure even for records marked expensive")
    s.set_defaults(fn=cmd_example)

    s = sub.add_parser("run", help="batch manifest, JSON-lines output")
    s.add_argument("manifest")
    s.set_defaults(fn=cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
