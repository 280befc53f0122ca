"""Traced run of one manifest, in the program's own process.

Wraps the module-level functions of each cubicsym layer from outside (nothing
under src/ knows about it), runs the tasks one at a time as `cubicsym run`
does, and prints one JSON object with the per-layer metrics. Spans stay in
memory and are written once, gzip-compressed, when the run ends.

    PYTHONPATH=src python3 perfbench/traced.py MANIFEST SPANS_OUT

A span is (id, parent id, name, start, end); its self time is its duration
minus the time its child spans cover. CycNum multiplications and inverses are
counted, not spanned: there are millions of them.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import gzip  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from functools import wraps  # noqa: E402
from pathlib import Path  # noqa: E402

import cubicsym  # noqa: E402
from cubicsym import cli, corpus  # noqa: E402

from workloads import task_label  # noqa: E402

_RAISED = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.agg: dict[str, list] = {}  # name -> [calls, self s, total s]
        self.count: Counter = Counter()
        self.scope: Counter = Counter()  # open spans per scope label
        self.absent: list[str] = []

    def span(self, fn, name, on_exit=None, scope=None):
        """Wrap fn in a span; name is a string or name(args, result)."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.spans) + len(stack) + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            if scope:
                tracer.scope[scope] += 1
            result = _RAISED
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if scope:
                    tracer.scope[scope] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                label = name(args, result) if callable(name) else name
                entry = tracer.agg.setdefault(label, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += dur - frame[1]
                entry[2] += dur
                tracer.spans.append((sid, parent, label, t0, t1))
                if on_exit is not None and result is not _RAISED:
                    on_exit(args, result)
        return wrapper

    def counted(self, fn, key):
        count = self.count

        @wraps(fn)
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, module, attr: str, make) -> None:
        """Replace every binding of module.attr: the attribute itself, copies
        made by `from .x import y` in other cubicsym modules, and aliases in
        a class body such as `__rmul__ = __mul__`."""
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        new = make(orig)
        owners = [owner] if isinstance(owner, type) else [
            mod for name, mod in list(sys.modules.items())
            if name == "cubicsym" or name.startswith("cubicsym.")]
        for obj in owners:
            for key, value in list(vars(obj).items()):
                if value is orig:
                    setattr(obj, key, new)
        if getattr(owner, leaf) is orig:  # inherited, so not in any namespace above
            setattr(owner, leaf, new)


def _smooth_outcome(tracer: Tracer):
    def on_exit(args, res):
        if res.status == "singular" and res.witness.kind != "JacobianZero":
            tracer.count["smooth.support_rejects"] += 1
        if tracer.scope["witness"]:
            tracer.count["reps.witness_attempts"] += 1
    return on_exit


def instrument(t: Tracer) -> None:
    from cubicsym import cyclo, forms, groebner, groups, invariants, reps, smooth
    # cli imported every layer above, so every `from .x import y` copy exists by now
    t.install(cyclo, "CycNum.__mul__", lambda f: t.counted(f, "cyclo.mul"))
    t.install(cyclo, "CycNum.inv", lambda f: t.counted(f, "cyclo.inv"))
    t.install(forms, "apply", lambda f: t.span(
        f, lambda a, r: "forms.apply_semiperm" if a[0].is_semi_permutation()
        else "forms.apply_dense"))
    t.install(forms, "CycMatrix.__mul__", lambda f: t.span(f, "forms.matmul"))
    t.install(groebner, "buchberger", lambda f: t.span(
        f, "groebner.buchberger",
        lambda a, r: t.count.update({"groebner.basis_size": len(r)})))
    t.install(groebner, "normal_form", lambda f: t.span(
        f, "groebner.normal_form",
        lambda a, r: t.count.update({"groebner.zero_reductions": not r})))
    t.install(smooth, "is_smooth", lambda f: t.span(
        f, lambda a, r: f"smooth.{getattr(r, 'status', 'raised')}", _smooth_outcome(t)))
    t.install(groups, "closure", lambda f: t.span(
        f, "groups.closure",
        lambda a, r: t.count.update({"groups.closure_elements": r.order})))
    t.install(groups, "projective_order", lambda f: t.span(f, "groups.projective_order"))
    t.install(groups, "projective_classes", lambda f: t.span(f, "groups.projective_classes"))
    t.install(invariants, "symplectic_order", lambda f: t.span(f, "invariants.symplectic_order"))
    t.install(invariants, "is_symplectic", lambda f: t.span(f, "invariants.is_symplectic"))
    t.install(reps, "classify", lambda f: t.span(f, "reps.classify"))
    t.install(reps, "_canonical_rows", lambda f: t.span(
        f, "reps.enum", lambda a, r: t.count.update({"reps.enum_rows": int(r[0].shape[0])})))
    t.install(reps, "_combined_tables", lambda f: t.span(
        f, "reps.tables", lambda a, r: t.count.update({"reps.symmetry_tables": len(r[0])})))
    t.install(reps, "_valid_mask", lambda f: t.span(f, "reps.valid_mask"))
    t.install(reps, "_bulk_square_mask", lambda f: t.span(f, "reps.bulk_mask"))
    t.install(reps, "filter_to_nd_reps", lambda f: t.span(
        f, "reps.filter", lambda a, r: t.count.update({"reps.filtered": len(a[0])})))
    t.install(reps, "_search_smooth_witness", lambda f: t.span(
        f, "reps.witness",
        lambda a, r: t.count.update({"reps.witness_hits": r.status == "accepted"}),
        scope="witness"))
    t.install(cli, "_run_task", lambda f: t.span(
        f, lambda a, r: f"task.{task_label(a[0])}"))


# metric -> (unit, wrapped names it needs, value); a metric whose names are
# absent is left out
def _metrics(t: Tracer) -> dict:
    def calls(*names):
        return sum(t.agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(t.agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    c = t.count
    nf = calls("groebner.normal_form")
    table = {
        "cyclo.mul_calls": ("count", ["cyclo.CycNum.__mul__"], c["cyclo.mul"]),
        "cyclo.inv_calls": ("count", ["cyclo.CycNum.inv"], c["cyclo.inv"]),
        "forms.apply_dense_calls": ("count", ["forms.apply"], calls("forms.apply_dense")),
        "forms.apply_dense_s": ("s", ["forms.apply"], self_s("forms.apply_dense")),
        "forms.apply_semiperm_calls": ("count", ["forms.apply"], calls("forms.apply_semiperm")),
        "forms.apply_semiperm_s": ("s", ["forms.apply"], self_s("forms.apply_semiperm")),
        "forms.matmul_calls": ("count", ["forms.CycMatrix.__mul__"], calls("forms.matmul")),
        "forms.matmul_s": ("s", ["forms.CycMatrix.__mul__"], self_s("forms.matmul")),
        "groebner.buchberger_calls": ("count", ["groebner.buchberger"],
                                      calls("groebner.buchberger")),
        "groebner.buchberger_s": ("s", ["groebner.buchberger"], self_s("groebner.buchberger")),
        "groebner.normal_form_calls": ("count", ["groebner.normal_form"], nf),
        "groebner.normal_form_s": ("s", ["groebner.normal_form"],
                                   self_s("groebner.normal_form")),
        "groebner.zero_reduction_share": ("ratio", ["groebner.normal_form"],
                                          ratio(c["groebner.zero_reductions"], nf)),
        "groebner.basis_size": ("count", ["groebner.buchberger"], c["groebner.basis_size"]),
        "smooth.smooth_calls": ("count", ["smooth.is_smooth"], calls("smooth.smooth")),
        "smooth.singular_calls": ("count", ["smooth.is_smooth"], calls("smooth.singular")),
        "smooth.exhausted_calls": ("count", ["smooth.is_smooth"], calls("smooth.exhausted")),
        "smooth.smooth_s": ("s", ["smooth.is_smooth"], self_s("smooth.smooth")),
        "smooth.singular_s": ("s", ["smooth.is_smooth"], self_s("smooth.singular")),
        "smooth.support_rejects": ("count", ["smooth.is_smooth"], c["smooth.support_rejects"]),
        "groups.closure_calls": ("count", ["groups.closure"], calls("groups.closure")),
        "groups.closure_s": ("s", ["groups.closure"], self_s("groups.closure")),
        "groups.closure_elements": ("count", ["groups.closure"], c["groups.closure_elements"]),
        "groups.projective_order_s": ("s", ["groups.projective_order"],
                                      self_s("groups.projective_order")),
        "groups.projective_classes_s": ("s", ["groups.projective_classes"],
                                        self_s("groups.projective_classes")),
        "invariants.symplectic_order_s": ("s", ["invariants.symplectic_order"],
                                          self_s("invariants.symplectic_order")),
        "invariants.is_symplectic_calls": ("count", ["invariants.is_symplectic"],
                                           calls("invariants.is_symplectic")),
        "invariants.is_symplectic_s": ("s", ["invariants.is_symplectic"],
                                       self_s("invariants.is_symplectic")),
        "reps.classify_s": ("s", ["reps.classify"], self_s("reps.classify")),
        "reps.enum_s": ("s", ["reps._canonical_rows"], self_s("reps.enum", "reps.tables")),
        "reps.enum_rows": ("count", ["reps._canonical_rows"], c["reps.enum_rows"]),
        "reps.symmetry_tables": ("count", ["reps._combined_tables"], c["reps.symmetry_tables"]),
        "reps.valid_mask_s": ("s", ["reps._valid_mask"], self_s("reps.valid_mask")),
        "reps.bulk_mask_s": ("s", ["reps._bulk_square_mask"], self_s("reps.bulk_mask")),
        "reps.survivor_share": ("ratio", ["reps._canonical_rows", "reps.filter_to_nd_reps"],
                                ratio(c["reps.filtered"], c["reps.enum_rows"])),
        "reps.filter_s": ("s", ["reps.filter_to_nd_reps"], self_s("reps.filter")),
        "reps.witness_s": ("s", ["reps._search_smooth_witness"], self_s("reps.witness")),
        "reps.witness_attempts": ("count", ["reps._search_smooth_witness"],
                                  c["reps.witness_attempts"]),
        "reps.witness_hit_ratio": ("ratio", ["reps._search_smooth_witness"],
                                   ratio(c["reps.witness_hits"], c["reps.witness_attempts"])),
        "corpus.build_s": ("s", [], self_s("corpus.build")),
    }
    absent = {name.split(".", 1)[1] for name in t.absent}
    return {name: {"value": value, "unit": unit}
            for name, (unit, needs, value) in table.items()
            if not absent.intersection(needs)}


def layer_activity(t: Tracer) -> dict:
    """Spans (or counted calls, for cyclo) recorded per layer."""
    out = Counter()
    for name, (calls, _, _) in t.agg.items():
        layer = "cli" if name.startswith("task.") else name.split(".")[0]
        out[layer] += calls
    out["cyclo"] += t.count["cyclo.mul"] + t.count["cyclo.inv"]
    return dict(out)


def main() -> None:
    manifest, spans_out = Path(sys.argv[1]), Path(sys.argv[2])
    tasks = json.loads(manifest.read_text())
    t = Tracer()
    instrument(t)
    build = t.span(lambda: [corpus.record(rid) for rid in corpus.all_ids()], "corpus.build")
    build()
    results = [cli._run_task(task) for task in tasks]
    makespan = time.perf_counter() - T_START
    covered = sum(s for name, (_, s, _) in t.agg.items() if not name.startswith("task."))
    with gzip.open(spans_out, "wt") as fh:
        for sid, parent, name, t0, t1 in t.spans:
            fh.write(f"{sid} {parent} {name} {t0 - T_START:.9f} {t1 - T_START:.9f}\n")
    print(json.dumps({
        "program": cubicsym.__file__,
        "results": results,
        "makespan_s": makespan,
        "span_coverage": covered / makespan,
        "spans": len(t.spans),
        "metrics": _metrics(t),
        # whole task durations: a task span's self time is only the cli glue
        "task_s": {name: total for name, (_, _, total) in t.agg.items()
                   if name.startswith("task.")},
        "layers": layer_activity(t),
        "absent": t.absent,
    }, default=str))


if __name__ == "__main__":
    main()
