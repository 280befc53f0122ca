import json
import subprocess
import sys

import pytest

from cubicsym import reps
from cubicsym.cli import _run_task, main

BASE = [sys.executable, "-m", "cubicsym"]


def run_cli(args):
    return subprocess.run(BASE + args, capture_output=True, text=True)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for rid in ("X20", "X5", "X5'", "X9"):
        assert main(["example", "export", rid, "--dir", str(d)]) == 0
    return d


def test_smooth_command(exported):
    r = run_cli(["smooth", "--form", str(exported / "x20.form")])
    assert r.returncode == 0 and r.stdout.strip() == "SMOOTH"
    r = run_cli(["smooth", "--form", str(exported / "x20.form"), "--budget", "1"])
    assert r.returncode == 3 and r.stdout.strip() == "EXHAUSTED"


def test_input_error_exit_code(exported):
    r = run_cli(["smooth", "--form", str(exported / "missing.form")])
    assert r.returncode == 2


def test_order_and_expect(exported):
    r = run_cli(["order", "--group", str(exported / "x20.group"), "--expect", "301"])
    assert r.returncode == 0
    assert "order 301" in r.stdout
    r = run_cli(["order", "--group", str(exported / "x20.group"), "--expect", "300"])
    assert r.returncode == 1
    r = run_cli(["order", "--group", str(exported / "x20.group"), "--cap", "10"])
    assert r.returncode == 3


def test_check_invariance_and_rank(exported):
    r = run_cli(["check-invariance", "--group", str(exported / "x20.group"),
                 "--form", str(exported / "x20.form")])
    assert r.returncode == 0 and r.stdout.count("FIXES") == 2
    r = run_cli(["rank", "--form", str(exported / "x20.form"), "--order", "1"])
    assert r.returncode == 0 and r.stdout.strip() == "7"


def test_symplectic_command(exported):
    r = run_cli(["symplectic", "--matrix", str(exported / "x5p.group"),
                 "--form", str(exported / "x5p.form")])
    # a group file is not a matrix file
    assert r.returncode == 2
    # write the single X5' generator as a matrix file
    from cubicsym import corpus
    mat = corpus.record("X5'").generators[0]
    p = exported / "x5p.matrix"
    p.write_text(mat.encode())
    r = run_cli(["symplectic", "--matrix", str(p), "--form", str(exported / "x5p.form")])
    assert r.returncode == 0 and r.stdout.startswith("NO")


def test_reps_command():
    r = run_cli(["reps", "--abelian", "2", "--vars", "7", "--degree", "3",
                 "--filter"])
    assert r.returncode == 0
    assert "classes 6 accepted 3" in r.stdout


def test_reps_labels_a_bounded_total(monkeypatch, capsys):
    assert _run_task({"task": "reps-count", "abelian": "2,2"})["result"] == {
        "classes": 20, "accepted": 4, "undecided": 0}
    monkeypatch.setattr(reps, "AUT_ENUM_CAP", 10)
    assert main(["reps", "--abelian", "2,2", "--filter"]) == 0
    assert capsys.readouterr().out.startswith("classes ≤ 25 accepted 4 ")
    out = _run_task({"task": "reps-count", "abelian": "2,2"})
    assert out["result"] == {"classes_at_most": 25, "accepted": 4, "undecided": 0}


def test_reps_past_the_materialization_cap_points_to_filter(monkeypatch, capsys):
    # C7 has 290 classes in 7 variables; the cap is checked on the count of
    # valid rows, before any class is built
    monkeypatch.setattr(reps, "ENUM_MATERIALIZE_CAP", 10)

    def build(*args):
        raise AssertionError("classes built past the cap")
    monkeypatch.setattr(reps, "_rows_to_classes", build)
    assert main(["reps", "--abelian", "7", "--vars", "7", "--degree", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "290 classes" in out.err and "--filter" in out.err


def test_reps_filter_rejects_non_cubic_degree(tmp_path):
    r = run_cli(["reps", "--abelian", "5", "--vars", "7", "--degree", "4", "--filter"])
    assert r.returncode == 2
    assert "degree 4" in r.stderr and "bad exponent vector" not in r.stderr
    manifest = tmp_path / "quartic.json"
    manifest.write_text(json.dumps([{"task": "reps-count", "abelian": "5",
                                     "vars": 7, "degree": 4}]))
    r = run_cli(["run", str(manifest)])
    rec = json.loads(r.stdout.splitlines()[0])
    assert r.returncode == 1 and rec["status"] == "ERROR"
    assert "degree 4" in rec["result"]
    # plain enumeration has no cubic-only step
    r = run_cli(["reps", "--abelian", "2", "--vars", "4", "--degree", "4"])
    assert r.returncode == 0 and r.stdout.startswith("classes ")
    # but it needs a variable and a positive degree, with or without --filter
    for shape in (["--degree", "0"], ["--degree", "-1"], ["--vars", "0"], ["--vars", "-3"],
                  ["--vars", "0", "--filter"]):
        r = run_cli(["reps", "--abelian", "2", *shape])
        assert r.returncode == 2 and r.stdout == "", shape
        assert "at least one variable" in r.stderr, shape
    # and a group needs at least one factor
    for abelian in ("", ","):
        r = run_cli(["reps", "--abelian", abelian])
        assert r.returncode == 2 and r.stdout == "", abelian
        assert "at least one factor" in r.stderr, abelian


def test_export_writes_the_shipped_files(tmp_path, capsys):
    # the loader round trip: every record exports to the bytes it was read from
    import importlib.resources as res

    from cubicsym import corpus

    data = res.files("cubicsym") / "data" / "examples"
    for rid in corpus.all_ids():
        assert main(["example", "export", rid, "--dir", str(tmp_path)]) == 0
    written = sorted(tmp_path.iterdir())
    assert len(written) == 68
    for path in written:
        assert path.read_bytes() == (data / path.name).read_bytes(), path.name
    capsys.readouterr()


def test_example_verify_exit_codes():
    r = run_cli(["example", "verify", "X20"])
    assert r.returncode == 0
    assert "order: pass" in r.stdout
    r = run_cli(["example", "verify", "NOPE"])
    assert r.returncode == 2


def test_example_verify_above_cap_is_skipped():
    r = run_cli(["example", "verify", "X1"])
    assert r.returncode == 0
    assert "smooth: pass" in r.stdout
    assert "invariance: pass" in r.stdout
    assert "order: skip" in r.stdout
    assert "3674160" in r.stdout


def test_run_manifest(exported, tmp_path):
    manifest = [
        {"task": "smooth", "form": str(exported / "x20.form"), "expect": "smooth"},
        {"task": "order", "group": str(exported / "x20.group"), "expect": 301},
        {"task": "check-invariance", "group": str(exported / "x5.group"),
         "form": str(exported / "x5.form")},
        {"task": "reps-count", "abelian": "2", "vars": 7, "degree": 3, "expect": 3},
    ]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    r = run_cli(["run", str(mpath)])
    assert r.returncode == 0
    lines = [json.loads(ln) for ln in r.stdout.splitlines()]
    assert [ln["status"] for ln in lines] == ["PASS"] * 4
    assert [ln["index"] for ln in lines] == [0, 1, 2, 3]


def test_run_manifest_empty_and_error(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    r = run_cli(["run", str(empty)])
    assert r.returncode == 0 and r.stdout.strip() == ""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"task": "smooth", "form": "/nonexistent.form"}]))
    r = run_cli(["run", str(bad)])
    assert r.returncode == 1
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["status"] == "ERROR"


def test_shipped_manifest_examples():
    import importlib.resources as res

    mpath = res.files("cubicsym") / "data" / "manifests" / "examples.json"
    r = run_cli(["run", str(mpath)])
    assert r.returncode == 0
    lines = [json.loads(ln) for ln in r.stdout.splitlines()]
    assert all(ln["status"] == "PASS" for ln in lines)


STATUS_OF_EXIT = {0: "PASS", 1: "FAIL", 2: "ERROR", 3: "EXHAUSTED"}


def test_subcommands_and_run_share_each_job(exported):
    e = exported
    x20f, x20g = str(e / "x20.form"), str(e / "x20.group")
    x5f, x5g = str(e / "x5.form"), str(e / "x5.group")
    x5pf = str(e / "x5p.form")
    from cubicsym import corpus
    x5pm = e / "x5p_gen.matrix"
    x5pm.write_text(corpus.record("X5'").generators[0].encode())
    cases = [  # (subcommand, the same job as a manifest task, status)
        (["smooth", "--form", x20f], {"task": "smooth", "form": x20f}, "PASS"),
        (["smooth", "--form", x20f, "--budget", "1"],
         {"task": "smooth", "form": x20f, "budget": 1}, "EXHAUSTED"),
        (["smooth", "--form", x20f, "--budget", "0"],
         {"task": "smooth", "form": x20f, "budget": 0}, "EXHAUSTED"),
        (["smooth", "--form", x20f, "--budget", "-1"],
         {"task": "smooth", "form": x20f, "budget": -1}, "ERROR"),
        (["smooth", "--form", str(e / "missing.form")],
         {"task": "smooth", "form": str(e / "missing.form")}, "ERROR"),
        (["order", "--group", x20g, "--expect", "301"],
         {"task": "order", "group": x20g, "expect": 301}, "PASS"),
        (["order", "--group", x20g, "--expect", "300"],
         {"task": "order", "group": x20g, "expect": 300}, "FAIL"),
        (["order", "--group", x20g, "--cap", "10"],
         {"task": "order", "group": x20g, "cap": 10}, "EXHAUSTED"),
        (["check-invariance", "--group", x5g, "--form", x5f],
         {"task": "check-invariance", "group": x5g, "form": x5f}, "PASS"),
        (["check-invariance", "--group", x5g, "--form", x20f],
         {"task": "check-invariance", "group": x5g, "form": x20f}, "FAIL"),
        (["invariants", "--group", x5g, "--degree", "1"],
         {"task": "invariants-dim", "group": x5g, "degree": 1}, "PASS"),
        (["symplectic", "--matrix", str(x5pm), "--form", x5pf],
         {"task": "symplectic", "matrix": str(x5pm), "form": x5pf}, "PASS"),
        (["symplectic", "--matrix", x5g, "--form", x5pf],
         {"task": "symplectic", "matrix": x5g, "form": x5pf}, "ERROR"),
        (["reps", "--abelian", "2", "--filter"], {"task": "reps-count", "abelian": "2"}, "PASS"),
        (["example", "verify", "X20"], {"task": "verify", "id": "X20"}, "PASS"),
        (["example", "verify", "X99"], {"task": "verify", "id": "X99"}, "ERROR"),
    ]
    for argv, task, status in cases:
        assert STATUS_OF_EXIT[main(argv)] == status, argv
        assert _run_task(task)["status"] == status, task


def test_expect_mismatches_fail_in_run(exported):
    e = exported
    for task in ({"task": "smooth", "form": str(e / "x20.form"), "expect": "singular"},
                 {"task": "invariants-dim", "group": str(e / "x5.group"), "degree": 1,
                  "expect": 1},
                 {"task": "symplectic", "matrix": str(e / "x5p_gen.matrix"),
                  "form": str(e / "x5p.form"), "expect": True},
                 {"task": "reps-count", "abelian": "2", "expect": 2}):
        assert _run_task(task)["status"] == "FAIL", task


def test_an_input_the_job_does_not_take_is_an_error(exported, capsys):
    out = _run_task({"task": "check-invariance", "group": str(exported / "x5.group"),
                     "form": str(exported / "x5.form"), "expect": True})
    assert out["status"] == "ERROR" and "expect" in out["result"]
    assert _run_task({"task": "verify"})["status"] == "ERROR"
    assert _run_task({"task": "nope"})["status"] == "ERROR"
    # --witness-dir only means something with --filter
    assert main(["reps", "--abelian", "2", "--witness-dir", str(exported)]) == 2
    assert main(["example", "export", "X20"]) == 2
    capsys.readouterr()


def test_order_rejects_an_infinite_group(tmp_path, exported, capsys):
    from cubicsym.cyclo import modular_embedding
    from cubicsym.forms import CycMatrix
    from cubicsym.groups import MatGroup

    p = modular_embedding(1).p
    shear = CycMatrix.from_rows([[1, p], [0, 1]])
    for k, gens in enumerate(([shear], [CycMatrix.from_rows([[-1, 0], [0, 1]]), shear])):
        path = tmp_path / f"infinite{k}.group"
        path.write_text(MatGroup(gens).encode())
        assert main(["order", "--group", str(path)]) == 2
        assert main(["order", "--group", str(path), "--expect", "1"]) == 2
        assert _run_task({"task": "order", "group": str(path)})["status"] == "ERROR"
    assert capsys.readouterr().out == ""
    assert main(["order", "--group", str(exported / "x20.group")]) == 0
    assert capsys.readouterr().out.startswith("order 301 ")


def test_readme_commands_close_x9(exported, capsys):
    # README: verify computes a group recorded up to --cap, and order closes
    # the exported group, each in about a second
    assert main(["example", "verify", "X9", "--cap", "20000"]) == 0
    out = capsys.readouterr().out
    assert "order: pass (closure 12960, expected 12960)" in out
    assert "projective-order: pass (projective 12960, expected 12960)" in out
    assert main(["order", "--group", str(exported / "x9.group"), "--expect", "12960"]) == 0
    assert capsys.readouterr().out == "order 12960 scalars 1 projective 12960\n"


def test_order_rejects_a_cap_below_one(tmp_path, capsys):
    from cubicsym.forms import CycMatrix
    from cubicsym.groups import MatGroup

    path = tmp_path / "trivial.group"
    path.write_text(MatGroup([CycMatrix.identity(2)]).encode())
    for cap in ("0", "-7"):
        assert main(["order", "--group", str(path), "--cap", cap]) == 2
        assert main(["example", "verify", "X20", "--cap", cap]) == 2
        out = _run_task({"task": "verify", "id": "X20", "cap": int(cap)})
        assert out["status"] == "ERROR" and "cap" in out["result"]
    assert capsys.readouterr().out == ""
    assert main(["order", "--group", str(path), "--cap", "1"]) == 0
    assert capsys.readouterr().out.startswith("order 1 ")


def test_partition_checks_the_group_dimension(exported, capsys):
    # a 6-variable form against a 7-dimensional group
    x5pf, x20f, x20g = (str(exported / name) for name in ("x5p.form", "x20.form", "x20.group"))
    assert main(["partition", "--form", x5pf, "--group", x20g]) == 2
    assert capsys.readouterr().out == ""
    assert main(["partition", "--form", x20f, "--group", x20g]) == 0
    assert capsys.readouterr().out.startswith("blocks ")


def test_example_verify_closure_follows_the_cap(monkeypatch, capsys):
    from cubicsym import cli, corpus

    assert main(["example", "verify", "X20", "--cap", "300"]) == 0
    assert "order: skip (expected order 301 recorded" in capsys.readouterr().out
    x20 = corpus.record("X20")
    # a group larger than its record fails the order check, however it is found
    for cap in (300, 10_000):
        monkeypatch.setattr(cli.corpus, "record", lambda rid: x20._replace(closure_order=300))
        assert main(["example", "verify", "X20", "--cap", str(cap)]) == 1
        assert "order: fail" in capsys.readouterr().out


def test_numpy_loads_only_for_the_jobs_that_use_it():
    # the corpus and every job but the closure and the enumerator run
    # without numpy, so a cold start does not pay for its import; nor does it
    # build the support mask tables, which the first smoothness scan builds.
    # Starting loads no layer that a job imports on first use, nor the
    # standard modules only the parser and the input check need.
    # Only the rank and partition jobs import diffrank.
    code = """
import sys
from cubicsym import cli, corpus
ids = corpus.all_ids()
assert corpus.record.cache_info().currsize == 0  # no file is parsed before use
records = [corpus.record(rid) for rid in ids]
assert len(records) == 35, len(records)
loaded = {"dataclasses", "inspect", "argparse", "numpy", "cubicsym.reps", "cubicsym.smooth",
          "cubicsym.groebner", "cubicsym.invariants", "cubicsym.diffrank"} & set(sys.modules)
assert not loaded, loaded
from cubicsym import smooth
assert smooth._support_table.cache_info().currsize == 0
out = cli._run_task({"task": "reps-count", "abelian": "7", "expect": 1})
assert out["status"] == "PASS", out
assert "numpy" in sys.modules
assert "cubicsym.diffrank" not in sys.modules
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr


LAYERS = {"cubicsym.smooth", "cubicsym.reps", "cubicsym.invariants", "cubicsym.diffrank"}
LAYER_CASES = [  # (task, the layers it loads)
    ({"task": "order", "group": "x20.group"}, set()),
    ({"task": "check-invariance", "group": "x20.group", "form": "x20.form"}, set()),
    ({"task": "smooth", "form": "x20.form"}, {"cubicsym.smooth"}),
    ({"task": "invariants-dim", "group": "x5.group", "degree": 1}, {"cubicsym.invariants"}),
    ({"task": "symplectic", "matrix": "a.matrix", "form": "x5p.form"}, {"cubicsym.invariants"}),
    ({"task": "verify", "id": "X20"}, {"cubicsym.smooth", "cubicsym.invariants"}),
    ({"task": "reps-count", "abelian": "2"}, {"cubicsym.reps", "cubicsym.smooth"}),
]


@pytest.mark.parametrize("task, loaded", LAYER_CASES, ids=[t["task"] for t, _ in LAYER_CASES])
def test_a_run_task_loads_only_its_layers(exported, task, loaded):
    # in a fresh interpreter, each task kind imports its own layers and no other
    from cubicsym import corpus
    (exported / "a.matrix").write_text(corpus.record("X5'").generators[0].encode())
    task = {k: str(exported / v) if k in ("group", "form", "matrix") else v
            for k, v in task.items()}
    code = """
import json, sys
from cubicsym import cli
task, loaded, absent = json.loads(sys.argv[1])
out = cli._run_task(task)
assert out["status"] == "PASS", out
assert set(loaded) <= set(sys.modules), loaded
assert not set(absent) & set(sys.modules), absent
"""
    spec = json.dumps([task, sorted(loaded), sorted(LAYERS - loaded)])
    r = subprocess.run([sys.executable, "-c", code, spec], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
