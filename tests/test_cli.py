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
    for rid in ("X20", "X5", "X5'"):
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
