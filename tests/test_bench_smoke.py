"""Smoke test of the benchmark harness in perfbench/: a short traced manifest
and the set-up probe must run against the current src/ and print the JSON the
benchmark reads.  It reads perfbench/ and writes only to a temporary dir."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_traced_run_prints_one_passing_json_object(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"task": "verify", "id": "X20"},
        {"task": "reps-count", "abelian": "7", "vars": 7, "degree": 3},
        {"task": "reps-count", "abelian": "2,2", "vars": 7, "degree": 3},
        {"task": "verify", "id": "X8'"},
    ]))
    r = _run(["perfbench/traced.py", str(manifest), str(tmp_path / "spans.gz")])
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert [res["status"] for res in out["results"]] == ["PASS"] * 4
    # every function traced.py wraps still exists, so every metric is reported
    assert out["absent"] == []
    assert out["layers"].get("reps", 0) > 0
    assert out["layers"].get("invariants", 0) > 0
    assert out["metrics"]["reps.enum_rows"]["value"] > 0
    # the whole last level passes through _canonical_rows: 292 canonical rows
    # for C7 and 31 for C2xC2
    assert out["metrics"]["reps.enum_rows"]["value"] == 323
    # the closure hook reads MatGroup.order: X20 has 301 elements and X8' 32
    assert out["layers"].get("groups", 0) > 0
    assert out["metrics"]["groups.closure_elements"]["value"] == 333
    # the groebner hooks wrap module attributes: both loops must call
    # normal_form through the module global for the layer to show
    assert out["layers"].get("groebner", 0) > 0
    assert out["metrics"]["groebner.normal_form_calls"]["value"] > 0
    assert (tmp_path / "spans.gz").stat().st_size > 0


def test_ready_probe_dumps_every_record():
    r = _run(["perfbench/ready.py", "--dump"])
    assert r.returncode == 0, r.stderr
    records = json.loads(r.stdout)
    assert len(records) == 35
    assert all(len(orders) == 3 for orders in records.values())


def test_run_lines_have_the_shape_the_benchmark_reads(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import task_failure
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tasks = [{"task": "verify", "id": "X20"},
             {"task": "reps-count", "abelian": "2,2", "vars": 7, "degree": 3}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(tasks))
    r = _run(["-m", "cubicsym", "run", str(manifest)])
    assert r.returncode == 0, r.stderr
    lines = [json.loads(ln) for ln in r.stdout.splitlines()]
    assert len(lines) == len(tasks)
    for i, (task, line) in enumerate(zip(tasks, lines)):
        assert list(line) == ["index", "task", "inputs", "result", "status", "elapsed"]
        assert line["index"] == i and line["task"] == task["task"]
        assert line["inputs"] == {k: v for k, v in task.items() if k != "task"}
        assert isinstance(line["elapsed"], float)
        assert task_failure(task, line) is None, line
    assert lines[0]["result"] == {"smooth": "pass", "invariance": "pass", "order": "pass",
                                  "projective-order": "pass"}
