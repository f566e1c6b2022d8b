"""The benchmark's own tests, on small op lists (`--smoke`).

    python3 -m pytest -q perfbench

They run the benchmark as a separate process, as a user would, and never
patch the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path, *args, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--out", str(tmp_path / "out"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def record(tmp_path, workload, trace):
    return json.loads((tmp_path / "out" / f"{workload}-seed1-trace{trace}-smoke.json").read_text())


@pytest.mark.parametrize("workload", ["census", "lines", "block", "harness"])
def test_end_to_end_metrics_emitted_with_units(tmp_path, workload):
    proc, result = bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rec = record(tmp_path, workload, 0)
    if workload in ("block", "harness"):
        assert rec["budget_use"] and all(u["used_s"] > 0 for u in rec["budget_use"].values())
    env = rec["environment"]
    assert {"commit", "python", "mpmath", "nproc", "loadavg_start", "loadavg_end", "seed"} <= set(env)


@pytest.mark.parametrize("workload", ["block", "harness"])
def test_per_layer_metrics_emitted_with_units(tmp_path, workload):
    proc, result = bench(tmp_path, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    rec = record(tmp_path, workload, 1)
    assert rec["missing_functions"] == []
    metrics = result["metrics"]
    assert metrics["trace.wall_s"]["value"] > 0
    if workload == "block":
        assert metrics["blocking.min_blocking_set.calls"]["value"] > 0
        assert metrics["blocking.min_blocking_set.self_s"]["value"] > 0
        assert metrics["blocking.candidate_blockers.candidates"]["value"] > 0
        assert metrics["generators.random_general_position_set.resamples"]["value"] >= 0
    else:
        assert metrics["cli.run.files_written"]["value"] > 0
        assert metrics["cli.task_block.calls"]["value"] > 0
    spans = json.loads((tmp_path / "out" / f"spans-{workload}-seed1-trace1-smoke.json").read_text())
    assert spans["spans"] and spans["functions"]


def test_wrong_reference_shows_in_failed(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["census"]["6"] = [3, 3]
    bad = tmp_path / "bad-reference.json"
    bad.write_text(json.dumps(ref))
    proc, result = bench(tmp_path, "--workload", "census", "--reference", str(bad))
    assert proc.returncode == 1
    assert not result["correct"]
    passes = record(tmp_path, "census", 0)["passes"]
    assert result["failed"] == passes  # n=6 fails once per pass, nothing else
    assert result["failed"] / result["attempted"] > 0


def test_seed_draws_other_ops():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    ref = json.loads((HERE / "reference.json").read_text())
    for name in ("block", "harness"):
        a = [op.label for op in workloads.make_workload(name, 1, False, ref, HERE / "out").make_ops()]
        b = [op.label for op in workloads.make_workload(name, 2, False, ref, HERE / "out").make_ops()]
        assert sorted(a) != sorted(b), name


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    for args in (["--workload", "census"], []):
        proc, result = bench(tmp_path, *args, root=tmp_path)
        assert proc.returncode != 0
        assert result is None
