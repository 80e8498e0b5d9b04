"""Tiny-scale smoke test of the benchmark harness (not a performance test).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at 1-2% of its size, traced and untraced, and checks the
result line against BENCHMARK.json; then checks that the harness refuses to
run without the setvec sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace, out_dir):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02", "--out", out_dir],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_result_line_matches_contract(workload, trace, tmp_path):
    spec = _spec()
    out = _run(ROOT, workload, trace, os.path.relpath(tmp_path, ROOT))
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, out.stdout
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        assert os.path.exists(tmp_path / f"spans-{workload}-seed5.jsonl")
    assert os.path.exists(tmp_path / f"result-{workload}-seed5-trace{trace}.json")


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "ingest", 0, ".perfbench-out")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
