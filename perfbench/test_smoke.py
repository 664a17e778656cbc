"""Smoke test of the benchmark harness: every workload at tiny sizes, in both modes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It checks that each run exits 0, that every report passes its checks and that
every metric named in BENCHMARK.json is printed with its unit; it says
nothing about speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["decompose-large", "ensemble-exact", "certify-oracle", "cli-files"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
              "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
