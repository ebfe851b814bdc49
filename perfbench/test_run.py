"""Self-test of the benchmark harness.

Run from the root of a checkout: python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_reports_every_metric_without_errors(workload, trace, group):
    out = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    assert "error_rate" in out.stdout and "FAILED" not in out.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    assert not (ROOT / ".perfbench_work").exists()


def test_inputs_derive_from_the_seed(tmp_path):
    plans = [prepare("trace_roundtrip", seed, ROOT, tmp_path / str(i)) for i, seed in enumerate((5, 5, 6))]
    assert plans[0] == plans[1] != plans[2]
    for name in ("long.cfg", "pilot.cfg", "counterexample.cfg", "revealing.cfg"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    assert (tmp_path / "0" / "long.cfg").read_bytes() != (tmp_path / "2" / "long.cfg").read_bytes()


def test_reference_probes_do_not_touch_ddsearch():
    code = (
        "import sys, reference; reference.reference_pass(); exec(reference.REFERENCE_SETUP); "
        "assert not any(m.startswith('ddsearch') for m in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark("--workload", "montecarlo", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
