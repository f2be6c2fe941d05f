"""Smoke test for the E1 benchmark: one short repetition per workload.

Runs each workload once untraced and once traced, checks that both
report the same ``sim_digest`` with no failed repetition, and that every
metric named in ``BENCHMARK.json`` is printed.  Run from the repository
root (about half a minute)::

    python3 -m pytest e1bench/test_smoke.py -q
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.NAMES
    assert PER_LAYER == {key for key, _ in run.LAYER_METRICS} | {
        "bench.trace_overhead"
    }


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_and_untraced_agree(name):
    untraced = run.measure_untraced(
        name, 0, 0.0, import_s=0.0, setup_rounds=1, min_reps=1
    )
    traced = run.measure_traced(name, 0, 0.0, setup_rounds=1, min_reps=1)
    for result in (untraced, traced):
        assert result["json"]["correct"], result["lines"]
        assert result["json"]["failed"] == 0, result["lines"]
        assert any(line.startswith("error_frac=0.0000") for line in result["lines"])
    assert untraced["sim_digest"] is not None
    assert traced["sim_digest"] == untraced["sim_digest"]
    assert set(untraced["json"]["metrics"]) == END_TO_END
    assert set(traced["json"]["metrics"]) == PER_LAYER
    assert all(
        metric["value"] > 0 for metric in untraced["json"]["metrics"].values()
    )


def test_cli_last_line_is_the_result():
    out = subprocess.run(
        [sys.executable, "e1bench/run.py", "--workload", "offload",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    *human, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {line.split()[0] for line in human}
    for name in END_TO_END:
        assert result["metrics"][name]["unit"]
        assert name in printed


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "offload",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
