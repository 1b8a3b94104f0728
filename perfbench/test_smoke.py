"""Smoke test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from queryplan.instances import QueryPlan  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], draws=1)


def declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_declared_metrics_match_the_benchmark():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert declared("end_to_end") == list(bench.END_TO_END)
    assert declared("per_layer") == list(tracing.PER_LAYER)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_prints_every_metric(name, traced, tmp_path, capsys):
    bench.run(tiny(name), 3, 0.01, traced, tmp_path, {})
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.PER_LAYER if traced else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    report = "\n".join(lines[:-1])
    for metric, unit in expected:
        assert any(metric in ln and f" {unit}" in ln for ln in report.splitlines())
    assert "failed_frac" in report


def test_wrong_plan_counts_as_failed(tmp_path):
    w = tiny("solve")
    cases = bench.setup(w, 0)
    good = bench.run_pass(w, cases, bench.HostSpeed())
    assert bench.check_pass(w, cases, good)[0] == 0
    cert = good.outputs[0].results["run_afptas"]
    empty = QueryPlan((0,) * cases[0].n_models)
    good.outputs[0].results["run_afptas"] = dataclasses.replace(cert, plan=empty)
    failed, messages, _ = bench.check_pass(w, cases, good)
    assert failed == 1 and "not surrogate-feasible" in messages[0]


def test_runs_fail_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
