"""Smoke test of the benchmark itself, at tiny horizons.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc, (json.loads(last) if last.startswith("{") else None)


def _smoke_args(name: str, trace: int = 0) -> list:
    return ["--workload", name, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--smoke"]


def test_spec_names_the_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = _run(*_smoke_args(workload.name, trace))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        row = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(row, proc.stdout, re.M), m["name"]
    assert "output check: " in proc.stdout
    # the run's scratch directory, which held the spill directories, is gone
    scratch = re.search(r"^scratch directory (\S+) removed$", proc.stdout, re.M)
    assert scratch and not (ROOT / scratch.group(1)).exists()
    if trace and workload.spill:
        assert result["metrics"]["telemetry.spill_bytes"]["value"] > 0
        assert result["metrics"]["analysis.passes"]["value"] == 3


def test_altered_reference_fails_the_run(tmp_path):
    name = "fig5_diurnal_ode"
    args = _smoke_args(name) + ["--reference-dir", str(tmp_path)]
    proc, _ = _run(*args, "--record")
    assert proc.returncode == 0, proc.stderr
    proc, result = _run(*args)
    assert proc.returncode == 0 and result["correct"], proc.stdout
    assert "output check: PASS" in proc.stdout

    path = tmp_path / f"{name}-smoke.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["seeds"]["0"]["digest"] = "0" * 64
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc, result = _run(*args)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "output check: FAIL" in proc.stdout

    # the same mismatch against a reference from another host is named,
    # not passed
    doc["fingerprint"]["numpy_simd"] = "NONE"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc, result = _run(*args)
    assert "output check: UNVERIFIED" in proc.stdout
    assert "numpy_simd (reference 'NONE'" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run(*_smoke_args("fig5_diurnal_ode"), cwd=tmp_path,
                        script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert result is None
