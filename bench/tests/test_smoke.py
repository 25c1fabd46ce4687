"""Smoke test of the benchmark: every workload once at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=REPO, script=REPO / "bench" / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def copy_bench(dest: Path) -> None:
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", "--tiny"]
    plain = bench(*args, "--trace", "0")
    result = result_of(plain)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert "fail_ratio   0.0000" in plain.stdout
    assert "run_tail_s" in plain.stdout

    traced = result_of(bench(*args, "--trace", "1"))
    assert traced["correct"]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    # the layers' self times add up to the traced operation time
    assert abs(layers["bench.unattributed_s"]) <= 1e-3 + 0.01 * layers["bench.traced_op_s"]
    assert layers["lpcore.solves"] > 0 and layers["datagen.experiments"] >= 1


def test_wrong_reference_level_counts_as_failure(tmp_path):
    copy_bench(tmp_path)
    copied = tmp_path / "bench" / "workloads.py"
    text = copied.read_text()
    assert text.count('"tri": {"thm2": 0.9111328125}') == 1
    copied.write_text(text.replace('"tri": {"thm2": 0.9111328125}', '"tri": {"thm2": 0.9211328125}'))
    proc = bench("--workload", "tri-sweep", "--seed", "0", "--seconds", "0", "--tiny",
                 "--trace", "0", script=tmp_path / "bench" / "run.py")
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "fail_ratio   1.0000" in proc.stdout
    assert "check failed" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    copy_bench(tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script="bench/run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
