"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
in both modes and for every workload, and that a failed output check or
a missing source tree makes the benchmark exit non-zero.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                  sizes=workloads.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    rc, result = run_tiny(capsys, workload, trace)
    assert rc == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in named)
    for m in named:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_forecasts_fail_the_check(capsys, monkeypatch):
    import lrdforecast.evaluation as evaluation

    real = evaluation.forecast

    def shifted(model, h, level=0.95):
        fc = real(model, h, level)
        return dataclasses.replace(fc, point=fc.point * 1.01)

    monkeypatch.setattr(evaluation, "forecast", shifted)
    rc, result = run_tiny(capsys, "cv-window96", 0)
    assert rc == 1
    assert result["correct"] is False


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-window96", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
