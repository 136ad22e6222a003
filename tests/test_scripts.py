"""The scripts under ``scripts/`` still run. They import from the package
root, so a smoke run catches a name that the root stops exporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mafkit

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    # the child finds the package where this test imported it from
    env = {**os.environ, "PYTHONPATH": str(Path(mafkit.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_ratio_experiment_runs():
    out = _run("ratio_experiment.py", "--instances", "3", "--seed", "1")
    assert "worst observed ratio: " in out


def test_scaling_benchmark_runs(tmp_path):
    path = tmp_path / "rows.json"
    _run("scaling_benchmark.py", "--sizes", "8", "--repeats", "1", "--json", str(path))
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 1 and rows[0]["n"] == 8 and "exact_s" in rows[0]
