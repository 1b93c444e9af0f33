"""Smoke runs of the experiment scripts, so drift in the API they import shows."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from reference import src_env

from optamp import optimal_theta
from optamp.optimal import SWEEP_HEADER
from optamp.verify import random_unit_vector

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=src_env(),
        check=False,
    )


def test_grover_vs_optimal_writes_one_row_per_dimension(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script("grover_vs_optimal.py", "--kmax", 4, "--csv", out)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "n,one_step_probability,grover_peak_step,"
        "grover_peak_probability,grover_first_step_above_half"
    )
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "8", "16"]


def test_theta_landscape_writes_the_sweep(tmp_path):
    out = tmp_path / "landscape.csv"
    proc = run_script("theta_landscape.py", "--n", 8, "--seed", 3, "--points", 16, "--output", out)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 17
    theta_star = optimal_theta(random_unit_vector(np.random.default_rng(3), 8))
    assert f"optimal theta = {theta_star:.12f}  amplitude = " in proc.stdout
