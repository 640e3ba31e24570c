"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpclab

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, tmp_path):
    out = tmp_path / "out.csv"
    src = Path(gpclab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return out.read_text().splitlines()


def test_threshold_frontier(tmp_path):
    lines = run_script("threshold_frontier.py", ["--grid-m", "100", "--t-max", "20"],
                       tmp_path)
    assert lines[0] == "c,t_bar,gap,loss_at_c,conjecture_rhs"
    comment = lines.index("# regular point-mass thresholds: t,c_star,gap")
    assert comment == 10  # one row per c on the default grid of nine
    assert len(lines) == comment + 7  # regular capabilities 3..8
    for line in lines[1:comment]:
        assert len(line.split(",")) == 5


def test_iteration_curves(tmp_path):
    lines = run_script("iteration_curves.py",
                       ["--n", "200", "--trials", "5", "--ell", "5"], tmp_path)
    assert lines[0] == "c,de_x_sq,mc_scaled_ber,mc_se,mc_mean_w"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 13  # c = 4.5, 4.75, ..., 7.5
    assert [float(r[0]) for r in rows] == pytest.approx(
        [4.5 + 0.25 * k for k in range(13)])
