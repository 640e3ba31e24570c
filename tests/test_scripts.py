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
    assert lines[0] == "c,t_bar,gap,loss_at_c"
    comment = lines.index("# regular point-mass thresholds: t,c_star,gap")
    assert comment == 10  # one row per c on the default grid of nine
    assert len(lines) == comment + 7  # regular capabilities 3..8
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:comment]}
    assert all(len(row) == 4 for row in rows.values())
    # t_bar and gap of the LP optimum at c = 13.4 (M = 100, t <= 20), bit for
    # bit, and within rounding of what the two-phase simplex returned
    t_bar, gap = float(rows[13.4][1]), float(rows[13.4][2])
    assert (t_bar, gap) == (6.991692327599295, 0.5833846551985893)
    assert t_bar == pytest.approx(6.991692327599304, rel=1e-13, abs=0.0)
    assert gap == pytest.approx(0.583384655198607, rel=0.0, abs=1e-13)
    # no mixture with t <= 20 decodes at c = 32: every LP column is nan
    assert rows[32.0][1:4] == ["nan", "nan", "nan"]


def test_iteration_curves(tmp_path):
    lines = run_script("iteration_curves.py",
                       ["--n", "200", "--trials", "5", "--ell", "5"], tmp_path)
    assert lines[0] == "c,de_x_sq,mc_scaled_ber,mc_se,mc_mean_w"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 13  # c = 4.5, 4.75, ..., 7.5
    assert [float(r[0]) for r in rows] == pytest.approx(
        [4.5 + 0.25 * k for k in range(13)])
