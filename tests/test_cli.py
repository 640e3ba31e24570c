import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpclab
from gpclab.cli import (
    EXIT_INPUT,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_SOLVER,
    _jobs,
    main,
)
from gpclab.codespec import spec_from_json, spec_to_json, preset_hpc, preset_staircase


STAIRCASE_6 = [
    [0, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 0],
]


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(spec_to_json(spec) + "\n")
    return str(path)


class TestPreset:
    def test_staircase_matrix(self, tmp_path, capsys):
        out = tmp_path / "stair.json"
        code = main(["preset", "staircase", "--L", "6", "--n", "36", "--t", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["eta"] == STAIRCASE_6
        assert doc["n"] == 36

    def test_unknown_preset(self, capsys):
        assert main(["preset", "octagonal", "--n", "10", "--t", "2"]) == EXIT_INPUT
        assert "unknown preset" in capsys.readouterr().err

    def test_hpc_stdout(self, capsys):
        assert main(["preset", "hpc", "--n", "12", "--t", "4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"] == [[1]]


class TestDe:
    def test_converged_run(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        out = tmp_path / "traj.csv"
        code = main(["de", "--spec", spec_path, "--c", "5.0", "--ell", "200",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "iteration,x_1,z"
        last = lines[-1].split(",")
        assert float(last[1]) <= 1e-8

    def test_zero_channel_single_step(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        out = tmp_path / "traj.csv"
        code = main(["de", "--spec", spec_path, "--c", "0.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        # header comment + column row + iterations 0 and 1
        assert len(lines) == 4
        assert lines[-1].split(",")[1] == "0.0"

    def test_supercritical_exit_code(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        code = main(["de", "--spec", spec_path, "--c", "7.5", "--ell", "2000",
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_NONCONVERGED

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        bad = {"eta": [[0, 1], [0, 0]], "gamma": [0.5, 0.5],
               "tau": [{"2": 1.0}, {"2": 1.0}], "n": 10,
               "assignment": "deterministic"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["de", "--spec", str(path), "--c", "2.0",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        assert "symmetric" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["de", "--config", "/nonexistent.json"]) == EXIT_INPUT

    def test_window_schedule_freezes(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        config = {
            "spec": spec_path,
            "c": 4.0,
            "schedule": {"type": "window", "width": 2, "steps_per_slide": 2},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "traj.csv"
        code = main(["de", "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        xs = np.array([[float(v) for v in row[1:7]] for row in rows])
        # window (0,1) active in steps 1-2: positions 3..6 frozen there
        assert (xs[1, 2:] == xs[0, 2:]).all()
        assert (xs[2, 2:] == xs[1, 2:]).all()


class TestThresholdCmd:
    def test_hpc_t4(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        out = tmp_path / "thr.csv"
        code = main(["threshold", "--spec", spec_path, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        c_star = float(row[header.index("c_star")])
        assert abs(c_star - 6.8) <= 0.1

    def test_readme_staircase(self, tmp_path):
        # the README's preset and threshold commands on a coupled chain
        spec_path = str(tmp_path / "stair.json")
        assert main(["preset", "staircase", "--L", "6", "--n", "36", "--t", "3",
                     "--out", spec_path]) == EXIT_OK
        out = tmp_path / "threshold.csv"
        assert main(["threshold", "--spec", spec_path, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        # normalized threshold 4.97 times the staircase's CN scaling 3.6
        assert abs(float(row["c_star"]) - 4.97 * 3.6) <= 0.05

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["threshold", "--spec", spec_path, "--out", str(a)]) == EXIT_OK
        assert main(["threshold", "--spec", spec_path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestBoundsCmd:
    def test_uniform_upper_bound(self, tmp_path):
        from gpclab.poisson import CapabilityDistribution

        spec = preset_hpc(100, CapabilityDistribution.uniform(10))
        spec_path = write_spec(tmp_path, spec)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--spec", spec_path, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert float(row[header.index("upper_2tbar")]) == pytest.approx(11.0)
        refined = float(row[header.index("refined_upper")])
        assert 10.0 <= refined < 11.0


class TestSimulateCmd:
    def test_deterministic_stats(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(200, 3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--spec", spec_path, "--c", "4.0", "--ell", "6",
                "--trials", "10", "--seed", "3", "--jobs", "1"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().strip().splitlines()[1].split(",")
        assert "mean_w" in header and "se_scaled_ber" in header


class TestOptimizeCmd:
    def test_small_design(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--c", "6.0", "--grid", "200", "--t-max", "10",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "tau_" in text
        keys = [line.split(",")[0] for line in text.splitlines()]
        assert keys.index("rows_used") == keys.index("pivots") + 1
        # every design is post-verified: a measured threshold below c
        # downgrades the status
        rows = dict(line.split(",") for line in text.splitlines()[2:])
        verified = float(rows["verified_threshold"])
        float(rows["fine_grid_min_slack"])
        expected = "optimal" if verified >= 6.0 else "degenerate-warning"
        assert rows["status"] == expected

    def test_infeasible_exit(self, tmp_path, capsys):
        code = main(["optimize", "--c", "9.0", "--grid", "100", "--t-min", "4",
                     "--t-max", "4", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_SOLVER


class TestOracleCmd:
    def test_report_columns(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 3))
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--spec", spec_path, "--c", "4.0", "--ell", "2",
                     "--trees", "5000", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "ell,z_de,z_mc,stderr,diff_over_se,cp95_bound"
        assert len(lines) == 4  # two depths
        for line in lines[2:]:
            *_, diff, bound = line.split(",")
            assert float(diff) >= 0.0 and bound == ""

    @pytest.mark.parametrize("c, z_mc, bound", [
        ("0.01", "0.0", 1.0 - 0.05 ** (1 / 1000)),
        ("60.0", "1.0", 0.05 ** (1 / 1000)),
    ])
    def test_certain_estimate_reports_clopper_pearson_bound(self, tmp_path, c, z_mc, bound):
        spec_path = write_spec(tmp_path, preset_hpc(100, 3))
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--spec", spec_path, "--c", c, "--ell", "1",
                     "--trees", "1000", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        row = out.read_text().strip().splitlines()[2].split(",")
        assert row[2:5] == [z_mc, "0.0", ""]
        assert float(row[5]) == pytest.approx(bound, rel=1e-15)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["de", "--seed", "1"],
        ["threshold", "--jobs", "2"],
        ["bounds", "--seed", "1"],
        ["oracle", "--jobs", "2"],
        ["optimize", "--spec", "s.json"],
        ["optimize", "--no-verify"],
    ])
    def test_unread_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJobsResolution:
    def test_env_fallback(self, monkeypatch):
        class Args:
            jobs = None

        monkeypatch.setenv("GPCLAB_JOBS", "7")
        assert _jobs({}, Args()) == 7

    def test_flag_wins(self, monkeypatch):
        class Args:
            jobs = 3

        monkeypatch.setenv("GPCLAB_JOBS", "7")
        assert _jobs({"jobs": 5}, Args()) == 3

    def test_config_beats_env(self, monkeypatch):
        class Args:
            jobs = None

        monkeypatch.setenv("GPCLAB_JOBS", "7")
        assert _jobs({"jobs": 5}, Args()) == 5


class TestRuntimeDependencies:
    def test_numpy_is_the_only_third_party_import(self):
        # scipy, mpmath and hypothesis are test-only dependencies
        src = Path(gpclab.__file__).resolve().parents[1]
        code = ("import sys, gpclab, gpclab.cli; "
                "print(' '.join(m for m in ('scipy', 'mpmath', 'hypothesis') "
                "if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""
