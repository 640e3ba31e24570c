import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gpclab
from gpclab.cli import (
    EXIT_INPUT,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from gpclab import branching, de
from gpclab.codespec import (
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_to_json,
)
from gpclab.poisson import CapabilityDistribution
from conftest import BOUNDS_SPECS, time_limit


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

    def test_non_integral_counts_rejected(self, tmp_path, capsys):
        # 10 CNs cannot be split evenly over 6 positions
        code = main(["preset", "staircase", "--L", "6", "--n", "10", "--t", "3",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_INPUT
        assert "error: invalid spec: position 0: gamma_i * n" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_hpc_stdout(self, capsys):
        assert main(["preset", "hpc", "--n", "12", "--t", "4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"] == [[1]]

    def test_zero_column_capability_rejected(self, capsys):
        # a column capability of 0 used to read as "not given", so t_col = t
        assert main(["preset", "pc", "--n", "10", "--t", "3", "--t-col", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: capability must be >= 1, got 0\n"


class TestNoVariableNode:
    """A code with no variable node used to end in a ZeroDivisionError
    traceback: gamma' eta gamma = 0 in the erasure scaling and Monte Carlo,
    or a code length of 0 in Monte Carlo."""

    DOC = {"eta": [[0, 1], [1, 0]], "gamma": [0.0, 1.0], "tau": [{"3": 1.0}, {"3": 1.0}],
           "n": 100, "assignment": "deterministic"}

    def test_preset_refused(self, tmp_path, capsys):
        out = tmp_path / "pc0.json"
        argv = ["preset", "pc", "--n", "100", "--t", "3", "--split", "0", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec: no variable node") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["threshold"], ["bounds"], ["simulate", "--c", "2", "--trials", "3"],
    ], ids=["threshold", "bounds", "simulate"])
    def test_uncoupled_weights_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "pc0.json"
        path.write_text(json.dumps(self.DOC))
        assert main(argv[:1] + ["--spec", str(path)] + argv[1:]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec: no variable node") and err.count("\n") == 1

    def test_code_length_zero_refused(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, preset_hpc(1, 3))
        assert main(["simulate", "--spec", spec_path, "--c", "0.5", "--jobs", "2",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: the code has no variable node: every CN has degree 0 at n = 1\n")
        assert not (tmp_path / "s.csv").exists()


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

    def test_non_finite_c_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        with time_limit(10):
            code = main(["de", "--spec", spec_path, "--c", "nan", "--ell", "100",
                         "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("doc,message", [
        ({"gamma": [1.0], "tau": [{"2": 1.0}], "n": 10}, "spec has no field 'eta'"),
        ([[1]], "spec must be a JSON object, got list"),
        ({"eta": [[1]], "gamma": [1.0], "tau": [{"2": 1.0}], "n": "ten"},
         "spec field 'n'"),
        ({"eta": [[1]], "gamma": [1.0], "tau": [{"2": 1.0}], "n": 36.9},
         "spec field 'n': 36.9 is not an integer"),
        ({"eta": [[0, 1.7], [1, 0]], "gamma": [0.5, 0.5], "tau": [{"2": 1.0}] * 2, "n": 36},
         "spec field 'eta': 1.7 is not an integer"),
        ({"eta": [[0, True], [1, 0]], "gamma": [0.5, 0.5], "tau": [{"2": 1.0}] * 2, "n": 36},
         "spec field 'eta': true is not an integer"),
        ({"eta": [[1]], "gamma": [1.0], "tau": [{"2": 1.0}], "n": "10"},
         'spec field \'n\': "10" is not an integer'),
        ({"eta": [["1"]], "gamma": [1.0], "tau": [{"2": 1.0}], "n": 10},
         'spec field \'eta\': "1" is not an integer'),
        ({"eta": [[1]], "gamma": ["1.0"], "tau": [{"2": 1.0}], "n": 10},
         'spec field \'gamma\': "1.0" is not a number'),
        ({"eta": [[1]], "gamma": [1.0], "tau": [{"3": "1.0"}], "n": 10},
         'spec field \'tau\': "1.0" is not a number'),
    ], ids=["no_eta", "list", "bad_n", "fractional_n", "fractional_eta", "boolean_eta",
            "string_n", "string_eta", "string_gamma", "string_tau_weight"])
    def test_malformed_spec_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["de", "--spec", str(path), "--c", "2.0",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_window_schedule_without_slide_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spec": spec_path, "c": 4.0,
                                   "schedule": {"type": "window", "width": 2}}))
        code = main(["de", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: window schedule needs the field 'steps_per_slide'\n"

    @pytest.mark.parametrize("command,doc", [
        ("de", {"schedule": "window"}),
        ("de", {"schedule": {"type": "explicit", "sets": [["1"]]}}),
        ("de", {"schedule": {"type": "explicit", "sets": 5}}),
        ("de", [1, 2]),
        ("threshold", [1, 2]),
    ], ids=["schedule_string", "string_position", "sets_int", "list_de", "list_threshold"])
    def test_malformed_config_rejected(self, tmp_path, capsys, command, doc):
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main([command, "--spec", spec_path, "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1 and err.endswith("\n")

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

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["de", "--spec", write_spec(tmp_path, preset_hpc(10, 4)), "--c", "5.0",
              "--ell", "3", "--out", str(out)])
        traj = de.de_run(preset_hpc(10, 4), 5.0, ell_max=3)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "iteration,x_1,z"
        assert len(lines[2:]) == traj.iterations_run + 1

    def test_rows_are_written_as_they_are_made(self, tmp_path):
        # the trajectory's CSV used to be held twice, as string lists and as
        # one joined text: 18.8 times the trajectory's bytes at this size
        spec = preset_staircase(20, 200, 3)
        schedule = {"type": "full", "steps": 5000}  # no stall stop: 5000 iterations
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spec": write_spec(tmp_path, spec), "schedule": schedule}))
        traj = de.de_run(spec, 80.0, schedule=de.full_schedule(20, 5000))  # above c*
        assert traj.iterations_run == 5000
        tracemalloc.start()
        try:
            code = main(["de", "--config", str(cfg), "--c", "80.0",
                         "--out", str(tmp_path / "traj.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NONCONVERGED
        assert len((tmp_path / "traj.csv").read_text().splitlines()) == 5003
        assert peak <= 3 * (traj.x.nbytes + traj.z.nbytes)


class TestWriter:
    @pytest.mark.parametrize("argv", [["de", "--c", "4.0", "--ell", "50"], ["bounds"]],
                             ids=lambda argv: argv[0])
    def test_out_and_csv_write_the_same_text(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        main(argv + ["--spec", spec_path, "--out", str(out), "--csv"])
        text = out.read_text()
        assert text.startswith("# config_hash=") and capsys.readouterr().out == text

    @pytest.mark.parametrize("argv", [["threshold"], ["preset", "hpc", "--n", "100", "--t", "3"]],
                             ids=lambda argv: argv[0])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, argv):
        # it used to end in a FileNotFoundError traceback, after the whole run
        if argv[0] != "preset":
            argv = argv + ["--spec", write_spec(tmp_path, preset_hpc(100, 4))]
        path = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--out", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == "" and not path.parent.exists()


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

    def test_nonpositive_bracket_tol_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        for tol in ("0", "-0.5"):
            code = main(["threshold", "--spec", spec_path, "--bracket-tol", tol,
                         "--out", str(tmp_path / "t.csv")])
            assert code == EXIT_INPUT
            assert "bracket_tol must be > 0" in capsys.readouterr().err

    def test_infinite_bracket_tol_rejected(self, tmp_path, capsys):
        # inf printed the staircase's unrefined fold, bracket_lo = 0.0, and exited 0
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bracket_tol": Infinity}')
        for flags in (["--bracket-tol", "inf"], ["--config", str(cfg)]):
            code = main(["threshold", "--spec", spec_path, *flags,
                         "--out", str(tmp_path / "t.csv")])
            assert code == EXIT_INPUT == 1
            assert "bracket_tol must be > 0 and finite, got inf" in capsys.readouterr().err
            assert not (tmp_path / "t.csv").exists()

    def test_columns(self, tmp_path):
        # no DE settings: the fold needs no iteration cap or tolerances
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        out = tmp_path / "thr.csv"
        assert main(["threshold", "--spec", spec_path, "--bracket-tol", "0.005",
                     "--out", str(out)]) == EXIT_OK
        header, row = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert header == ["spec_hash", "c_star", "bracket_lo", "bracket_hi", "bracket_width"]
        lo, hi, width = (float(row[header.index(k)])
                         for k in ("bracket_lo", "bracket_hi", "bracket_width"))
        assert lo <= hi == float(row[header.index("c_star")]) and width <= 0.005

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["threshold", "--spec", spec_path, "--out", str(a)]) == EXIT_OK
        assert main(["threshold", "--spec", spec_path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stalled_continuation_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        # a stall used to end in a RuntimeError traceback; no spec known to
        # stall is left, so the fold is made to stall here
        def stall(spec, bracket_tol):
            raise de.ContinuationStall("continuation stalled at c = 57.5619")

        monkeypatch.setattr(de, "threshold", stall)
        spec_path = write_spec(tmp_path, preset_staircase(20, 120, 3))
        code = main(["threshold", "--spec", spec_path, "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == "error: continuation stalled at c = 57.5619\n"
        assert not (tmp_path / "t.csv").exists()


class TestBoundsCmd:
    def test_uniform_upper_bound(self, tmp_path):
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

    @staticmethod
    def bounds_row(tmp_path, spec):
        spec_path = write_spec(tmp_path, spec)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--spec", spec_path, "--out", str(out)]) == EXIT_OK
        header, row = [line.split(",") for line in out.read_text().splitlines()[1:]]
        return {k: float(v) for k, v in zip(header[1:], row[1:])}

    def test_bounds_on_threshold_axis(self, tmp_path):
        # PC t = 3 has threshold 10.30: raw 2 * t_bar = 6 sat below it
        row = self.bounds_row(tmp_path, preset_pc(1000, t_row=3))
        assert list(row) == ["t_bar", "upper_2tbar", "refined_upper"]
        assert row["upper_2tbar"] == pytest.approx(12.0)
        assert row["refined_upper"] == pytest.approx(11.62, abs=0.01)

    @pytest.mark.parametrize("spec", BOUNDS_SPECS.values(), ids=BOUNDS_SPECS.keys())
    def test_bounds_dominate_threshold(self, tmp_path, spec):
        row = self.bounds_row(tmp_path, spec)
        c_star = de.threshold(spec).c_star
        assert c_star <= row["refined_upper"] <= row["upper_2tbar"]


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

    @pytest.mark.parametrize("flag,message", [
        ("0", "need jobs >= 1"),
        ("-2", "config field 'jobs' must be a non-negative integer, got -2"),
    ], ids=["flag_0", "flag_minus_2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, flag, message):
        # --jobs 0 used to become the CPU count, and other counts below 1
        # ran serially
        spec_path = write_spec(tmp_path, preset_hpc(50, 2))
        argv = ["simulate", "--spec", spec_path, "--c", "1.0", "--ell", "2",
                "--trials", "2", "--seed", "3", "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--jobs", flag]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("c, failed, bound", [
        ("4.0", "0", repr(1.0 - 0.05 ** (1 / 200))),
        ("25.0", "200", repr(0.05 ** (1 / 200))),
    ], ids=["all_decode", "all_fail"])
    def test_certain_estimate_reports_clopper_pearson_bound(self, tmp_path, c, failed, bound):
        # the README line printed 0.0 +- 0.0 with no bound; a count and the
        # oracle's one-sided bound now say what 200 trials show
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        out = tmp_path / "sim.csv"
        for jobs in ("1", "2"):
            assert main(["simulate", "--spec", spec_path, "--c", c, "--ell", "50", "--trials",
                         "200", "--seed", "7", "--jobs", jobs, "--out", str(out)]) == EXIT_OK
            head, row = (line.split(",") for line in out.read_text().splitlines()[1:])
            assert head[1:3] == ["trials", "failed_trials"] and head[-1] == "cp95_bound"
            assert row[1:3] == ["200", failed] and row[-1] == bound

    def test_failing_share_reports_no_bound(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(200, 3))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--spec", spec_path, "--c", "5.2", "--ell", "20", "--trials",
                     "20", "--seed", "3", "--jobs", "1", "--out", str(out)]) == EXIT_OK
        row = out.read_text().splitlines()[2].split(",")
        assert 0 < int(row[2]) < 20 and row[-1] == ""

    def test_jobs_stays_out_of_the_config_hash(self, tmp_path):
        # --jobs stayed out of the hash, but a config "jobs" went into it
        spec_path = write_spec(tmp_path, preset_hpc(200, 3))
        argv = ["simulate", "--spec", spec_path, "--c", "4.0", "--ell", "6",
                "--trials", "10", "--seed", "3"]
        outs = []
        for i, (config, flag) in enumerate([({"jobs": 1}, []), ({"jobs": 2}, []),
                                            ({}, ["--jobs", "2"]), ({}, []), ({"jobs": 3}, []),
                                            ({"jobs": 1}, ["--jobs", "3"])]):
            cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"o{i}.csv"
            cfg.write_text(json.dumps(config))
            assert main(argv + ["--config", str(cfg), "--out", str(out)] + flag) == EXIT_OK
            outs.append(out.read_bytes())
        assert len(set(outs)) == 1


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

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_quality_rejected(self, tmp_path, capsys, c):
        # inf used to exit 3 as an infeasible LP, and nan to exit 1 only from
        # inside post-verification
        code = main(["optimize", "--c", c, "--grid", "100", "--t-max", "10",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

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

    def test_tree_size_limit_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # TreeSizeLimit used to escape as a traceback naming BATCH_SIZE,
        # which no flag sets
        monkeypatch.setattr(branching, "NODE_BUDGET", 10_000)
        code = main(["oracle", "--spec", write_spec(tmp_path, preset_hpc(1000, 4)),
                     "--c", "6", "--ell", "6", "--trees", "1000",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: a batch of trees exceeded 10000 nodes; lower ell, c or trees\n")


class TestConfigNumbers:
    @pytest.mark.parametrize("value", [[1], {"v": 1}, "x", True],
                             ids=["list", "object", "string", "bool"])
    @pytest.mark.parametrize("command,field", [
        ("de", "c"), ("de", "ell"), ("threshold", "bracket_tol"),
        ("simulate", "c"), ("simulate", "ell"), ("simulate", "trials"),
        ("simulate", "seed"), ("simulate", "jobs"),
        ("optimize", "c"), ("optimize", "grid"), ("optimize", "t_max"), ("optimize", "t_min"),
        ("oracle", "c"), ("oracle", "ell"), ("oracle", "trees"), ("oracle", "seed"),
    ])
    def test_wrong_type_names_the_field(self, tmp_path, capsys, command, field, value):
        # a list used to end in "TypeError: float() argument must be ...",
        # and true used to run as 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        if command != "optimize":
            argv += ["--spec", write_spec(tmp_path, preset_hpc(50, 2))]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field!r} must be ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_infinite_integer_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ell": Infinity}')
        argv = ["de", "--config", str(cfg), "--spec", write_spec(tmp_path, preset_hpc(50, 2)),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: config field 'ell' must be an integer, got Infinity\n")


    @pytest.mark.parametrize("value", [2.7, 2.5, 1e-9 + 3])
    def test_fractional_integer_rejected(self, tmp_path, capsys, value):
        # int() used to truncate: {"ell": 2.7} ran 2 iterations and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ell": value, "c": 2.0}))
        argv = ["de", "--config", str(cfg), "--spec", write_spec(tmp_path, preset_hpc(50, 2)),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: config field 'ell' must be an integer, got {json.dumps(value)}\n")

    def test_integral_float_accepted(self, tmp_path):
        spec_path = write_spec(tmp_path, preset_hpc(100, 4))
        runs = []
        for ell in ("100", "100.0"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(f'{{"ell": {ell}, "c": 5.0}}')
            out = tmp_path / "o.csv"
            assert main(["de", "--config", str(cfg), "--spec", spec_path,
                         "--out", str(out)]) == EXIT_OK
            runs.append(out.read_text().splitlines()[1:])  # past the config hash
        assert runs[0] == runs[1] and len(runs[0]) > 2

    @pytest.mark.parametrize("schedule,field", [
        ({"type": "full", "steps": "x"}, "steps"),
        ({"type": "window", "width": "two", "steps_per_slide": 2}, "width"),
        ({"type": "window", "width": 2, "steps_per_slide": 1.5}, "steps_per_slide"),
    ], ids=["full_steps", "window_width", "window_fraction"])
    def test_schedule_field_names_the_field(self, tmp_path, capsys, schedule, field):
        # a non-numeric string used to print "invalid literal for int() ..."
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 4.0, "schedule": schedule}))
        argv = ["de", "--config", str(cfg),
                "--spec", write_spec(tmp_path, preset_staircase(6, 36, 3)),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: config field {field!r} must be an integer, "
            f"got {json.dumps(schedule[field])}\n")

    @pytest.mark.parametrize("first,error", [
        ([True, 2], "config field 'sets' must be an integer, got true"),
        (["1", 2], 'config field \'sets\' must be an integer, got "1"'),
        ([1.0, 2.0], None),
        ([0, 1, 2], "schedule position 0 is outside 1..6"),
        ([1, 2, 7], "schedule position 7 is outside 1..6"),
    ], ids=["boolean", "string", "integral_float", "zero", "past_L"])
    def test_explicit_schedule_positions(self, tmp_path, capsys, first, error):
        # positions read as integer config fields, and one outside 1..L is named
        spec_path = write_spec(tmp_path, preset_staircase(6, 36, 3))
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"

        def run(sets):
            cfg.write_text(json.dumps({"spec": spec_path, "c": 4.0,
                                       "schedule": {"type": "explicit", "sets": sets}}))
            code = main(["de", "--config", str(cfg), "--out", str(out)])
            return code, out.read_text().splitlines()[1:] if out.exists() else None

        code, rows = run([first, [3, 4, 5, 6]])
        if error is not None:
            assert (code, rows) == (EXIT_INPUT, None)
            assert capsys.readouterr().err == f"error: {error}\n"
        else:  # the same rows, past the config hash, as integer positions give
            assert (code, rows) == run([[1, 2], [3, 4, 5, 6]])
            assert code == EXIT_NONCONVERGED and len(rows) == 4  # header, x_0..x_2


class TestInvalidValues:
    @pytest.mark.parametrize("command", ["threshold", "de"])
    @pytest.mark.parametrize("doc,message", [
        ({"eta": [[1]], "gamma": [1.0], "tau": [{"3": 0.5, "4": float("nan"), "5": 0.5}],
          "n": 100, "assignment": "random"}, "capability weights must be finite"),
        ({"eta": [[0, 1], [1, 0]], "gamma": [float("nan")] * 2,
          "tau": [{"3": 1.0}, {"3": 1.0}], "n": 100, "assignment": "random"},
         "gamma entries must be finite"),
    ], ids=["nan_tau", "nan_gamma"])
    def test_nan_spec_rejected(self, tmp_path, capsys, command, doc, message):
        # threshold printed c* = nan and de rows of nan; json writes NaN
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code = main([command, "--spec", str(path), "--c", "3.0", "--ell", "3"]
                    if command == "de" else [command, "--spec", str(path)])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("doc,message", [
        ({"ell": "3", "c": 2.0}, "config field 'ell' must be an integer, got \"3\""),
        ({"ell": 3, "c": "2.0"}, "config field 'c' must be a number, got \"2.0\""),
    ], ids=["string_ell", "string_c"])
    def test_numeric_string_rejected(self, tmp_path, capsys, doc, message):
        # a string that int() or float() reads ran, under a config hash that
        # differed from the same run given numbers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["de", "--config", str(cfg), "--spec", write_spec(tmp_path, preset_hpc(50, 2)),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["de", "--c", "3.0"],
        ["simulate", "--c", "3.0", "--trials", "2", "--jobs", "1"],
        ["oracle", "--c", "3.0", "--trees", "100"],
    ], ids=["de", "simulate", "oracle"])
    def test_negative_ell_rejected(self, tmp_path, capsys, argv):
        # de exited 2 with a 0-iteration trajectory; simulate reported W = 1.0
        # after no peeling round; oracle printed only the header.  The field
        # is named as the command names it, not as the API's ell_max.
        spec_path = write_spec(tmp_path, preset_hpc(60, 3))
        assert main(argv + ["--spec", spec_path, "--ell", "-2"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: config field 'ell' must be a non-negative integer, got -2\n"

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,field", [
        ("simulate", "seed"), ("simulate", "trials"), ("oracle", "seed"),
        ("oracle", "trees"), ("optimize", "grid"), ("optimize", "t_min"),
        ("optimize", "t_max"),
    ])
    def test_negative_count_names_the_field(self, tmp_path, capsys, command, field, via):
        # simulate --seed -1 printed numpy's "expected non-negative integer"
        argv = [command, "--out", str(tmp_path / "o.csv")]
        if command != "optimize":
            argv += ["--spec", write_spec(tmp_path, preset_hpc(60, 3)), "--c", "3.0"]
        if via == "flag":
            argv += ["--" + field.replace("_", "-"), "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({field: -1}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: config field {field!r} must be a non-negative integer, got -1\n"


class TestFlagOverridesConfig:
    """A flag and the config field of the same name are one setting: the CSV,
    config hash included, does not depend on which of the two gave it."""

    CHEAP = {  # keeps each run short; the field under test is left out
        "de": {"--c": "4.0", "--ell": "20"},
        "threshold": {},
        "simulate": {"--c": "3.0", "--ell": "4", "--trials": "3", "--seed": "1", "--jobs": "1"},
        "optimize": {"--c": "6.0", "--grid": "100", "--t-max": "10"},
        "oracle": {"--c": "3.0", "--ell": "2", "--trees": "300", "--seed": "1"},
    }

    @pytest.mark.parametrize("command,field,flag,value,other", [
        ("de", "c", "--c", 4.5, 3.0),
        ("de", "ell", "--ell", 7, 30),
        ("threshold", "bracket_tol", "--bracket-tol", 0.05, 0.2),
        ("simulate", "c", "--c", 2.5, 3.0),
        ("simulate", "ell", "--ell", 3, 6),
        ("simulate", "trials", "--trials", 4, 2),
        ("simulate", "seed", "--seed", 9, 1),
        ("optimize", "c", "--c", 5.0, 6.0),
        ("optimize", "grid", "--grid", 50, 100),
        ("optimize", "t_max", "--t-max", 8, 10),
        ("optimize", "t_min", "--t-min", 2, 1),
        ("oracle", "c", "--c", 2.5, 3.0),
        ("oracle", "ell", "--ell", 1, 2),
        ("oracle", "trees", "--trees", 200, 300),
        ("oracle", "seed", "--seed", 5, 1),
    ])
    def test_flag_and_config_field_agree(self, tmp_path, capsys, command, field, flag,
                                         value, other):
        argv = [command] + [a for k, v in self.CHEAP[command].items() if k != flag
                            for a in (k, v)]
        if command != "optimize":
            argv += ["--spec", write_spec(tmp_path, preset_hpc(60, 3))]

        def run(config: dict, extra: list[str]) -> tuple[int, str]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            code = main(argv + ["--config", str(cfg)] + extra)
            return code, capsys.readouterr().out

        from_flag = run({}, [flag, str(value)])
        assert from_flag[0] in (EXIT_OK, EXIT_NONCONVERGED)
        assert from_flag[1].startswith("# config_hash=") and from_flag[1].count("\n") >= 3
        assert run({field: value}, []) == from_flag
        overridden = run({field: other}, [flag, str(value)])
        assert overridden == from_flag != run({field: other}, [])


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["de", "--seed", "1"],
        ["threshold", "--jobs", "2"],
        ["threshold", "--ell", "100"],
        ["threshold", "--c-lo", "1.0"],
        ["threshold", "--c-hi", "9.0"],
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
    """The worker count is a field of simulate: --jobs, then a config "jobs",
    then the CPUs this process may use.  The GPCLAB_JOBS environment variable
    is not read."""

    @staticmethod
    def jobs_used(tmp_path, monkeypatch, config=None, flag=()):
        from gpclab import graphsim

        seen, monte_carlo = [], graphsim.monte_carlo

        def spy(*args, jobs):
            seen.append(jobs)
            return monte_carlo(*args, jobs=1)

        monkeypatch.setattr(graphsim, "monte_carlo", spy)
        argv = ["simulate", "--spec", write_spec(tmp_path, preset_hpc(50, 2)), "--c", "1.0",
                "--ell", "2", "--trials", "2", "--out", str(tmp_path / "s.csv"), *flag]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == EXIT_OK
        return seen.pop()

    def test_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPCLAB_JOBS", "7")
        assert self.jobs_used(tmp_path, monkeypatch, {"jobs": 5}, ["--jobs", "3"]) == 3

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPCLAB_JOBS", "7")
        assert self.jobs_used(tmp_path, monkeypatch, {"jobs": 5}) == 5

    def test_default_is_the_cpu_count(self, tmp_path, monkeypatch):
        # the default was os.cpu_count(), which counts CPUs outside the
        # affinity mask: under taskset it started more workers than CPUs
        monkeypatch.delenv("GPCLAB_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.jobs_used(tmp_path, monkeypatch) == 1

    @pytest.mark.parametrize("env", ["7", "abc", "2.5", "0"])
    def test_env_is_not_read(self, tmp_path, monkeypatch, env):
        # GPCLAB_JOBS was the fallback after the config; "abc" and "2.5"
        # were errors and "0" was rejected
        monkeypatch.setenv("GPCLAB_JOBS", env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert self.jobs_used(tmp_path, monkeypatch) == 3


class TestRuntimeDependencies:
    # every module of the package: those in the export table, and the CLI
    SUBMODULES = (*(f"gpclab.{m}" for m in gpclab._EXPORTS), "gpclab.cli")
    # what only simulate, optimize and oracle need
    HEAVY = ("gpclab.graphsim", "gpclab.branching", "gpclab.optimizer", "gpclab.simplex")

    @staticmethod
    def loaded(imports, modules, then="pass"):
        """The modules among ``modules`` that a fresh interpreter has loaded
        after ``import <imports>`` and the statement ``then``."""
        src = Path(gpclab.__file__).resolve().parents[1]
        code = (f"import sys, {imports}; {then}; "
                f"print(' '.join(m for m in {modules!r} if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_numpy_is_the_only_third_party_import(self):
        # scipy, mpmath and hypothesis are test-only dependencies
        assert self.loaded(", ".join(self.SUBMODULES), ("scipy", "mpmath", "hypothesis")) == ""

    def test_plain_import_loads_no_process_pool(self):
        # monte_carlo imports its pool only when it runs with jobs > 1: at
        # module level it put multiprocessing on every import of graphsim
        assert self.loaded(", ".join(self.SUBMODULES),
                           ("multiprocessing", "concurrent.futures")) == ""

    def test_plain_import_loads_no_submodule(self):
        assert self.loaded("gpclab", self.SUBMODULES) == ""

    def test_an_export_loads_only_its_submodule_and_what_it_imports(self):
        assert self.loaded("gpclab", self.SUBMODULES, then="gpclab.threshold") == (
            "gpclab.poisson gpclab.codespec gpclab.de")

    def test_a_lazy_submodule_shows_in_importtime(self):
        # importlib.import_module bypasses the import path that -X importtime
        # reports, so gpclab.de was missing and its time charged to the importer
        env = {**os.environ, "PYTHONPATH": str(Path(gpclab.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "from gpclab import de"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        listed = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "gpclab.de" in listed

    def test_a_submodule_resolves_without_an_import(self):
        assert self.loaded("gpclab", ("gpclab.de",),
                           then="assert gpclab.de.threshold is gpclab.threshold") == "gpclab.de"

    @pytest.mark.parametrize("module", ["gpclab.graphsim", "gpclab.branching"])
    def test_simulation_loads_no_de_code(self, module):
        assert self.loaded(module, ("gpclab.de",)) == ""

    def test_cli_loads_no_simulation_or_design_code(self):
        assert self.loaded("gpclab.cli", self.HEAVY) == ""

    @pytest.mark.parametrize("argv", [["preset", "hpc", "--n", "100", "--t", "3"],
                                      ["de", "--c", "4.0"], ["threshold"], ["bounds"]],
                             ids=lambda argv: argv[0])
    def test_analytic_commands_load_no_simulation_or_design_code(self, tmp_path, argv):
        if argv[0] != "preset":
            argv = argv + ["--spec", write_spec(tmp_path, preset_staircase(6, 36, 3))]
        argv = argv + ["--out", str(tmp_path / "out")]
        assert self.loaded("gpclab.cli", self.HEAVY,
                           then=f"assert gpclab.cli.main({argv!r}) == 0") == ""

    def test_every_export_resolves_to_its_submodule(self):
        for name in gpclab.__all__:
            module = getattr(gpclab, gpclab._OWNER[name])
            assert getattr(gpclab, name) is getattr(module, name)
        assert set(gpclab.__all__) <= set(dir(gpclab))

    @pytest.mark.parametrize("name", ["no_such_name", "full_schedule", "np"])
    def test_unknown_name_raises_attribute_error(self, name):
        # full_schedule and np live in submodules but are not exported
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(gpclab, name)
        assert not hasattr(gpclab, name)
