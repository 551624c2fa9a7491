import csv
import hashlib
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from adaptive_nmpc import cli, harness, transcription
from adaptive_nmpc.adaptation import LINEAR_Q_MAX
from adaptive_nmpc.cli import main, read_simlog_csv, render_table, write_report_csv, write_simlog_csv
from adaptive_nmpc.controller import ControllerConfig
from adaptive_nmpc.harness import Cell, CellResult, MetricsReport, SimLog
from adaptive_nmpc.trajectories import ReferenceTrajectory, preset
from helpers import SATURATED_BOX


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_text_columns(path):
    """(config line, column names, {name: column as text}) of a CSV artifact."""
    with open(path, newline="") as fh:
        config = fh.readline()
        header, *rows = csv.reader(fh)
    return config, header, dict(zip(header, zip(*rows)))


def random_log_csv(path, seed=0, L=6):
    """A log.csv of random values, written by the simulate writer."""
    rng = np.random.default_rng(seed)
    log = SimLog(
        ts=np.arange(L) * 0.05,
        x_true=rng.standard_normal((L, 10)),
        x_meas=rng.standard_normal((L, 10)),
        u_applied=rng.standard_normal((L, 4)),
        ref_xs=rng.standard_normal((L, 10)),
        q_snapshot=rng.random((L, 10)),
        kkt=rng.random(L),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    write_simlog_csv(log, path, {"seed": seed})
    return path


def edit_line(lines, n, edit):
    """The lines of a CSV file with line ``n`` (1-based) replaced by ``edit`` of its fields."""
    fields = lines[n - 1].rstrip("\n").split(",")
    return [*lines[: n - 1], ",".join(edit(fields)) + "\n", *lines[n:]]


def short_row(fields):
    return fields[:2]


def non_numeric(fields):
    return [*fields[:3], "x", *fields[4:]]


class TestWriters:
    CONFIG = {"mode": "fixed", "seed": 3}
    HEADER = '# config: {"mode": "fixed", "seed": 3}\n'

    def test_simlog_csv_text(self, tmp_path):
        x_true, ref_xs = np.zeros((2, 10)), np.zeros((2, 10))
        x_true[0, 0:3] = [3.0, 4.0, 0.0]  # 5.0 from a zero reference
        x_true[1, 0:3] = [1.0, 2.5, 2.0]
        ref_xs[1, 0:3] = [1.0, 0.5, 2.0]  # 2.0 away
        log = SimLog(
            ts=np.array([0.0, 0.05]),
            x_true=x_true,
            x_meas=x_true.copy(),
            u_applied=np.array([[9.81, 0.1, -0.2, 0.3], [9.5, 0.0, 0.0, -1.5]]),
            ref_xs=ref_xs,
            q_snapshot=np.vstack([np.ones(10), np.arange(10) * 0.5]),
            kkt=np.array([1e-09, 2.5e-07]),
        )
        write_simlog_csv(log, tmp_path / "log.csv", self.CONFIG)
        assert (tmp_path / "log.csv").read_bytes().decode() == (
            self.HEADER
            + "t,px,py,pz,prx,pry,prz,c,wx,wy,wz,d_i,kkt,q0,q1,q2,q3,q4,q5,q6,q7,q8,q9\r\n"
            + "0.0,3.0,4.0,0.0,0.0,0.0,0.0,9.81,0.1,-0.2,0.3,5.0,1e-09,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\r\n"
            + "0.05,1.0,2.5,2.0,1.0,0.5,2.0,9.5,0.0,0.0,-1.5,2.0,2.5e-07,0.0,0.5,1.0,1.5,2.0,2.5,3.0,3.5,4.0,4.5\r\n"
        )

    def test_failed_tick_kkt_is_empty(self, tmp_path):
        # a failed tick holds a command no QP certified: its kkt is NaN in the
        # log, an empty field in log.csv, and NaN again when read back
        log = SimLog(
            ts=np.array([0.0, 0.05]),
            x_true=np.zeros((2, 10)),
            x_meas=np.zeros((2, 10)),
            u_applied=np.array([[9.81, 0.0, 0.0, 0.0], [7.0, -1.0, 1.0, 0.5]]),
            ref_xs=np.zeros((2, 10)),
            q_snapshot=np.ones((2, 10)),
            kkt=np.array([np.nan, 2.5e-07]),
            failures=1,
        )
        write_simlog_csv(log, tmp_path / "log.csv", self.CONFIG)
        assert (tmp_path / "log.csv").read_bytes().decode() == (
            self.HEADER
            + "t,px,py,pz,prx,pry,prz,c,wx,wy,wz,d_i,kkt,q0,q1,q2,q3,q4,q5,q6,q7,q8,q9\r\n"
            + "0.0,0.0,0.0,0.0,0.0,0.0,0.0,9.81,0.0,0.0,0.0,0.0,,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\r\n"
            + "0.05,0.0,0.0,0.0,0.0,0.0,0.0,7.0,-1.0,1.0,0.5,0.0,2.5e-07,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\r\n"
        )
        config, data = read_simlog_csv(tmp_path / "log.csv")
        assert config == self.CONFIG
        kkt = data[:, list(cli.SIMLOG_COLUMNS).index("kkt")]
        assert math.isnan(kkt[0]) and kkt[1] == 2.5e-07

    def test_report_csv_text(self, tmp_path):
        results = [
            CellResult(Cell("agg1", "adaptive", 0.01, 19, 8, 0.0), "ok", MetricsReport(e=12.5, tv=0.25)),
            CellResult(Cell("agg2", "adaptive", 1.0, 19, 2, 2.0, "linear", runs=2), "ok",
                       MetricsReport(e=7.0, tv=0.5, e_r=7.0), [6.5, 7.5]),
            CellResult(Cell("circle", "adaptive", 3.0, 8, 4, 0.5), "failed", message="run 0: 3 of 9 ticks failed"),
            CellResult(Cell("diamond", "adaptive", 1.0, 8, 14), "skipped", message="sub_horizon exceeds horizon"),
            CellResult(Cell("agg1", "fixed", None, 24, None, 5.0), "ok", MetricsReport(e=30.125, tv=1.5)),
        ]
        write_report_csv(results, tmp_path / "report.csv", self.CONFIG)
        assert (tmp_path / "report.csv").read_bytes().decode() == (
            self.HEADER
            + "trajectory,variant,lambda,N,Ns,sigma,e,tv,e_r,status\r\n"
            + "agg1,exp,0.01,19,8,0.0,12.5,0.25,,ok\r\n"
            + "agg2,linear,1.0,19,2,2.0,7.0,0.5,7.0,ok\r\n"
            + "circle,exp,3.0,8,4,0.5,,,,failed\r\n"
            + "diamond,exp,1.0,8,14,0.0,,,,skipped\r\n"
            + "agg1,fixed,,24,,5.0,30.125,1.5,,ok\r\n"
        )


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(
            [
                "simulate",
                "--trajectory", "circle",
                "--mode", "adaptive",
                "--lambda", "1.0",
                "--horizon", "8",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "log.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "seed" not in summary  # a noise-free run draws no seed
        assert summary["e"] >= 0.0
        assert summary["config"]["horizon"] == 8

    def test_summary_echoes_variant(self, tmp_path):
        out = tmp_path / "run2"
        rc = main(
            [
                "simulate",
                "--trajectory", "circle",
                "--mode", "adaptive",
                "--sub-horizon", "4",
                "--variant", "exp",
                "--horizon", "8",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["variant"] == "exp"
        assert summary["config"]["mode"] == "adaptive"

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--trajectory", "diamond",
            "--mode", "adaptive",
            "--horizon", "8",
            "--sub-horizon", "4",
            "--noise-sigma", "1.5",
            "--seed", "13",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert file_hash(out_a / "log.csv") == file_hash(out_b / "log.csv")
        assert file_hash(out_a / "summary.json") == file_hash(out_b / "summary.json")

    def test_trajectory_from_file(self, tmp_path):
        traj_path = tmp_path / "tr.csv"
        preset("circle", dt=0.05).to_csv(traj_path)
        out = tmp_path / "run3"
        rc = main(
            ["simulate", "--trajectory", f"file:{traj_path}", "--horizon", "8", "--out", str(out)]
        )
        assert rc == 0
        config, data = read_simlog_csv(out / "log.csv")
        assert data.shape[0] == len(preset("circle", dt=0.05))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("quaternion", "reference quaternions are not unit norm"),
            ("nan", "trajectory contains non-finite values"),
            ("time", "sample times are not uniformly spaced by dt"),
            ("short row", "{} line 7: expected 15 fields, got 2"),
            ("non-numeric field", "{} line 7: could not convert string to float: 'x'"),
            ("one row", "trajectory CSV {} needs at least 2 data rows"),
            ("comment row", "{} line 7: expected 15 fields, got 1"),
        ],
    )
    def test_file_trajectory_validated(self, tmp_path, capsys, corrupt, message):
        tr = preset("circle", dt=0.05)
        ts, xs = tr.ts.copy(), tr.xs.copy()
        if corrupt == "quaternion":
            xs[5, 6:10] *= 1.01
        elif corrupt == "nan":
            xs[5] = np.nan
        elif corrupt == "time":
            ts[5:] += 0.01
        traj_path = tmp_path / "tr.csv"
        ReferenceTrajectory(ts, xs, tr.us).to_csv(traj_path)
        edit = {"short row": short_row, "non-numeric field": non_numeric}.get(corrupt)
        if edit is not None:
            traj_path.write_text("".join(edit_line(traj_path.read_text().splitlines(True), 7, edit)))
        elif corrupt == "one row":
            traj_path.write_text("".join(traj_path.read_text().splitlines(True)[:2]))  # the header and one row
        elif corrupt == "comment row":
            lines = traj_path.read_text().splitlines(True)
            traj_path.write_text("".join([*lines[:6], "# a comment\n", *lines[6:]]))
        rc = main(["simulate", "--trajectory", f"file:{traj_path}", "--horizon", "8", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"error: {message.format(traj_path)}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "log.csv").exists()

    def test_empty_trajectory_file_named(self, tmp_path, capsys):
        traj_path = tmp_path / "empty.csv"
        traj_path.write_text("")
        rc = main(["simulate", "--trajectory", f"file:{traj_path}", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unexpected trajectory CSV header [] in {traj_path}\n"
        assert not (tmp_path / "x" / "log.csv").exists()

    def test_file_trajectory_runs_at_its_own_sample_time(self, tmp_path):
        traj = preset("circle", dt=0.02)
        traj_path = tmp_path / "c02.csv"
        traj.to_csv(traj_path)
        out = tmp_path / "run"
        assert main(["simulate", "--trajectory", f"file:{traj_path}", "--horizon", "8", "--out", str(out)]) == 0
        _, data = read_simlog_csv(out / "log.csv")
        log = harness.run_closed_loop(traj, ControllerConfig(horizon=8, dt=0.02))
        assert np.array_equal(data[:, 0], traj.ts)
        assert np.array_equal(data[:, 1:4], log.x_true[:, 0:3])

    def test_sub_horizon_above_horizon_rejected(self, tmp_path, capsys):
        args = ["--mode", "adaptive", "--horizon", "8", "--sub-horizon", "25", "--out", str(tmp_path / "x")]
        assert main(["simulate", *args]) == 1
        assert capsys.readouterr().err == "error: sub-horizon 25 exceeds horizon 8\n"
        assert not (tmp_path / "x").exists()

    def test_fixed_mode_runs_below_the_default_sub_horizon(self, tmp_path):
        # a fixed-weight run never reads the sub-horizon, so the default 8 does not bound its horizon
        out = tmp_path / "run"
        assert main(["simulate", "--mode", "fixed", "--horizon", "4", "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config == {"horizon": 4, "mode": "fixed", "noise_sigma": 0.0, "trajectory": "circle"}

    @pytest.mark.parametrize("via", ["flag", "key"])
    @pytest.mark.parametrize(
        "key, value, context",
        [
            ("lambda", 2.0, ["--mode", "fixed"]),
            ("variant", "linear", ["--mode", "fixed"]),
            ("sub_horizon", 4, ["--mode", "fixed"]),
            ("seed", 7, ["--mode", "adaptive"]),  # no noise, so no draw
        ],
    )
    def test_rejects_settings_its_run_never_reads(self, tmp_path, capsys, via, key, value, context):
        out = tmp_path / "x"
        if via == "flag":
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main(["simulate", *context, flag, str(value), "--out", str(out)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"error: argument {flag}: not read by this command\n"
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            assert main(["simulate", *context, "--config", str(cfg_path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: config key {key!r} is not read by this command\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--trajectory", "circle", "--horizon", "8"],
            ["--trajectory", "diamond", "--mode", "adaptive", "--variant", "linear", "--lambda", "0.5",
             "--horizon", "8", "--sub-horizon", "4", "--noise-sigma", "1.5", "--seed", "13"],
        ],
        ids=["fixed", "adaptive-noisy"],
    )
    def test_summary_config_replays(self, tmp_path, args):
        # the recorded config holds exactly the settings the run read, so --config accepts it as it is
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["simulate", *args, "--out", str(first)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(json.loads((first / "summary.json").read_text())["config"]))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(replay)]) == 0
        for name in ("log.csv", "summary.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--noise-sigma", "noise_sigma", "nan"),
            ("--lambda", "lambda", "nan"),
            ("--lambda", "lambda", "inf"),
        ],
    )
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, key, value):
        rc = main(["simulate", "--mode", "adaptive", flag, value, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"error: {key} must be finite, got {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--noise-sigma", "1", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("sigma", ["50", "1e6"])
    def test_linear_weights_stay_bounded_under_extreme_noise(self, tmp_path, sigma):
        # unbounded, agg1 at lambda 0.01 reached a weight of 7.8e7 at sigma 50, and 3.1e16
        # at sigma 1e6 with 14 failed ticks (exit 1)
        out = tmp_path / "run"
        args = ["--trajectory", "agg1", "--mode", "adaptive", "--variant", "linear", "--lambda", "0.01"]
        assert main(["simulate", *args, "--noise-sigma", sigma, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["controller_failures"] == 0
        _, data = read_simlog_csv(out / "log.csv")
        q = data[:, cli.SIMLOG_COLUMNS.index("q0"):]
        assert q.max() == LINEAR_Q_MAX

    @pytest.mark.parametrize(
        "sigma, reason",
        [
            # the QP data are finite here, so the message names its largest input: the measurement gap
            ("1e300", r"KKT residual \S+ exceeds tolerance 1\.0e-06; largest QP input \|gap\| = \d\.\de\+300"),
            ("1e308", r"non-finite QP data in gap"),
        ],
        ids=["1e300", "1e308"],
    )
    def test_hostile_noise_fails_its_tick_quietly(self, tmp_path, capsys, sigma, reason):
        # at 1e308 the corrupted position overflows to inf; at either sigma the QP rejects that tick
        out = tmp_path / "run"
        args = ["--trajectory", "agg1", "--mode", "adaptive", "--noise-sigma", sigma, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", *args]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert json.loads((out / "summary.json").read_text())["controller_failures"] == 1
        # the noise tick, drawn as run_closed_loop draws it for seed 0
        tau = int(np.random.default_rng(0).integers(0, len(preset("agg1"))))
        _, _, cols = read_text_columns(out / "log.csv")
        assert [i for i, v in enumerate(cols["kkt"]) if v == ""] == [tau]
        # the warning names the failed tick and the QP's reason
        warning = rf"warning: controller failed on 1 ticks \(held command\); first at tick {tau}: {reason}\n"
        assert re.fullmatch(warning, err)

    @pytest.mark.parametrize(
        "trajectory, lam, sigma, seed",
        [
            # with the weights at the cap LINEAR_Q_MAX, these held their command on 18 ticks and on
            # 1 while the active-set loop released every wrong-sign multiplier at once
            ("agg1", "1e-6", "5", "3"),
            ("agg1", "1e-300", "3", "1"),
            # and this one cycled through 7 working sets when every violated bound joined at once
            # even after a solution in the box
            ("agg2", "0.01", "2", "2"),
        ],
    )
    def test_noisy_linear_runs_at_the_cap_hold_no_tick(self, tmp_path, trajectory, lam, sigma, seed):
        out = tmp_path / "run"
        args = ["--trajectory", trajectory, "--mode", "adaptive", "--variant", "linear", "--lambda", lam]
        assert main(["simulate", *args, "--noise-sigma", sigma, "--seed", seed, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["controller_failures"] == 0

    def test_tiny_lambda_overflows_quietly(self, tmp_path, capsys):
        # v_sum / (2 lam) overflows to inf at the smallest subnormal lam; the exponent cap takes it
        out = tmp_path / "run"
        args = ["--trajectory", "agg1", "--mode", "adaptive", "--lambda", "5e-324", "--noise-sigma", "1", "--seed", "2"]
        assert main(["simulate", *args, "--out", str(out)]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["controller_failures"] == 0

    @pytest.mark.parametrize(
        "entry, value, message",
        [(0, 1e308, "position jump inf reaches 20 m/s * dt"), (6, 1e200, "reference quaternions are not unit norm")],
        ids=["position", "quaternion"],
    )
    def test_huge_file_entry_rejected_quietly(self, tmp_path, capsys, entry, value, message):
        # the entry is finite, but its norm overflows to inf, which the check rejects
        tr = preset("circle", dt=0.05)
        xs = tr.xs.copy()
        xs[5, entry] = value
        traj_path = tmp_path / "tr.csv"
        ReferenceTrajectory(tr.ts, xs, tr.us).to_csv(traj_path)
        rc = main(["simulate", "--trajectory", f"file:{traj_path}", "--horizon", "8", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_runtime_failure_exit_code(self, tmp_path):
        rc = main(["simulate", "--trajectory", "file:/nonexistent.csv", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "bogus"])
        assert exc.value.code == 2


#: a horizon of 1 fails its own check, not the check of the default sub-horizon 8 against it
_HORIZON_ONE = {
    "simulate fixed horizon 1": ["simulate", "--trajectory", "agg1", "--horizon", "1"],
    "simulate adaptive horizon 1": ["simulate", "--trajectory", "agg1", "--mode", "adaptive", "--horizon", "1"],
    "table 3 horizon 1": ["table", "--table", "3", "--horizon", "1"],
}


@pytest.mark.parametrize(
    "case",
    ["bad trajectory header", "bad worker cap", "gamma key", "alternations key", "alpha key", "dt key", *_HORIZON_ONE],
)
def test_failure_before_first_artifact_leaves_no_directory(tmp_path, monkeypatch, capsys, case):
    traj_path = tmp_path / "tr.csv"
    if case == "bad trajectory header":
        traj_path.write_text("a,b,c\n")
        argv = ["simulate", "--trajectory", f"file:{traj_path}"]
        message = f"unexpected trajectory CSV header ['a', 'b', 'c'] in {traj_path}"
    elif case == "bad worker cap":
        monkeypatch.setenv(harness.THREADS_ENV, "abc")
        monkeypatch.setattr(harness, "run_cell", lambda *args: pytest.fail("a cell ran"))
        argv = ["table", "--table", "3", "--runs", "1"]
        message = "ADAPTIVE_NMPC_THREADS must be an integer, got 'abc'"
    elif case.endswith(" key"):
        key = case.split()[0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: 0.0}))
        argv = ["simulate", "--config", str(cfg_path)]
        message = f"unknown config key {key!r}"
    else:
        argv = _HORIZON_ONE[case]
        message = "horizon must be >= 2, got 1"
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


class TestConfigFile:
    def test_precedence_defaults_file_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trajectory": "diamond", "mode": "adaptive", "horizon": 8, "lambda": 2.5}))
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--config", str(cfg_path),
                "--trajectory", "circle",  # flag beats file
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["trajectory"] == "circle"
        assert summary["config"]["horizon"] == 8  # from file
        assert summary["config"]["lambda"] == 2.5
        assert summary["config"]["sub_horizon"] == 8  # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"horizons": [8, 14]}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_sigma", True),  # a bool is not a float
            ("horizon", "19"),  # a str is not an int
            ("horizon", 19.0),  # nor is a float
            ("seed", False),  # nor is a bool
            ("lambda", "2.5"),
            ("trajectory", 1),  # an int is not a str
        ],
    )
    def test_wrong_value_type_rejected(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        rc = main(["simulate", "--config", str(cfg_path), "--horizon", "8", "--out", str(out)])
        assert rc == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [("noise_sigma", float("nan")), ("lambda", float("inf"))])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        # json writes NaN and Infinity, and reads them back
        cfg_path.write_text(json.dumps({key: value, "mode": "adaptive"}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"error: {key} must be finite, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_simulate_rejects_runs_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": 7}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error: config key 'runs' is not read by this command" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lambda_key_has_one_spelling(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 2.5}))
        rc = main(["simulate", "--config", str(cfg_path), "--horizon", "8", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown config key 'lam'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["table", "--table", "3"]])
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[1, 2]", "must hold a JSON object"),
            ("null", "must hold a JSON object"),
            ("{bad", "is not valid JSON (Expecting property name enclosed in double quotes)"),
            ("", "is not valid JSON (Expecting value)"),
        ],
        ids=["list", "null", "malformed", "empty"],
    )
    def test_unusable_file_rejected(self, tmp_path, monkeypatch, capsys, command, text, reason):
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *args, **kwargs: pytest.fail("table ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: config file {cfg_path} {reason}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            (["simulate"], "mode", "hover", "mode must be 'fixed' or 'adaptive', got 'hover'"),
            (["simulate"], "trajectory", "square",
             f"trajectory must be a preset {cli.PRESET_NAMES} or 'file:<path>', got 'square'"),
            (["simulate"], "noise_sigma", -1.0, "noise-sigma must be non-negative"),
            (["table", "--table", "3"], "runs", 0, "runs must be >= 1"),
        ],
    )
    def test_invalid_value_rejected(self, tmp_path, monkeypatch, capsys, command, key, value, message):
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *args, **kwargs: pytest.fail("table ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_int_accepted_for_float_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "adaptive", "lambda": 2, "noise_sigma": 0}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--horizon", "8", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["lambda"] == 2


class TestPlotdata:
    @staticmethod
    def assert_per_log_files(out, log, suffix):
        """Each column of the three per-log files is the named log.csv column, as text."""
        config, _, logged = read_text_columns(log)
        named = {
            "path": {"x": "px", "y": "py", "z": "pz", "ref_x": "prx", "ref_y": "pry", "ref_z": "prz"},
            "position_vs_t": {c: c for c in ("t", "px", "py", "pz", "prx", "pry", "prz")},
            "controls_vs_t": {c: c for c in ("t", "c", "wx", "wy", "wz")},
        }
        for name, columns in named.items():
            file_config, header, cols = read_text_columns(out / f"{name}{suffix}.csv")
            assert file_config == config
            assert header == list(columns)
            for column, source in columns.items():
                assert cols[column] == logged[source], (name, column)

    def test_single_log_emits_three_files(self, tmp_path):
        log = random_log_csv(tmp_path / "r" / "log.csv")
        out = tmp_path / "plots"
        assert main(["plotdata", "--log", str(log), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["controls_vs_t.csv", "path.csv", "position_vs_t.csv"]
        self.assert_per_log_files(out, log, "")

    def test_reference_columns_pass_through(self, tmp_path):
        run = tmp_path / "r2"
        assert main(["simulate", "--trajectory", "circle", "--horizon", "8", "--out", str(run)]) == 0
        out = tmp_path / "plots2"
        assert main(["plotdata", "--log", str(run / "log.csv"), "--out", str(out)]) == 0
        _, _, logged = read_text_columns(run / "log.csv")
        _, _, cols = read_text_columns(out / "position_vs_t.csv")
        for c in ("prx", "pry", "prz"):
            assert cols[c] == logged[c]

    @pytest.mark.parametrize(
        "names, labels",
        [
            (["run_fixed/log.csv", "run_adaptive/log.csv"], ["run_fixed", "run_adaptive"]),  # the README example
            (["a/base.csv", "b/adapt.csv"], ["base", "adapt"]),
            (["a/log.csv", "b/log.csv", "b/extra.csv"], ["a", "b", "extra"]),
        ],
        ids=["readme-example", "distinct-stems", "shared-and-distinct-stems"],
    )
    def test_logs_kept_apart(self, tmp_path, names, labels):
        logs = [random_log_csv(tmp_path / name, seed=k) for k, name in enumerate(names)]
        out = tmp_path / "plots"
        args = ["plotdata", *(a for log in logs for a in ("--log", str(log))), "--out", str(out)]
        assert main(args) == 0
        per_log = [f"{name}_{label}.csv" for label in labels for name in ("path", "position_vs_t", "controls_vs_t")]
        assert sorted(p.name for p in out.iterdir()) == sorted(per_log + ["comparison.csv"])
        for log, label in zip(logs, labels):
            self.assert_per_log_files(out, log, f"_{label}")

        config, header, cols = read_text_columns(out / "comparison.csv")
        first = read_text_columns(logs[0])
        assert config == first[0]
        by_label = [f"{c}_{label}" for label in labels for c in ("px", "py", "pz", "d_i")]
        assert header == ["t", *by_label, "prx", "pry", "prz"]
        for log, label in zip(logs, labels):
            _, _, logged = read_text_columns(log)
            for c in ("px", "py", "pz", "d_i"):
                assert cols[f"{c}_{label}"] == logged[c]
        for c in ("t", "prx", "pry", "prz"):
            assert cols[c] == first[2][c]

    def test_stem_and_directory_clash_writes_nothing(self, tmp_path, capsys):
        logs = [random_log_csv(tmp_path / sub / "run" / "log.csv") for sub in ("a", "b")]
        out = tmp_path / "plots"
        assert main(["plotdata", "--log", str(logs[0]), "--log", str(logs[1]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(logs[0]) in err and str(logs[1]) in err
        assert "share both file stem and directory name" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, order, message",
        [
            (lambda lines: [], "after", "missing or unexpected log CSV header in {}"),
            (lambda lines: [], "before", "missing or unexpected log CSV header in {}"),
            (lambda lines: lines[:2], "alone", "log CSV {} has no rows"),  # the config line and the header
            (lambda lines: ["# config: {bad\n", *lines[1:]], "after",
             "{} line 1: the config is not valid JSON (Expecting property name enclosed in double quotes)"),
            (lambda lines: ["# config: [1, 2]\n", *lines[1:]], "after", "{} line 1: the config must be a JSON object"),
            (lambda lines: ["# config: null\n", *lines[1:]], "alone", "{} line 1: the config must be a JSON object"),
            (lambda lines: lines[:-1], "after", "logs have differing lengths [5, 6]; cannot merge"),
            (lambda lines: edit_line(lines, 4, lambda fields: ["9.0", *fields[1:]]), "before",
             "logs have differing time bases; cannot merge"),
            (lambda lines: edit_line(lines, 5, short_row), "after", "{} line 5: expected 23 fields, got 2"),
            (lambda lines: edit_line(lines, 4, non_numeric), "before",
             "{} line 4: could not convert string to float: 'x'"),
        ],
        ids=["empty-second", "empty-first", "header-only", "bad-config-json", "config-list", "config-null",
             "differing-lengths", "differing-time-bases", "short-row", "non-numeric-field"],
    )
    def test_unreadable_log_writes_nothing(self, tmp_path, capsys, corrupt, order, message):
        good = random_log_csv(tmp_path / "run" / "log.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(corrupt(good.read_text().splitlines(True))))
        logs = {"after": [good, bad], "before": [bad, good], "alone": [bad]}[order]
        out = tmp_path / "plots"
        assert main(["plotdata", *(a for log in logs for a in ("--log", str(log))), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(bad)}\n")
        assert not out.exists()

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["plotdata", "--log", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 1


class TestTableCommand:
    @pytest.fixture
    def no_run(self, monkeypatch):
        """Fail the test if the command reaches the grid."""
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *args, **kwargs: pytest.fail("table ran"))

    @pytest.mark.slow
    def test_table1_report_has_64_cells(self, tmp_path):
        out = tmp_path / "t1"
        rc = main(["table", "--table", "1", "--horizon", "8", "--out", str(out)])
        assert rc == 0
        with open(out / "table1_report.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64  # 4 trajectories x 4 lambdas x (baseline + 3 sub-horizons)

    @pytest.mark.slow
    def test_table3_small_runs_override(self, tmp_path):
        out = tmp_path / "t3"
        rc = main(
            [
                "table",
                "--table", "3",
                "--runs", "1",
                "--horizon", "8",
                "--sub-horizon", "4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = (out / "table3_report.csv").read_text()
        assert report.startswith("# config:")
        header = json.loads(report.splitlines()[0][len("# config:") :])
        assert header["runs"] == 1
        assert (out / "table3.txt").exists()

    @pytest.mark.parametrize(
        "table, file_runs, flag_runs, expected",
        [(3, None, None, 15), (3, 2, None, 2), (3, 2, 3, 3), (3, None, 4, 4), (1, None, None, 1)],
    )
    def test_runs_precedence(self, tmp_path, monkeypatch, table, file_runs, flag_runs, expected):
        grids = []

        def fake_grid(grid, base, seed=0, max_workers=None):
            grids.append(grid)
            return [CellResult(c, "ok", MetricsReport(e=1.0, tv=1.0, e_r=1.0), [1.0]) for c in grid.cells()]

        monkeypatch.setattr(cli, "run_experiment_grid", fake_grid)
        out = tmp_path / "t"
        args = ["table", "--table", str(table), "--out", str(out)]
        if file_runs is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"runs": file_runs}))
            args += ["--config", str(cfg_path)]
        if flag_runs is not None:
            args += ["--runs", str(flag_runs)]
        assert main(args) == 0
        assert [g.runs for g in grids] == [expected]
        report = (out / f"table{table}_report.csv").read_text()
        # only Table 3 reads, and so records, its runs
        assert json.loads(report.splitlines()[0][len("# config:") :]).get("runs") == (expected if table == 3 else None)

    @pytest.mark.slow
    def test_table2_marks_skipped_cells(self, tmp_path):
        out = tmp_path / "t2"
        rc = main(["table", "--table", "2", "--out", str(out)])
        assert rc == 0
        with open(out / "table2_report.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64  # 4 trajectories x 4 horizons x (baseline + 3 sub-horizons)
        assert sum(1 for r in rows if r["variant"] == "fixed") == 16
        skipped = [r for r in rows if r["status"] == "skipped"]
        assert {(r["N"], r["Ns"]) for r in skipped} == {("8", "14"), ("8", "18"), ("14", "18")}
        assert "skipped" in (out / "table2.txt").read_text()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--mode", "adaptive"),
            ("--trajectory", "agg1"),
            ("--noise-sigma", "2.0"),
            ("--gamma", "0.5"),
            ("--alternations", "2"),
            ("--alpha", "1.0"),
            ("--dt", "0.05"),
        ],
    )
    def test_rejects_flags_it_never_reads(self, tmp_path, no_run, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--table", "3", flag, value, "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "table, flag, value",
        [(1, "--lambda", "2.0"), (1, "--sub-horizon", "4"), (2, "--horizon", "8"), (2, "--sub-horizon", "4")]
        # the noise-free tables repeat identical runs and draw no seed
        + [(t, flag, value) for t in (1, 2) for flag, value in (("--runs", "2"), ("--seed", "3"))],
    )
    def test_rejects_flags_its_table_never_reads(self, tmp_path, no_run, capsys, table, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--table", str(table), flag, value, "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert f"error: argument {flag}: not read by this command" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "table, key, value",
        [(t, *kv) for t in (1, 2, 3) for kv in (("trajectory", "agg1"), ("mode", "adaptive"), ("noise_sigma", 3.0))]
        + [(1, "lambda", 2.0), (1, "sub_horizon", 4), (2, "horizon", 8), (2, "sub_horizon", 4)]
        + [(t, *kv) for t in (1, 2) for kv in (("runs", 2), ("seed", 3))],
    )
    def test_rejects_config_keys_its_table_never_reads(self, tmp_path, no_run, capsys, table, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        rc = main(["table", "--table", str(table), "--config", str(cfg_path), "--out", str(tmp_path / "t")])
        assert rc == 1
        assert f"error: config key {key!r} is not read by this command" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda", "-1", "lam must be positive, got -1.0"),
            ("--sub-horizon", "0", "sub_horizon must be >= 1, got 0"),
        ],
    )
    def test_checks_inputs_before_any_cell_runs(self, tmp_path, no_run, capsys, flag, value, message):
        rc = main(["table", "--table", "3", flag, value, "--out", str(tmp_path / "t")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "table, flag, value, message",
        [
            (3, "--lambda", "nan", "lambda must be finite, got nan"),
            (1, "--horizon", "1", "horizon must be >= 2, got 1"),
            (2, "--lambda", "inf", "lambda must be finite, got inf"),
            (3, "--seed", "-1", "seed must be >= 0, got -1"),
        ],
    )
    def test_rejects_bad_numbers_before_any_cell_runs(self, tmp_path, no_run, capsys, table, flag, value, message):
        runs = ["--runs", "1"] if table == 3 else []
        rc = main(["table", "--table", str(table), *runs, flag, value, "--out", str(tmp_path / "t")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "flags, sub_horizon, horizon",
        [
            (["--sub-horizon", "25"], 25, 19),
            (["--horizon", "6"], 8, 6),
            (["--horizon", "10", "--sub-horizon", "11"], 11, 10),
        ],
    )
    def test_table3_rejects_sub_horizon_above_horizon(self, tmp_path, no_run, capsys, flags, sub_horizon, horizon):
        # Table 3 runs its adaptive rows on the config's own sub-horizon, so every one of them would be skipped
        rc = main(["table", "--table", "3", "--runs", "1", *flags, "--out", str(tmp_path / "t")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: sub-horizon {sub_horizon} exceeds horizon {horizon}\n"
        assert not (tmp_path / "t").exists()

    @pytest.fixture
    def fake_run(self, monkeypatch):
        """Replace the grid by one whose every cell reports, in e, the seed and runs it was given."""

        def fake_grid(grid, base, seed=0, max_workers=None):
            rep = MetricsReport(e=seed + grid.runs / 100, tv=1.0, e_r=1.0)
            return [CellResult(c, "ok", rep, [1.0]) for c in grid.cells()]

        monkeypatch.setattr(cli, "run_experiment_grid", fake_grid)

    @staticmethod
    def record(out, table):
        """The settings a table's report records, as the text of a config file."""
        return (out / f"table{table}_report.csv").read_text().splitlines()[0][len("# config: ") :]

    @pytest.mark.parametrize(
        "table, header",
        [
            (1, '{"horizon": 19, "variant": "exp"}'),
            (2, '{"lambda": 1.0, "variant": "exp"}'),
            (3, '{"horizon": 19, "lambda": 1.0, "runs": 15, "seed": 0, "sub_horizon": 8, "variant": "exp"}'),
        ],
        ids=["1", "2", "3"],
    )
    def test_default_config_header(self, tmp_path, fake_run, table, header):
        out = tmp_path / "t"
        assert main(["table", "--table", str(table), "--out", str(out)]) == 0
        for name in (f"table{table}_report.csv", f"table{table}.txt"):
            assert (out / name).read_text().splitlines()[0] == "# config: " + header

    @pytest.mark.parametrize(
        "table, flags",
        [
            (1, ["--horizon", "8", "--variant", "linear"]),
            (2, ["--lambda", "0.5"]),
            (3, ["--runs", "2", "--seed", "5", "--lambda", "0.5", "--horizon", "10", "--sub-horizon", "4"]),
        ],
        ids=["1", "2", "3"],
    )
    def test_record_replays(self, tmp_path, fake_run, table, flags):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["table", "--table", str(table), *flags, "--out", str(first)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(self.record(first, table))
        assert main(["table", "--table", str(table), "--config", str(cfg_path), "--out", str(replay)]) == 0
        for name in (f"table{table}_report.csv", f"table{table}.txt"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_record_of_another_table_rejected(self, tmp_path, fake_run, capsys):
        assert main(["table", "--table", "3", "--out", str(tmp_path / "t3")]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(self.record(tmp_path / "t3", 3))
        capsys.readouterr()
        assert main(["table", "--table", "1", "--config", str(cfg_path), "--out", str(tmp_path / "t1")]) == 1
        assert capsys.readouterr().err == "error: config key 'lambda' is not read by this command\n"
        assert not (tmp_path / "t1").exists()

    def test_invalid_table_id(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--table", "5"])
        assert exc.value.code == 2


class TestRenderTable:
    @staticmethod
    def row_values(text, row, noise):
        tokens = next(line for line in text.splitlines() if line.startswith(row)).split()
        return tokens[1:] if noise else tokens[1::3]  # "e | tv" per column

    @pytest.mark.parametrize(
        "label, columns, noise, fixed_cells, fixed_row",
        [
            # a fixed cell has no lambda: one baseline repeated under every lambda
            ("lambda", [0.01, 0.67, 1.67, 3.0], False, [Cell("agg1", "fixed")], ["10.00"] * 4),
            # its own horizon and sigma: one baseline per column
            ("N", [8, 14, 19, 24], False, [Cell("agg1", "fixed", horizon=nh) for nh in (8, 14, 19, 24)],
             ["10.00", "11.00", "12.00", "13.00"]),
            ("sigma", [0.5, 2.0, 3.5, 5.0], True, [Cell("agg1", "fixed", sigma=s, runs=2) for s in (0.5, 2.0, 3.5, 5.0)],
             ["10.00", "11.00", "12.00", "13.00"]),
        ],
    )
    def test_fixed_row_shows_each_columns_own_baseline(self, label, columns, noise, fixed_cells, fixed_row):
        def result(cell, e):
            return CellResult(cell, "ok", MetricsReport(e=e, tv=0.5, e_r=e if cell.runs > 1 else None))

        adaptive = []
        for c in columns:
            axis = {"lambda": {"lam": c}, "N": {"horizon": c}, "sigma": {"sigma": c, "runs": 2}}[label]
            adaptive.append(Cell("agg1", "adaptive", **{"lam": 1.0, "sub_horizon": 4, **axis}))
        results = [result(cell, 10.0 + j) for j, cell in enumerate(fixed_cells)]
        results += [result(cell, 20.0 + j) for j, cell in enumerate(adaptive)]
        text = render_table(results, columns, label, noise=noise)
        assert self.row_values(text, "fixed", noise) == fixed_row
        assert self.row_values(text, "Ns=4", noise) == ["20.00", "21.00", "22.00", "23.00"]


class TestFirstTickFailure:
    """One active-set iteration under the saturated box: every QP fails, from the first tick on."""

    @pytest.fixture(autouse=True)
    def one_qp_iteration(self, monkeypatch):
        make = cli.RunConfig.controller_config
        monkeypatch.setattr(cli.RunConfig, "controller_config", lambda cfg: replace(make(cfg), limits=SATURATED_BOX))
        monkeypatch.setattr(transcription, "QP_MAX_ITER", 1)

    def test_simulate_logs_finite_rows_and_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--trajectory", "agg1", "--out", str(out)]) == 1
        L = len(preset("agg1"))
        assert f"warning: controller failed on {L} ticks (held command)" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["controller_failures"] == L

        _, header, cols = read_text_columns(out / "log.csv")
        assert cols["kkt"] == ("",) * L  # no tick has a certificate
        for name in header:
            if name != "kkt":
                assert all(math.isfinite(float(v)) for v in cols[name]), name
        held = SATURATED_BOX.clamp(preset("agg1").us[0])
        assert [float(cols[c][0]) for c in ("c", "wx", "wy", "wz")] == held.tolist()

        plots = tmp_path / "plots"
        assert main(["plotdata", "--log", str(out / "log.csv"), "--out", str(plots)]) == 0
        TestPlotdata.assert_per_log_files(plots, out / "log.csv", "")

    def test_table_marks_cells_failed_and_exits_1(self, tmp_path, monkeypatch):
        # the patched QP_MAX_ITER lives in this process only, so the cells run here, not in pool workers
        monkeypatch.setenv(harness.THREADS_ENV, "1")
        out = tmp_path / "t3"
        assert main(["table", "--table", "3", "--runs", "1", "--out", str(out)]) == 1
        with open(out / "table3_report.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        # the box binds on the aggressive presets from the first tick on
        assert {row["status"] for row in rows if row["trajectory"] in ("agg1", "agg2")} == {"failed"}
        failed = [row for row in rows if row["status"] == "failed"]
        assert all(row["e"] == row["tv"] == "" for row in failed)
        assert (out / "table3.txt").read_text().count("failed") == len(failed)
