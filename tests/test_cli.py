import hashlib
import json

import numpy as np
import pytest

from adaptive_nmpc import cli
from adaptive_nmpc.cli import main, read_simlog_csv, render_table
from adaptive_nmpc.harness import Cell, CellResult, MetricsReport
from adaptive_nmpc.trajectories import ReferenceTrajectory, preset


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(
            [
                "simulate",
                "--trajectory", "circle",
                "--mode", "fixed",
                "--lambda", "1.0",
                "--horizon", "8",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "log.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 7
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
        ],
    )
    def test_file_trajectory_validated(self, tmp_path, capsys, corrupt, message):
        tr = preset("circle", dt=0.05)
        ts, xs = tr.ts.copy(), tr.xs.copy()
        if corrupt == "quaternion":
            xs[5, 6:10] *= 1.01
        elif corrupt == "nan":
            xs[5] = np.nan
        else:
            ts[5:] += 0.01
        traj_path = tmp_path / "tr.csv"
        ReferenceTrajectory(ts, xs, tr.us, tr.dt).to_csv(traj_path)
        rc = main(["simulate", "--trajectory", f"file:{traj_path}", "--horizon", "8", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "log.csv").exists()

    def test_runtime_failure_exit_code(self, tmp_path):
        rc = main(["simulate", "--trajectory", "file:/nonexistent.csv", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "bogus"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_precedence_defaults_file_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trajectory": "diamond", "horizon": 8, "lambda": 2.5}))
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
        assert summary["config"]["dt"] == 0.05  # default

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

    def test_int_accepted_for_float_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda": 2, "noise_sigma": 0}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--horizon", "8", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["lambda"] == 2


class TestPlotdata:
    def _make_log(self, tmp_path, name, seed=0):
        out = tmp_path / name
        assert (
            main(
                [
                    "simulate",
                    "--trajectory", "circle",
                    "--horizon", "8",
                    "--seed", str(seed),
                    "--out", str(out),
                ]
            )
            == 0
        )
        return out / "log.csv"

    def test_single_log_emits_three_files(self, tmp_path):
        log = self._make_log(tmp_path, "r1")
        out = tmp_path / "plots"
        assert main(["plotdata", "--log", str(log), "--out", str(out)]) == 0
        for name in ("path.csv", "position_vs_t.csv", "controls_vs_t.csv"):
            assert (out / name).exists()

    def test_reference_columns_pass_through(self, tmp_path):
        log = self._make_log(tmp_path, "r2")
        out = tmp_path / "plots2"
        assert main(["plotdata", "--log", str(log), "--out", str(out)]) == 0
        _, data = read_simlog_csv(log)
        import csv

        with open(out / "position_vs_t.csv") as fh:
            fh.readline()  # config header
            rows = list(csv.reader(fh))
        cols = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(cols[:, 4:7], data[:, 4:7])

    def test_merged_comparison_alignment(self, tmp_path):
        log_a = self._make_log(tmp_path, "base", seed=1)
        log_b = self._make_log(tmp_path, "adapt", seed=2)
        out = tmp_path / "plots3"
        assert main(["plotdata", "--log", str(log_a), "--log", str(log_b), "--out", str(out)]) == 0
        assert (out / "comparison.csv").exists()
        with open(out / "comparison.csv") as fh:
            fh.readline()
            n_rows = sum(1 for _ in fh) - 1
        _, data = read_simlog_csv(log_a)
        assert n_rows == data.shape[0]

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["plotdata", "--log", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 1


class TestTableCommand:
    def test_table1_report_has_64_cells(self, tmp_path):
        out = tmp_path / "t1"
        rc = main(["table", "--table", "1", "--horizon", "8", "--out", str(out)])
        assert rc == 0
        import csv

        with open(out / "table1_report.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64  # 4 trajectories x 4 lambdas x (baseline + 3 sub-horizons)

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
        assert json.loads(report.splitlines()[0][len("# config:") :])["runs"] == expected

    def test_table2_marks_skipped_cells(self, tmp_path):
        out = tmp_path / "t2"
        rc = main(["table", "--table", "2", "--out", str(out)])
        assert rc == 0
        import csv

        with open(out / "table2_report.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64  # 4 trajectories x 4 horizons x (baseline + 3 sub-horizons)
        assert sum(1 for r in rows if r["variant"] == "fixed") == 16
        skipped = [r for r in rows if r["status"] == "skipped"]
        assert {(r["N"], r["Ns"]) for r in skipped} == {("8", "14"), ("8", "18"), ("14", "18")}
        assert "skipped" in (out / "table2.txt").read_text()

    @pytest.mark.parametrize(
        "flag, value", [("--mode", "adaptive"), ("--trajectory", "agg1"), ("--noise-sigma", "2.0")]
    )
    def test_rejects_flags_it_never_reads(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *args, **kwargs: pytest.fail("table ran"))
        with pytest.raises(SystemExit) as exc:
            main(["table", "--table", "3", flag, value, "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert not (tmp_path / "t").exists()

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
