import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from adaptive_nmpc import harness, transcription
from adaptive_nmpc.adaptation import AdaptConfig
from adaptive_nmpc.cli import RunConfig, table_grid
from adaptive_nmpc.controller import ControllerConfig
from adaptive_nmpc.dynamics import State
from adaptive_nmpc.harness import (
    Cell,
    CellResult,
    GridSpec,
    MetricsReport,
    NoiseConfig,
    SimLog,
    grid_workers,
    inject_noise,
    metric_total_error,
    metric_tv,
    run_cell,
    run_closed_loop,
    run_experiment_grid,
)
from adaptive_nmpc.trajectories import ReferenceTrajectory, preset
from helpers import SATURATED_BOX, hover_state


def random_log(rng, L=20):
    return SimLog(
        ts=np.arange(L) * 0.05,
        x_true=rng.standard_normal((L, 10)),
        x_meas=rng.standard_normal((L, 10)),
        u_applied=rng.standard_normal((L, 4)),
        ref_xs=rng.standard_normal((L, 10)),
        q_snapshot=np.ones((L, 10)),
        kkt=np.zeros(L),
    )


class TestClosedLoop:
    def test_log_length_equals_trajectory_length(self):
        traj = preset("circle")
        log = run_closed_loop(traj, ControllerConfig(), seed=0)
        assert len(log) == len(traj)

    def test_circle_tracks_within_five_centimeters(self):
        traj = preset("circle")
        log = run_closed_loop(traj, ControllerConfig(), seed=0)
        assert log.position_error.max() < 0.05

    def test_offset_start_converges_monotonically(self):
        traj = preset("circle")
        x0 = traj.xs[0] + np.concatenate([[1.0, 0, 0], np.zeros(7)])
        log = run_closed_loop(traj, ControllerConfig(), seed=0, x0=x0)
        d = log.position_error
        assert d[0] == pytest.approx(1.0)
        diffs = np.diff(d[:10])
        assert np.all(diffs < 0.0)

    def test_command_logged_as_returned(self, monkeypatch):
        commands = []
        baseline_tick = harness.baseline_tick

        def tick(*args):
            out = baseline_tick(*args)
            commands.append(out[0].copy())
            return out

        monkeypatch.setattr(harness, "baseline_tick", tick)
        log = run_closed_loop(preset("circle"), ControllerConfig(horizon=8))
        assert len(commands) == len(log)
        assert all(c.shape == (4,) and c.dtype == np.float64 for c in commands)
        np.testing.assert_array_equal(log.u_applied, np.array(commands))

    def test_trajectory_dt_must_match_controller_dt(self):
        with pytest.raises(ValueError, match=r"^trajectory sample time 0\.02 differs from the controller dt 0\.05$"):
            run_closed_loop(preset("circle", dt=0.02), ControllerConfig())

    def test_dt_from_shifted_sample_times_accepted(self):
        # a file whose t starts at 1.0 reads dt = t[1] - t[0] = 0.050000000000000044
        tr = preset("circle")
        ts = tr.ts[:30] + 1.0
        shifted = ReferenceTrajectory(ts, tr.xs[:30], tr.us[:30])
        assert shifted.dt != 0.05
        log = run_closed_loop(shifted, ControllerConfig(horizon=8))
        assert len(log) == 30 and log.failures == 0

    def test_sigma_zero_noise_equals_no_noise(self):
        traj = preset("diamond")
        cfg = ControllerConfig(adapt=AdaptConfig())
        log_a = run_closed_loop(traj, cfg, noise=NoiseConfig(sigma=0.0), seed=5)
        log_b = run_closed_loop(traj, cfg, noise=None, seed=5)
        np.testing.assert_array_equal(log_a.x_true, log_b.x_true)
        np.testing.assert_array_equal(log_a.u_applied, log_b.u_applied)

    def test_sigma_zero_builds_no_generator(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("a sigma-0 run built a noise generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        log = run_closed_loop(preset("circle"), ControllerConfig(horizon=8), noise=NoiseConfig(0.0), seed=5)
        np.testing.assert_array_equal(log.x_meas, log.x_true)

    def test_reproducible_under_fixed_seed(self):
        traj = preset("agg1")
        cfg = ControllerConfig(adapt=AdaptConfig())
        log_a = run_closed_loop(traj, cfg, noise=NoiseConfig(sigma=2.0), seed=3)
        log_b = run_closed_loop(traj, cfg, noise=NoiseConfig(sigma=2.0), seed=3)
        np.testing.assert_array_equal(log_a.x_true, log_b.x_true)
        np.testing.assert_array_equal(log_a.x_meas, log_b.x_meas)

    def test_noisy_run_draws_tick_then_kick(self):
        # one generator per noisy run, seeded with the run's seed: the noise tick, then the kick
        traj, seed, sigma = preset("agg1"), 3, 2.0
        log = run_closed_loop(traj, ControllerConfig(adapt=AdaptConfig()), noise=NoiseConfig(sigma=sigma), seed=seed)
        rng = np.random.default_rng(seed)
        tau = int(rng.integers(0, len(traj)))
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        p = log.x_true[tau, :3]
        nu *= float(np.linalg.norm(p))
        assert np.flatnonzero(np.any(log.x_meas != log.x_true, axis=1)).tolist() == [tau]
        np.testing.assert_array_equal(log.x_meas[tau, :3], p + sigma * nu)
        np.testing.assert_array_equal(log.x_meas[tau, 3:], log.x_true[tau, 3:])

    def test_noise_free_runs_never_import_numpy_random(self):
        # in a fresh interpreter, since this one has imported numpy.random long ago
        script = textwrap.dedent(
            """
            import sys
            from adaptive_nmpc.cli import RunConfig, table_grid
            from adaptive_nmpc.controller import ControllerConfig
            from adaptive_nmpc.harness import run_cell, run_closed_loop
            from adaptive_nmpc.trajectories import preset

            assert run_closed_loop(preset("agg1"), ControllerConfig()).failures == 0
            cell = next(c for c in table_grid(1, RunConfig()).cells() if c.mode == "adaptive")
            assert run_cell(cell, ControllerConfig()).status == "ok"
            print("numpy.random" in sys.modules)
            """
        )
        src = Path(harness.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: AdaptConfig(lam=np.nan), "lam must be positive, got nan"),
        (lambda: NoiseConfig(sigma=np.nan), "sigma must be non-negative, got nan"),
        (lambda: ControllerConfig(dt=np.nan), "dt must be positive, got nan"),
    ],
    ids=["AdaptConfig.lam", "NoiseConfig.sigma", "ControllerConfig.dt"],
)
def test_configs_reject_nan(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestInjectNoise:
    def test_sigma_zero_is_identity(self):
        x = hover_state((1.0, 2.0, 3.0))
        out = inject_noise(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_displacement_norm_is_exact(self):
        rng = np.random.default_rng(1)
        for sigma in (0.5, 2.0, 5.0):
            x = hover_state((1.0, -2.0, 3.0))
            out = inject_noise(x, sigma, rng)
            p_norm = np.linalg.norm(x.p_WB)
            assert np.linalg.norm(out.p_WB - x.p_WB) == pytest.approx(sigma * p_norm, rel=1e-12)

    def test_only_position_corrupted(self):
        x = State([1.0, 0, 0], [0.5, -0.5, 0.2], [1, 0, 0, 0])
        out = inject_noise(x, 3.0, np.random.default_rng(2))
        np.testing.assert_array_equal(out.v_WB, x.v_WB)
        np.testing.assert_array_equal(out.q_WB, x.q_WB)

    def test_zero_position_uses_unit_direction(self):
        x = hover_state((0.0, 0.0, 0.0))
        out = inject_noise(x, 2.0, np.random.default_rng(3))
        assert np.linalg.norm(out.p_WB) == pytest.approx(2.0, rel=1e-12)

    def test_fixed_seed_reproduces_draw(self):
        x = hover_state((1.0, 2.0, 3.0))
        a = inject_noise(x, 1.5, np.random.default_rng(7))
        b = inject_noise(x, 1.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a.p_WB, b.p_WB)


class TestMetrics:
    def test_perfect_tracking_zero_error(self):
        rng = np.random.default_rng(0)
        log = random_log(rng)
        log.ref_xs = log.x_true.copy()
        assert metric_total_error(log) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        log = random_log(rng, L=100)
        log.ref_xs = log.x_true.copy()
        log.x_true = log.x_true.copy()
        log.x_true[:, 0] += 0.1
        assert metric_total_error(log) == pytest.approx(10.0, abs=1e-12)

    def test_error_matches_reference_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            log = random_log(rng, L=int(rng.integers(2, 30)))
            expected = sum(
                float(np.sqrt(np.sum((log.x_true[i, :3] - log.ref_xs[i, :3]) ** 2)))
                for i in range(len(log))
            )
            assert metric_total_error(log) == pytest.approx(expected, rel=1e-15)

    def test_tv_constant_controls(self):
        us = np.tile([9.81, 0.1, -0.2, 0.3], (50, 1))
        assert metric_tv(us) == 0.0

    def test_tv_two_sample_case(self):
        us = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
        assert metric_tv(us) == pytest.approx(0.5)

    def test_tv_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            L = int(rng.integers(2, 30))
            us = rng.standard_normal((L, 4))
            expected = (
                sum(
                    abs(us[i, 0] - us[i + 1, 0])
                    + sum(abs(us[i, j] - us[i + 1, j]) for j in (1, 2, 3))
                    for i in range(L - 1)
                )
                / L
            )
            assert metric_tv(us) == pytest.approx(expected, rel=1e-12)

    def test_tv_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            metric_tv(np.ones((1, 4)))


class TestGrid:
    def test_table1_shape_is_64_cells(self):
        grid = GridSpec(
            trajectories=("agg1", "agg2", "circle", "diamond"),
            lambdas=(0.01, 0.67, 1.67, 3.0),
            sub_horizons=(2, 8, 12),
        )
        cells = grid.cells()
        # fixed mode collapses the sub-horizon axis to a single row
        # per (trajectory, lambda) position: 4 traj x 4 lambda x (1 + 3)
        assert len(cells) == 64
        fixed = [c for c in cells if c.mode == "fixed"]
        assert len(fixed) == 4 * 4
        assert all(c.lam is None and c.sub_horizon is None for c in fixed)
        unique = {c for c in cells}
        assert len(unique) == 4 * 4 * 3 + 4 * 1  # adaptive cells + fixed rows

    @pytest.mark.parametrize("bad", [None, 0, -3, 2.0, "8"])
    def test_bad_sub_horizon_rejected(self, bad):
        with pytest.raises(ValueError, match=f"sub-horizon must be a positive integer, got {bad!r}"):
            GridSpec(trajectories=("circle",), sub_horizons=(bad, 4))

    def test_skip_rule(self):
        cell = Cell("circle", "adaptive", lam=1.0, horizon=8, sub_horizon=14)
        assert not cell.valid
        res = run_cell(cell, ControllerConfig())
        assert res.status == "skipped"
        assert run_cell(Cell("circle", "adaptive", lam=1.0, horizon=14, sub_horizon=14), ControllerConfig()).status == "ok"

    def test_noise_cell_er_is_mean_of_runs(self):
        cell = Cell("circle", "fixed", sigma=2.0, runs=3, horizon=8)
        res = run_cell(cell, ControllerConfig(horizon=8), seed=11)
        assert res.status == "ok"
        assert len(res.per_run_e) == 3
        assert res.report.e_r == pytest.approx(float(np.mean(res.per_run_e)), rel=1e-15)

    def test_cell_with_held_commands_fails(self, monkeypatch):
        cell = Cell("agg1", "fixed", None, 19, None, 0.0, "exponential", 1)
        monkeypatch.setattr(transcription, "QP_MAX_ITER", 1)
        res = run_cell(cell, ControllerConfig(limits=SATURATED_BOX))
        assert res.status == "failed"
        assert res.report is None
        assert res.message == (
            "run 0: 103 of 103 ticks failed their QP and held the command; "
            "first at tick 0: active-set loop did not converge within 1 iterations; largest QP input |r| = 5.0e+00"
        )
        monkeypatch.undo()
        healthy = run_cell(cell, ControllerConfig(limits=SATURATED_BOX))
        assert healthy.status == "ok"
        assert healthy.message == ""

    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_table_variant_reaches_the_controller(self, monkeypatch, table):
        seen = []

        def fake_run(traj, cfg, noise=None, seed=0, x0=None):
            seen.append(cfg.adapt)
            return random_log(np.random.default_rng(0))

        monkeypatch.setattr(harness, "run_closed_loop", fake_run)
        cells = table_grid(table, RunConfig(variant="linear", runs=1)).cells()
        assert {c.variant for c in cells} == {"linear"}
        adaptive = next(c for c in cells if c.mode == "adaptive" and c.valid)
        assert run_cell(adaptive, ControllerConfig()).status == "ok"
        assert seen[-1].variant == "linear"
        assert (seen[-1].lam, seen[-1].sub_horizon) == (adaptive.lam, adaptive.sub_horizon)

    def test_failed_cell_recorded_and_grid_continues(self):
        grid = GridSpec(trajectories=("circle", "nosuch"), horizons=(8,))
        results = run_experiment_grid(grid, ControllerConfig(horizon=8), max_workers=1)
        statuses = {(r.cell.trajectory, r.cell.mode): r.status for r in results}
        assert statuses == {
            ("circle", "fixed"): "ok",
            ("circle", "adaptive"): "ok",
            ("nosuch", "fixed"): "failed",
            ("nosuch", "adaptive"): "failed",
        }

    def test_grid_deterministic_and_parallel_consistent(self):
        grid = GridSpec(trajectories=("circle",), horizons=(8,), sub_horizons=(4,))
        a = run_experiment_grid(grid, ControllerConfig(horizon=8), seed=2, max_workers=1)
        b = run_experiment_grid(grid, ControllerConfig(horizon=8), seed=2, max_workers=2)
        assert [(r.cell, r.status) for r in a] == [(r.cell, r.status) for r in b]
        for ra, rb in zip(a, b):
            assert ra.report.e == rb.report.e
            assert ra.report.tv == rb.report.tv

    def test_default_workers_count_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("ADAPTIVE_NMPC_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert grid_workers() == 1  # pinned to one of eight CPUs
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {1, 3, 5})
        assert grid_workers() == 3
        monkeypatch.setenv("ADAPTIVE_NMPC_THREADS", "2")
        assert grid_workers() == 2
        monkeypatch.delenv("ADAPTIVE_NMPC_THREADS")
        monkeypatch.delattr(harness.os, "sched_getaffinity")  # a platform without affinity masks
        assert grid_workers() == 8
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert grid_workers() == 1

    def test_thread_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("ADAPTIVE_NMPC_THREADS", "1")
        assert grid_workers(8) == 1
        monkeypatch.delenv("ADAPTIVE_NMPC_THREADS")
        assert grid_workers(3) == 3
        monkeypatch.setenv("ADAPTIVE_NMPC_THREADS", "two")
        with pytest.raises(ValueError, match="ADAPTIVE_NMPC_THREADS must be an integer, got 'two'"):
            grid_workers(2)

    def test_repeated_cells_run_once_and_share_result(self, monkeypatch):
        calls = []

        def fake_run_cell(cell, base, seed=0):
            calls.append(cell)
            e = float(len(calls))  # a distinct error per job
            return CellResult(cell, "ok", MetricsReport(e=e, tv=0.0), [e])

        monkeypatch.setattr(harness, "run_cell", fake_run_cell)
        grid = table_grid(1, RunConfig())
        results = run_experiment_grid(grid, ControllerConfig(), max_workers=1)
        assert len(calls) == 52 and len(set(calls)) == 52
        assert len(results) == 64
        assert calls == sorted(calls)
        assert [r.cell for r in results] == grid.cells()
        fixed = [r for r in results if r.cell.trajectory == "agg1" and r.cell.mode == "fixed"]
        assert len(fixed) == 4
        assert len({r.report.e for r in fixed}) == 1
        adaptive_e = [r.report.e for r in results if r.cell.mode == "adaptive"]
        assert len(set(adaptive_e)) == len(adaptive_e)
