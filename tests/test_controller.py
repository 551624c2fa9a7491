import copy
import dataclasses
import pickle

import numpy as np
import pytest

from adaptive_nmpc import controller, harness, transcription
from adaptive_nmpc.adaptation import EXP_CLAMP, AdaptConfig, update_weights
from adaptive_nmpc.controller import (
    FIXED_WEIGHTS,
    ControllerConfig,
    ControllerState,
    baseline_tick,
    nmpc_tick,
)
from adaptive_nmpc.dynamics import GRAVITY, ControlLimits
from adaptive_nmpc.trajectories import ReferenceWindow, preset
from adaptive_nmpc.transcription import PredictionTrajectory, WeightVector, build_qp, solve_qp
from helpers import SATURATED_BOX, hover_control, hover_state, in_box

N = 10


def hover_window(n, position=(1.0, -0.5, 2.0)):
    x = hover_state(position).as_vector()
    u = hover_control()
    return ReferenceWindow(np.tile(x, (n, 1)), np.tile(u, (n, 1)))


def record_builds(monkeypatch):
    """Record (prediction, problem) of every QP the controller builds."""
    calls = []

    def build(pred, *args, **kwargs):
        prob = build_qp(pred, *args, **kwargs)
        calls.append((PredictionTrajectory(pred.xs.copy(), pred.us.copy()), prob))
        return prob

    monkeypatch.setattr(controller, "build_qp", build)
    return calls


class TestFirstTick:
    """``ControllerState()`` holds no prediction: the first tick builds it from its window."""

    def test_default_state_is_the_state_before_the_first_tick(self):
        st = ControllerState()
        assert st.pred is None and st.last_command is None and st.active is None
        assert st.weights is FIXED_WEIGHTS

    def test_prediction_matches_window(self, monkeypatch):
        calls = record_builds(monkeypatch)
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N)
        nmpc_tick(ControllerState(), win.xs[0], win, cfg)
        pred, _ = calls[0]
        np.testing.assert_array_equal(pred.xs, win.xs[: N + 1])
        np.testing.assert_array_equal(pred.us, win.us[:N])

    def test_consistent_window_gives_zero_qp_data(self, monkeypatch):
        calls = record_builds(monkeypatch)
        win = hover_window(N + 1)
        cfg = ControllerConfig(horizon=N)
        nmpc_tick(ControllerState(), win.xs[0], win, cfg)
        _, prob = calls[0]
        assert np.abs(prob.lx).max() == 0.0
        assert np.abs(prob.initial_gap).max() == 0.0
        assert np.abs(prob.defects).max() < 1e-12

    def test_preserves_fixed_weights_exactly(self):
        w = WeightVector(np.arange(1.0, 11.0), np.array([1.0, 2.0, 3.0, 4.0]))
        win = hover_window(N + 2)
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.5
        _, st, diag = baseline_tick(ControllerState(weights=w), x_meas, win, ControllerConfig(horizon=N))
        assert not diag.failed and st.pred is not None
        np.testing.assert_array_equal(st.weights.q, w.q)
        np.testing.assert_array_equal(st.weights.r, w.r)

    def test_preset_first_prediction_controls_within_limits(self, monkeypatch):
        calls = record_builds(monkeypatch)
        cfg = ControllerConfig()
        for name in ("agg1", "agg2", "circle", "diamond"):
            traj = preset(name, dt=cfg.dt)
            win = traj.window(0, cfg.horizon + 1)
            nmpc_tick(ControllerState(), traj.xs[0], win, cfg)
            pred, _ = calls[0]
            calls.clear()
            assert in_box(cfg.limits, pred.us)

    def test_short_window_rejected(self):
        cfg = ControllerConfig(horizon=N)
        win = hover_window(N)
        with pytest.raises(ValueError, match="too short for horizon"):
            nmpc_tick(ControllerState(), win.xs[0], win, cfg)


class TestTick:
    def test_perfect_hover_returns_reference_control(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5))
        st = ControllerState()
        cmd, st2, diag = nmpc_tick(st, win.xs[0], win, cfg)
        assert abs(cmd[0] - GRAVITY) < 1e-6
        np.testing.assert_allclose(cmd[1:], 0.0, atol=1e-6)
        np.testing.assert_allclose(st2.weights.q, 1.0, atol=1e-12)

    def test_disabled_adaptation_equals_baseline(self):
        win = hover_window(N + 2)
        x_meas = win.xs[0].copy()
        x_meas[1] -= 0.2
        cfg_none = ControllerConfig(horizon=N, adapt=None)
        cmd_a, _, _ = nmpc_tick(ControllerState(), x_meas, win, cfg_none)
        cfg_b = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5))
        cmd_b, _, _ = baseline_tick(ControllerState(), x_meas, win, cfg_b)
        np.testing.assert_array_equal(cmd_a, cmd_b)

    def test_offset_boosts_matching_weight_dimension(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5), alternations=1)
        st = ControllerState()
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.1
        cmd, st2, diag = nmpc_tick(st, x_meas, win, cfg)
        assert st2.weights.q[0] > st2.weights.q[1]
        assert st2.weights.q[0] > st2.weights.q[2]
        # magnitude against the closed form: q = exp(sum_k v_k / (2 lam)),
        # from the prediction the first tick builds out of its window
        pred = PredictionTrajectory(win.xs[: N + 1], win.us[:N])
        prob = build_qp(pred, win, st.weights, x_meas, cfg.limits, cfg.alpha, cfg.dt)
        from adaptive_nmpc.transcription import apply_step, solve_qp
        from adaptive_nmpc.adaptation import compute_v

        sol = solve_qp(prob)
        stepped = apply_step(pred, sol, cfg.alpha, cfg.limits)
        resid = stepped.xs[:5] - win.xs[:5]
        v = compute_v(resid, prob.lx[:5], cfg.alpha).sum(axis=0)
        expected_q = np.maximum(update_weights(v, cfg.adapt), 0.0)
        np.testing.assert_allclose(st2.weights.q, expected_q, atol=1e-12)
        # closed form written out: q = exp(min(sum v / (2 lam), clamp))
        manual = np.exp(np.minimum(v / 2.0, EXP_CLAMP))
        np.testing.assert_allclose(st2.weights.q, manual, atol=1e-12)

    def test_linear_weights_clipped_at_zero(self, monkeypatch):
        # the controller projects the plain linear minimizer v_sum / (2 lam) onto q >= 0
        ns = 4
        v_sum = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, -1e-9, 7.0, -4.0, 0.5])
        per_stage = np.vstack([v_sum, np.zeros((ns - 1, 10))])
        monkeypatch.setattr(controller, "compute_v", lambda resid, lx, alpha: per_stage)
        win = hover_window(N + 2)
        adapt = AdaptConfig(lam=0.75, sub_horizon=ns, variant="linear")
        cfg = ControllerConfig(horizon=N, adapt=adapt)
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.1
        _, st2, diag = nmpc_tick(ControllerState(), x_meas, win, cfg)
        expected = np.array([max(v / 1.5, 0.0) for v in v_sum])
        np.testing.assert_array_equal(st2.weights.q, expected)
        assert not diag.failed

    def test_determinism(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=0.8, sub_horizon=4))
        x_meas = win.xs[0].copy()
        x_meas[2] += 0.3
        outs = []
        for _ in range(2):
            st = ControllerState()
            cmd, st2, diag = nmpc_tick(st, x_meas, win, cfg)
            outs.append((cmd, st2.pred.xs.copy(), st2.weights.q))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])
        np.testing.assert_array_equal(outs[0][2], outs[1][2])

    def test_commands_within_limits_under_large_error(self):
        win = hover_window(N + 2)
        lim = ControlLimits(c_min=1.0, c_max=15.0, omega_min=-2.0, omega_max=2.0)
        cfg = ControllerConfig(horizon=N, limits=lim, adapt=AdaptConfig(lam=0.1, sub_horizon=5))
        st = ControllerState()
        x_meas = win.xs[0].copy()
        x_meas[0:3] += [5.0, -4.0, 3.0]
        cmd, _, _ = nmpc_tick(st, x_meas, win, cfg)
        assert in_box(lim, cmd, tol=1e-12)

    def test_baseline_weights_bit_identical(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N)
        st = ControllerState()
        q_before = st.weights.q  # a tuple: ticks replace weights, never write into them
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.5
        for _ in range(3):
            cmd, st, diag = baseline_tick(st, x_meas, win, cfg)
        np.testing.assert_array_equal(st.weights.q, q_before)

    def test_warm_start_shift(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N)
        st = ControllerState()
        cmd, st2, _ = baseline_tick(st, win.xs[0], win, cfg)
        # hover is a fixed point: shifted prediction equals the hover window
        np.testing.assert_allclose(st2.pred.xs, win.xs[: N + 1], atol=1e-9)
        np.testing.assert_allclose(st2.pred.us, win.us[:N], atol=1e-9)

    def test_shift_steps_the_last_state(self):
        # off hover the tail state differs from the last one, so a shift that repeats it shows
        cfg = ControllerConfig()
        win = preset("agg2", dt=cfg.dt).window(40, N + 1)
        pred = PredictionTrajectory(win.xs, win.us[:N])
        shifted = controller._shift(pred, cfg.dt, cfg.model)
        tail = cfg.model.step(pred.xs[-1], pred.us[-1], cfg.dt)
        assert not np.array_equal(tail, pred.xs[-1])
        np.testing.assert_array_equal(shifted.xs, np.vstack([pred.xs[1:], tail]))
        np.testing.assert_array_equal(shifted.us, np.vstack([pred.us[1:], pred.us[-1:]]))


class TestWeightUpdate:
    """The adaptive update runs once per tick, after the final round, and never on a fixed-weight tick."""

    @staticmethod
    def count_updates(monkeypatch):
        calls = []

        def update(v_sum, adapt):
            calls.append(v_sum)
            return update_weights(v_sum, adapt)

        monkeypatch.setattr(controller, "update_weights", update)
        return calls

    def test_once_when_rounds_stop_on_conv_tol(self, monkeypatch):
        calls = self.count_updates(monkeypatch)
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5), alternations=3)
        _, _, diag = nmpc_tick(ControllerState(), win.xs[0], win, cfg)
        assert len(diag.rounds) == 1  # hover is a fixed point: the first step is below CONV_TOL
        assert len(calls) == 1

    def test_once_after_all_rounds(self, monkeypatch):
        calls = self.count_updates(monkeypatch)
        monkeypatch.setattr(controller, "CONV_TOL", 0.0)
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5), alternations=3)
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.1
        st = ControllerState()
        for _ in range(2):
            _, st, diag = nmpc_tick(st, x_meas, win, cfg)
            assert len(diag.rounds) == cfg.alternations
        assert len(calls) == 2

    def test_never_on_a_fixed_weight_tick(self, monkeypatch):
        calls = self.count_updates(monkeypatch)
        win = hover_window(N + 2)
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.1
        adaptive = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5))
        fixed = ControllerConfig(horizon=N)
        baseline_tick(ControllerState(), x_meas, win, adaptive)
        nmpc_tick(ControllerState(), x_meas, win, fixed)
        assert calls == []


def record_solves(monkeypatch):
    """Record (problem, start set, solution) of every QP the controller solves."""
    calls = []

    def solve(prob, *args, active=None, **kwargs):
        sol = solve_qp(prob, *args, active=active, **kwargs)
        calls.append((prob, active, sol))
        return sol

    monkeypatch.setattr(controller, "solve_qp", solve)
    return calls


class TestWarmStart:
    def test_tight_box_start_set_saves_sweeps(self, monkeypatch):
        calls = record_solves(monkeypatch)
        log = harness.run_closed_loop(preset("agg1"), ControllerConfig(limits=SATURATED_BOX))
        assert log.failures == 0
        warm = cold = 0
        for prob, start, sol in calls:
            ref = solve_qp(prob)
            warm += sol.working_sets
            cold += ref.working_sets
            np.testing.assert_array_equal(sol.dx, ref.dx)
            np.testing.assert_array_equal(sol.du, ref.du)
            np.testing.assert_array_equal(sol.active, ref.active)
        assert any(np.any(sol.active != 0) for _, _, sol in calls)
        assert warm < cold

    def test_set_carried_between_rounds_and_shifted_between_ticks(self, monkeypatch):
        calls = record_solves(monkeypatch)
        cfg = ControllerConfig(limits=SATURATED_BOX)
        traj = preset("agg1", dt=cfg.dt)
        st = ControllerState()
        x = traj.xs[0]
        for i in range(5):
            cmd, st, diag = nmpc_tick(st, x, traj.window(i, cfg.horizon + 1), cfg)
            x = cfg.model.step(x, cmd, cfg.dt)
            last = calls[-1][2].active
            np.testing.assert_array_equal(st.active, np.vstack([last[1:], last[-1:]]))
            # the tick's rounds are the solutions of its QPs, in order
            assert all(r is sol for r, (_, _, sol) in zip(diag.rounds, calls[-len(diag.rounds):], strict=True))
        assert calls[0][1] is None
        for (_, _, prev), (_, start, _) in zip(calls, calls[1:]):
            assert start is prev.active or np.array_equal(start, np.vstack([prev.active[1:], prev.active[-1:]]))

    @pytest.mark.parametrize("name", ["agg1", "agg2", "circle", "diamond"])
    def test_default_box_takes_one_sweep_per_qp(self, monkeypatch, name):
        rounds = []

        def tick(*args):
            out = nmpc_tick(*args)
            rounds.extend(out[2].rounds)
            return out

        monkeypatch.setattr(harness, "nmpc_tick", tick)
        cfg = ControllerConfig(adapt=AdaptConfig(lam=1.0, sub_horizon=8))
        harness.run_closed_loop(preset(name, dt=cfg.dt), cfg)
        assert rounds and all(r.working_sets == 1 for r in rounds)


class TestFailurePolicy:
    class BrokenModel:
        def step(self, x, u, dt):
            return np.asarray(x, dtype=float).copy()

        def discretize(self, x, u, dt):
            batch = np.asarray(x).shape[:-1]
            return self.step(x, u, dt), np.full(batch + (10, 10), np.nan), np.full(batch + (10, 4), np.nan)

        def project(self, x):
            return np.asarray(x, dtype=float).copy()

    def test_qp_failure_holds_previous_command(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, model=self.BrokenModel())
        st = ControllerState()
        st.last_command = np.array([12.0, 0.1, 0.2, 0.3])
        cmd, st2, diag = nmpc_tick(st, win.xs[0], win, cfg)
        assert diag.failed
        np.testing.assert_array_equal(cmd, [12.0, 0.1, 0.2, 0.3])
        assert st2.pred is None  # rebuilt from the reference window next tick
        assert st2.active is None  # and its QP starts with every control free

    def test_qp_failure_without_history_falls_back_to_reference(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, model=self.BrokenModel())
        st = ControllerState()
        cmd, _, diag = nmpc_tick(st, win.xs[0], win, cfg)
        assert diag.failed
        np.testing.assert_array_equal(cmd, win.us[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_holds_clamped_command(self, bad):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N, adapt=AdaptConfig(lam=1.0, sub_horizon=5))
        st = ControllerState()
        st.last_command = np.array([30.0, 0.1, -0.2, 6.0])  # outside the default box
        x_meas = win.xs[0].copy()
        x_meas[0] = bad
        cmd, st2, diag = nmpc_tick(st, x_meas, win, cfg)
        assert diag.failed
        assert "non-finite QP data in gap" in diag.message
        np.testing.assert_array_equal(cmd, cfg.limits.clamp(st.last_command))
        np.testing.assert_array_equal(cmd, [25.0, 0.1, -0.2, 5.0])
        assert np.all(np.isfinite(cmd))
        assert np.all(np.isfinite(st2.weights.q))
        assert st2.pred is None

    def test_first_tick_failure_holds_clamped_reference(self, monkeypatch):
        # one active-set iteration is too few under the saturated box, so the
        # very first QP fails and there is no previous command to hold
        monkeypatch.setattr(transcription, "QP_MAX_ITER", 1)
        traj = preset("agg1")
        cfg = ControllerConfig(limits=SATURATED_BOX)
        refs = traj.window(0, cfg.horizon + 1)
        cmd, st2, diag = nmpc_tick(ControllerState(), traj.xs[0], refs, cfg)
        assert diag.failed
        np.testing.assert_array_equal(cmd, SATURATED_BOX.clamp(refs.us[0]))
        assert np.isnan(diag.kkt_residual)  # the held command has no certificate
        assert st2.pred is None

        log = harness.run_closed_loop(traj, cfg)
        assert log.failures == len(log)
        np.testing.assert_array_equal(log.u_applied[0], cmd)
        assert np.isnan(log.kkt).all()
        for name in ("x_true", "x_meas", "u_applied", "q_snapshot"):
            assert np.isfinite(getattr(log, name)).all(), name

    def test_recovery_rebuilds_prediction(self):
        win = hover_window(N + 2)
        cfg = ControllerConfig(horizon=N)
        st = ControllerState()
        cmd, st2, diag = nmpc_tick(st, win.xs[0], win, cfg)
        assert not diag.failed
        assert st2.pred is not None


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(horizon=1)
        with pytest.raises(ValueError):
            ControllerConfig(dt=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(alternations=0)
        with pytest.raises(ValueError):
            ControllerConfig(horizon=5, adapt=AdaptConfig(sub_horizon=6))

    def test_fixed_weights_is_not_a_setting(self):
        # the start weights are the state's: ControllerState().weights is FIXED_WEIGHTS
        assert "fixed_weights" not in {f.name for f in dataclasses.fields(ControllerConfig)}
        with pytest.raises(TypeError):
            ControllerConfig(fixed_weights=FIXED_WEIGHTS)

    def test_qp_tol_is_not_a_setting(self):
        assert "qp_tol" not in {f.name for f in dataclasses.fields(ControllerConfig)}
        assert ControllerConfig().qp_tol == transcription.QP_TOL
        with pytest.raises(TypeError):
            ControllerConfig(qp_tol=1e-3)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            ControllerConfig(alpha=alpha)
        assert ControllerConfig(alpha=0.5).alpha == 0.5


class TestConfigValue:
    @pytest.mark.parametrize("adapt", [None, AdaptConfig(lam=0.1, sub_horizon=5, variant="linear")])
    def test_equal_after_pickle_and_deepcopy(self, adapt):
        cfg = ControllerConfig(horizon=N, adapt=adapt, limits=SATURATED_BOX)
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert twin == cfg and hash(twin) == hash(cfg)
        assert ControllerConfig(adapt=adapt) == ControllerConfig(adapt=adapt)
        assert dataclasses.replace(cfg, limits=ControlLimits()) != cfg
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon = 5
