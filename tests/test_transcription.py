import numpy as np
import pytest

from adaptive_nmpc.dynamics import (
    QUADROTOR,
    ControlLimits,
    LinearizedStage,
    hover_control,
    hover_state,
)
from adaptive_nmpc.trajectories import ReferenceWindow, preset
from adaptive_nmpc.transcription import (
    PredictionTrajectory,
    QpSolveError,
    ShootingProblem,
    WeightVector,
    apply_step,
    build_qp,
    default_weights,
    _kkt_residual,
    solve_qp,
)
from helpers import (
    LinearModel,
    dense_equality_qp,
    enumerated_box_qp,
    kkt_residual_loops,
    qp_objective,
    random_shooting_data,
)

DT = 0.05
WIDE = ControlLimits(c_min=0.0, c_max=1e9, omega_min=-1e9, omega_max=1e9)


def hover_window(n, position=(0.0, 0.0, 1.0)):
    x = hover_state(position).as_vector()
    u = hover_control().as_vector()
    return ReferenceWindow(np.tile(x, (n, 1)), np.tile(u, (n, 1)))


def shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, limits=None, u_pred=None, alpha=1.0):
    N = B.shape[0]
    stages = [LinearizedStage(A[k], B[k], defects[k]) for k in range(N)]
    return ShootingProblem(
        stages=stages,
        lx=lx,
        lu=lu,
        qs=qs,
        rs=rs,
        initial_gap=gap,
        u_pred=u_pred if u_pred is not None else np.zeros((N, B.shape[2])),
        limits=limits,
        alpha=alpha,
    )


class TestWeightVector:
    def test_validate(self):
        WeightVector(np.ones(10), np.ones(4)).validate()
        with pytest.raises(ValueError):
            WeightVector(-np.ones(10), np.ones(4)).validate()
        with pytest.raises(ValueError):
            WeightVector(np.ones(10), np.zeros(4)).validate()


class TestBuildQp:
    def test_consistent_hover_gives_zero_data(self):
        N = 5
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        prob = build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)
        assert np.abs(prob.lx).max() == 0.0
        assert np.abs(prob.lu).max() == 0.0
        assert np.abs(prob.initial_gap).max() == 0.0
        for stage in prob.stages:
            np.testing.assert_allclose(stage.defect, 0.0, atol=1e-12)

    def test_displaced_measurement_sets_gap(self):
        N = 4
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        x_meas = win.xs[0].copy()
        x_meas[0] += 0.1
        prob = build_qp(pred, win, default_weights(), x_meas, WIDE, 1.0, DT)
        expected = np.zeros(10)
        expected[0] = 0.1
        np.testing.assert_array_equal(prob.initial_gap, expected)

    def test_defects_match_independent_recomputation(self):
        from adaptive_nmpc.dynamics import Control, State, integrate_step

        traj = preset("agg1", dt=DT)
        N = 6
        win = traj.window(10, N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        prob = build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)
        for k, stage in enumerate(prob.stages):
            nxt = integrate_step(State.from_vector(pred.xs[k]), Control.from_vector(pred.us[k]), DT)
            np.testing.assert_array_equal(stage.defect, nxt.as_vector() - pred.xs[k + 1])

    def test_short_window_rejected(self):
        N = 5
        win = hover_window(N)  # one point short
        pred = PredictionTrajectory(hover_window(N + 1).xs, hover_window(N + 1).us[:N])
        with pytest.raises(ValueError):
            build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)

    def test_weights_apply_to_every_stage(self):
        N = 3
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs + 0.1, win.us[:N] + 0.2)
        w = WeightVector(np.arange(1.0, 11.0), np.arange(11.0, 15.0))
        prob = build_qp(pred, win, w, win.xs[0], WIDE, 1.0, DT)
        assert prob.qs.shape == (N + 1, 10)
        assert prob.rs.shape == (N, 4)
        for row in prob.qs:
            np.testing.assert_array_equal(row, w.q)
        for row in prob.rs:
            np.testing.assert_array_equal(row, w.r)
        with pytest.raises(ValueError):
            build_qp(pred, win, WeightVector(-w.q, w.r), win.xs[0], WIDE, 1.0, DT)


class TestSolveQp:
    def test_zero_instance_returns_zero(self):
        rng = np.random.default_rng(0)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=3)
        prob = shooting_from_arrays(A, B, 0 * defects, qs, rs, 0 * lx, 0 * lu, 0 * gap)
        sol = solve_qp(prob)
        assert sol.step_norm == 0.0
        assert sol.kkt_residual <= 1e-6

    def test_matches_dense_kkt_on_equality_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            N = int(rng.integers(1, 6))
            A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
            prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap)
            sol = solve_qp(prob)
            dx_o, du_o = dense_equality_qp(A, B, defects, qs, rs, qs * lx, rs * lu, gap)
            assert np.abs(sol.dx - dx_o).max() < 1e-8
            assert np.abs(sol.du - du_o).max() < 1e-8
            assert sol.kkt_residual <= 1e-6

    def test_single_stage_active_bound_matches_hand_kkt(self):
        # scalar toy in dims (x[0], u[0]): minimize
        #   q (dx1 + l1) dx1 + r (du + lu) du + q (dx2 + l2) dx2
        # with dx1 = gap, dx2 = a dx1 + b du + d; the unconstrained minimizer
        # follows from the first-order condition; an upper bound below it
        # must come out active.
        a, b, d, gap = 1.2, 0.8, 0.3, 0.5
        qv, rv, l1, l2, lu, alpha = 2.0, 1.0, 0.4, -0.6, 0.1, 1.0
        du_free = -(alpha * rv * lu + 2 * qv * b * (a * gap + d) + alpha * qv * l2 * b) / (
            2 * rv + 2 * qv * b * b
        )

        A = np.zeros((1, 10, 10))
        A[0, 0, 0] = a
        B = np.zeros((1, 10, 4))
        B[0, 0, 0] = b
        defects = np.zeros((1, 10))
        defects[0, 0] = d
        qs = np.full((2, 10), 1e-6)
        qs[:, 0] = qv
        rs = np.full((1, 4), 1e-3)
        rs[0, 0] = rv
        lx = np.zeros((2, 10))
        lx[0, 0], lx[1, 0] = l1, l2
        lu_arr = np.zeros((1, 4))
        lu_arr[0, 0] = lu
        gap_vec = np.zeros(10)
        gap_vec[0] = gap
        u_pred = np.zeros((1, 4))
        u_pred[0, 0] = 2.0

        hi_du = du_free - 0.25  # upper bound below the free optimum: active
        limits = ControlLimits(c_min=0.01, c_max=2.0 + hi_du, omega_min=-100, omega_max=100)
        prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu_arr, gap_vec, limits, u_pred, alpha)
        sol = solve_qp(prob)
        assert abs(sol.du[0, 0] - hi_du) < 1e-8
        assert sol.kkt_residual <= 1e-6

        wide = ControlLimits(c_min=0.01, c_max=100.0, omega_min=-100, omega_max=100)
        prob2 = shooting_from_arrays(A, B, defects, qs, rs, lx, lu_arr, gap_vec, wide, u_pred, alpha)
        sol2 = solve_qp(prob2)
        assert abs(sol2.du[0, 0] - du_free) < 1e-8

    def test_box_and_equality_satisfaction(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            N = int(rng.integers(1, 6))
            A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
            u_pred = rng.uniform(3.0, 15.0, (N, 4))
            limits = ControlLimits(c_min=1.0, c_max=16.0, omega_min=-1.0, omega_max=1.0)
            prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, limits, u_pred)
            sol = solve_qp(prob)
            assert sol.kkt_residual <= 1e-6
            lo = limits.lower - u_pred
            hi = limits.upper - u_pred
            assert np.all(sol.du >= lo - 1e-9) and np.all(sol.du <= hi + 1e-9)
            for k in range(N):
                dyn = A[k] @ sol.dx[k] + B[k] @ sol.du[k] + defects[k] - sol.dx[k + 1]
                assert np.abs(dyn).max() < 1e-8

    def test_descent_property_when_origin_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            N = int(rng.integers(1, 5))
            A, B, defects, qs, rs, lx, lu, _ = random_shooting_data(rng, N)
            prob = shooting_from_arrays(A, B, 0 * defects, qs, rs, lx, lu, np.zeros(10))
            sol = solve_qp(prob)
            assert qp_objective(prob, sol.dx, sol.du) <= qp_objective(prob, 0 * sol.dx, 0 * sol.du) + 1e-12

    def test_huge_adapted_weights_still_certify(self):
        rng = np.random.default_rng(4)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=4)
        qs = qs * np.exp(30.0)  # clamped exponential weights
        prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap)
        sol = solve_qp(prob)
        assert sol.kkt_residual <= 1e-6

    def test_invalid_control_weights_raise(self):
        rng = np.random.default_rng(5)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=2)
        prob = shooting_from_arrays(A, B, defects, qs, 0 * rs, lx, lu, gap)
        with pytest.raises(QpSolveError):
            solve_qp(prob)


def box_instance(rng, N):
    """Random stage QP whose box excludes the unconstrained minimizer, so bounds bind.

    Returns the problem and the oracle's arguments (weights unnormalized,
    box in step coordinates).
    """
    A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
    _, du_free = dense_equality_qp(A, B, defects, qs, rs, qs * lx, rs * lu, gap)
    width = rng.uniform(0.2, 1.0, 4)
    limits = ControlLimits(c_min=1.0, c_max=1.0 + width[0], omega_min=-0.5 * width[1:], omega_max=0.5 * width[1:])
    # each box sits within one width of the free minimizer; the first one excludes it
    offset = rng.uniform(-1.0, 1.0, (N, 4)) * width
    offset[0, 0] = 1.5 * width[0]
    u_pred = limits.lower - (du_free + offset - 0.5 * width)
    prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, limits, u_pred)
    oracle_args = (A, B, defects, qs, rs, qs * lx, rs * lu, gap, limits.lower - u_pred, limits.upper - u_pred)
    return prob, oracle_args


class TestBoxQpOracle:
    @pytest.mark.parametrize("N, count", [(1, 20), (2, 4)])
    def test_matches_enumeration_from_every_start(self, N, count):
        rng = np.random.default_rng(40 + N)
        for _ in range(count):
            prob, oracle_args = box_instance(rng, N)
            dx_o, du_o, active_o = enumerated_box_qp(*oracle_args)
            assert np.any(active_o != 0)
            wrong = rng.integers(-1, 2, active_o.shape).astype(np.int8)
            if np.array_equal(wrong, active_o):
                wrong[0, 0] = 0 if active_o[0, 0] else 1
            starts = [None, active_o, wrong, np.full(active_o.shape, -1), np.full(active_o.shape, 1)]
            for start in starts:
                sol = solve_qp(prob, active=start)
                assert np.abs(sol.dx - dx_o).max() < 1e-9
                assert np.abs(sol.du - du_o).max() < 1e-9
                np.testing.assert_array_equal(sol.active, active_o)
                assert sol.kkt_residual <= 1e-6
            assert solve_qp(prob, active=active_o).sweeps == 1

    def test_start_set_ignored_without_limits(self):
        rng = np.random.default_rng(7)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=3)
        prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap)
        cold = solve_qp(prob)
        warm = solve_qp(prob, active=np.ones((3, 4), dtype=np.int8))
        np.testing.assert_array_equal(warm.du, cold.du)
        np.testing.assert_array_equal(warm.active, np.zeros((3, 4)))
        assert warm.sweeps == cold.sweeps == 1

    def test_malformed_start_set_rejected(self):
        prob, _ = box_instance(np.random.default_rng(8), N=2)
        with pytest.raises(ValueError):
            solve_qp(prob, active=np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            solve_qp(prob, active=np.full((2, 4), 2))


class TestKktResidual:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            N = int(rng.integers(1, 6))
            A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
            dx = rng.standard_normal((N + 1, 10))
            lam = rng.standard_normal((N + 1, 10))
            lo = -rng.uniform(0.1, 1.0, (N, 4))
            hi = rng.uniform(0.1, 1.0, (N, 4))
            # each control exactly at lo, exactly at hi, strictly inside, or outside the box
            where = rng.integers(0, 4, (N, 4))
            du = np.select(
                [where == 0, where == 1, where == 2],
                [lo, hi, rng.uniform(lo, hi)],
                hi + rng.uniform(0.0, 0.5, (N, 4)),
            )
            args = (A, B, defects, qs, rs, qs * lx, rs * lu, gap, lo, hi, dx, du, lam)
            ref = kkt_residual_loops(*args)
            assert abs(_kkt_residual(*args) - ref) <= 1e-13 * max(1.0, ref)

    def test_multiplier_sign_at_each_bound(self):
        # one stage whose only nonzero data is the control gradient: a control
        # at its upper bound may carry a negative gradient, at its lower bound
        # a positive one; the wrong sign at an upper bound shows as the residual
        du = np.array([[1.0, -1.0, 0.0, 1.0]])
        grad_u = np.array([[-3.0, 3.0, 0.0, 0.5]])
        rs = np.ones((1, 4))
        x0 = np.zeros((2, 10))
        args = (np.zeros((1, 10, 10)), np.zeros((1, 10, 4)), np.zeros((1, 10)), np.ones((2, 10)), rs,
                np.zeros((2, 10)), grad_u - 2.0 * rs * du, np.zeros(10), -rs, rs, x0, du, x0)
        assert _kkt_residual(*args) == kkt_residual_loops(*args) == 0.5


class TestApplyStep:
    def test_zero_alpha_keeps_prediction(self):
        N = 4
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        sol = solve_qp(
            build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)
        )
        out = apply_step(pred, sol, 0.0, WIDE)
        np.testing.assert_allclose(out.xs, pred.xs, atol=1e-15)
        np.testing.assert_allclose(out.us, pred.us, atol=1e-15)

    def test_full_step_reaches_reference_on_linear_components(self):
        N = 3
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        pred.xs[:, 0] += 0.5  # position offset only (linear coordinate)
        from adaptive_nmpc.transcription import QpSolution

        sol = QpSolution(dx=win.xs[: N + 1] - pred.xs, du=np.zeros((N, 4)), kkt_residual=0.0)
        out = apply_step(pred, sol, 1.0, WIDE)
        np.testing.assert_allclose(out.xs[:, 0:6], win.xs[: N + 1, 0:6], atol=1e-15)

    def test_controls_clamped(self):
        N = 2
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        from adaptive_nmpc.transcription import QpSolution

        sol = QpSolution(dx=np.zeros((N + 1, 10)), du=np.full((N, 4), 100.0), kkt_residual=0.0)
        lim = ControlLimits(c_min=1.0, c_max=20.0, omega_min=-3.0, omega_max=3.0)
        out = apply_step(pred, sol, 1.0, lim)
        assert np.all(out.us <= lim.upper + 1e-12)

    def test_repeated_steps_converge_on_lti_problem(self):
        rng = np.random.default_rng(6)
        n, m, N = 10, 4, 6
        model = LinearModel(np.eye(n) + 0.05 * rng.standard_normal((n, n)), 0.3 * rng.standard_normal((n, m)))
        ref_xs = 0.5 * rng.standard_normal((N + 1, n))
        ref_us = 0.2 * rng.standard_normal((N, m))
        win = ReferenceWindow(ref_xs, np.vstack([ref_us, ref_us[-1:]]))
        pred = PredictionTrajectory(ref_xs.copy(), ref_us.copy())
        x_meas = rng.standard_normal(n)
        w = WeightVector(rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, m))

        # exact tracking optimum from the dense oracle on the residual problem
        A = np.broadcast_to(model.A, (N, n, n))
        B = np.broadcast_to(model.B, (N, n, m))
        defects = np.stack([model.step(ref_xs[k], ref_us[k], DT) - ref_xs[k + 1] for k in range(N)])
        qs = np.tile(w.q, (N + 1, 1))
        rs = np.tile(w.r, (N, 1))
        dx_o, du_o = dense_equality_qp(A, B, defects, qs, rs, 1.0 * qs * 0, rs * 0, x_meas - ref_xs[0])
        x_opt = ref_xs + dx_o
        u_opt = ref_us + du_o

        norms = []
        for _ in range(40):
            prob = build_qp(pred, win, w, x_meas, None, 1.0, DT, model=model)
            sol = solve_qp(prob)
            norms.append(sol.step_norm)
            pred = apply_step(pred, sol, 1.0, None, model=model)
            if sol.step_norm < 1e-12:
                break
        assert norms[-1] < 1e-6
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        np.testing.assert_allclose(pred.xs, x_opt, atol=1e-6)
        np.testing.assert_allclose(pred.us, u_opt, atol=1e-6)
