import copy
import hashlib
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_nmpc import controller, harness, transcription
from adaptive_nmpc.adaptation import LINEAR_Q_MAX, AdaptConfig
from adaptive_nmpc.controller import ControllerConfig
from adaptive_nmpc.dynamics import QUADROTOR, ControlLimits
from adaptive_nmpc.harness import NoiseConfig
from adaptive_nmpc.trajectories import ReferenceWindow, preset
from adaptive_nmpc.transcription import (
    PredictionTrajectory,
    QpSolveError,
    ShootingProblem,
    WeightVector,
    apply_step,
    build_qp,
    _kkt_residual,
    solve_qp,
)
from helpers import (
    SATURATED_BOX,
    LinearModel,
    default_weights,
    dense_equality_qp,
    enumerated_box_qp,
    held_set_qp,
    hover_control,
    hover_state,
    kkt_residual_loops,
    qp_objective,
    random_shooting_data,
)

DT = 0.05
WIDE = ControlLimits(c_min=0.0, c_max=1e9, omega_min=-1e9, omega_max=1e9)


def hover_window(n, position=(0.0, 0.0, 1.0)):
    x = hover_state(position).as_vector()
    u = hover_control()
    return ReferenceWindow(np.tile(x, (n, 1)), np.tile(u, (n, 1)))


def shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, limits=None, u_pred=None, alpha=1.0):
    N = B.shape[0]
    return ShootingProblem(
        A=A,
        B=B,
        defects=defects,
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
    def test_rejected_when_built(self):
        WeightVector(np.zeros(10), np.full(4, 1e-12))
        for q, r in (
            (np.full(10, np.nan), np.ones(4)),
            (np.full(10, np.inf), np.ones(4)),
            (np.ones(10), np.full(4, np.inf)),
            (-np.ones(10), np.ones(4)),
            (np.ones(10), np.zeros(4)),
            (np.ones(10), -np.ones(4)),
        ):
            with pytest.raises(ValueError):
                WeightVector(q, r)

    def test_value_survives_pickle_and_deepcopy(self):
        w = WeightVector(np.arange(1.0, 11.0), [0.5, 1.0, 2.0, 4.0])
        assert w.q == tuple(np.arange(1.0, 11.0)) and w.r == (0.5, 1.0, 2.0, 4.0)
        for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
            assert twin == w and hash(twin) == hash(w)
        assert WeightVector(np.ones(10), np.ones(4)) != WeightVector(np.ones(10), np.full(4, 2.0))


class TestBuildQp:
    def test_consistent_hover_gives_zero_data(self):
        N = 5
        win = hover_window(N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        prob = build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)
        assert np.abs(prob.lx).max() == 0.0
        assert np.abs(prob.lu).max() == 0.0
        assert np.abs(prob.initial_gap).max() == 0.0
        np.testing.assert_allclose(prob.defects, 0.0, atol=1e-12)

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
        traj = preset("agg1", dt=DT)
        N = 6
        win = traj.window(10, N + 1)
        pred = PredictionTrajectory(win.xs.copy(), win.us[:N].copy())
        prob = build_qp(pred, win, default_weights(), win.xs[0], WIDE, 1.0, DT)
        for k in range(N):
            nxt = QUADROTOR.step(pred.xs[k], pred.us[k], DT)
            np.testing.assert_array_equal(prob.defects[k], nxt - pred.xs[k + 1])

    def test_short_window_rejected(self):
        N = 5
        pred = PredictionTrajectory(hover_window(N + 1).xs, hover_window(N + 1).us[:N])
        # one point short, and a single point, which would otherwise broadcast against every stage
        for win in (hover_window(N), hover_window(1)):
            with pytest.raises(ValueError, match="too short for horizon 5"):
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
        with pytest.raises(ValueError):  # negative weights never reach the QP
            build_qp(pred, win, WeightVector(np.negative(w.q), w.r), win.xs[0], WIDE, 1.0, DT)


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

    def test_certifies_against_qp_tol(self, monkeypatch):
        rng = np.random.default_rng(6)
        prob = shooting_from_arrays(*random_shooting_data(rng, N=4))
        res = solve_qp(prob).kkt_residual
        assert 0.0 < res <= 1e-6
        monkeypatch.setattr(transcription, "QP_TOL", res)
        assert solve_qp(prob).kkt_residual == res
        monkeypatch.setattr(transcription, "QP_TOL", res / 2)
        with pytest.raises(QpSolveError, match=f"exceeds tolerance {res / 2:.1e}"):
            solve_qp(prob)

    def test_non_convergence_names_largest_input(self, monkeypatch):
        # bounds bind, so one working set is too few; the 1e4 state weight is the largest input
        prob, _ = box_instance(np.random.default_rng(8), N=3)
        qs = prob.qs.copy()
        qs[1, 0] = 1e4
        monkeypatch.setattr(transcription, "QP_MAX_ITER", 1)
        message = r"active-set loop did not converge within 1 iterations; largest QP input \|q\| = 1\.0e\+04"
        with pytest.raises(QpSolveError, match=f"^{message}$"):
            solve_qp(replace(prob, qs=qs))

    def test_invalid_control_weights_raise(self):
        rng = np.random.default_rng(5)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=2)
        prob = shooting_from_arrays(A, B, defects, qs, 0 * rs, lx, lu, gap)
        with pytest.raises(QpSolveError):
            solve_qp(prob)


def box_instance(rng, N, tied=False, alpha=1.0):
    """Random stage QP whose box excludes the unconstrained minimizer, so bounds bind.

    With ``tied``, controls 1 and 2 act through the same column of ``B`` as
    control 0, a degenerate instance. ``alpha`` scales both linear terms.
    Returns the problem and the oracle's arguments (weights unnormalized,
    box in step coordinates).
    """
    A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
    if tied:
        B[:, :, 1] = B[:, :, 2] = B[:, :, 0]
    qlin, rlin = alpha * qs * lx, alpha * rs * lu
    _, du_free = dense_equality_qp(A, B, defects, qs, rs, qlin, rlin, gap)
    width = rng.uniform(0.2, 1.0, 4)
    limits = ControlLimits(c_min=1.0, c_max=1.0 + width[0], omega_min=-0.5 * width[1:], omega_max=0.5 * width[1:])
    # each box sits within one width of the free minimizer; the first one excludes it
    offset = rng.uniform(-1.0, 1.0, (N, 4)) * width
    offset[0, 0] = 1.5 * width[0]
    u_pred = limits.lower - (du_free + offset - 0.5 * width)
    prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, limits, u_pred, alpha)
    oracle_args = (A, B, defects, qs, rs, qlin, rlin, gap, limits.lower - u_pred, limits.upper - u_pred)
    return prob, oracle_args


def blas_digest():
    """sha256 over the solutions of seeded saturated QPs: ``dx``, ``du`` and the residual, bit for bit.

    The QPs are horizon-19 ``agg2`` windows under the ``saturated`` box, from
    predictions shifted off the reference, a displaced measurement and
    log-uniform state weights in [0.01, 10]. The reference exceeds the box,
    so bounds bind and the active-set loop needs several working sets.
    """
    rng = np.random.default_rng(16)
    traj = preset("agg2", dt=DT)
    N = 19
    digest = hashlib.sha256()
    for _ in range(12):
        win = traj.window(int(rng.integers(0, len(traj) - N - 1)), N + 1)
        xs = win.xs.copy()
        xs[:, :6] += 0.05 * rng.standard_normal((N + 1, 6))
        pred = PredictionTrajectory(xs, win.us[:N] + 0.1 * rng.standard_normal((N, 4)))
        x_meas = win.xs[0].copy()
        x_meas[:6] += 0.2 * rng.standard_normal(6)
        w = WeightVector(10.0 ** rng.uniform(-2.0, 1.0, 10), rng.uniform(0.5, 2.0, 4))
        sol = solve_qp(build_qp(pred, win, w, x_meas, SATURATED_BOX, 1.0, DT))
        digest.update(sol.dx.tobytes() + sol.du.tobytes() + np.float64(sol.kkt_residual).tobytes())
    return digest.hexdigest()


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
            assert solve_qp(prob, active=active_o).working_sets == 1

    @pytest.mark.parametrize("N, seed", [(1, 2086), (2, 1592)])
    def test_cycling_falls_back_to_single_release(self, N, seed, monkeypatch):
        # three controls through one column of B: releasing every wrong-sign
        # multiplier at once trades them against each other until a working
        # set comes back; from then on the loop releases one control at a time
        prob, oracle_args = box_instance(np.random.default_rng(seed), N, tied=True)
        dx_o, du_o, _ = enumerated_box_qp(*oracle_args)
        solves = []
        working_set = transcription._solve_working_set

        def record(*args):
            clamp_val, clamped = args[-2:]
            solves.append((clamped.tobytes() + clamp_val.tobytes(), int(clamped.sum())))
            return working_set(*args)

        monkeypatch.setattr(transcription, "_solve_working_set", record)
        for start in (None, np.full((N, 4), -1), np.full((N, 4), 1)):
            solves.clear()
            sol = solve_qp(prob, active=start)
            sets, held = zip(*solves)
            again = next(j for j in range(len(sets)) if sets[j] in sets[:j])
            # a step either adds violated bounds or releases; releases show as drops in the held count
            drops = [(j, held[j] - held[j + 1]) for j in range(len(held) - 1) if held[j + 1] < held[j]]
            assert max(d for j, d in drops if j < again) >= 2
            after = [d for j, d in drops if j >= again]
            assert after and all(d == 1 for d in after)
            assert np.abs(sol.dx - dx_o).max() < 1e-9
            assert np.abs(sol.du - du_o).max() < 1e-9
            assert sol.kkt_residual <= 1e-6

    def test_alpha_scales_both_linear_terms(self):
        # the step fraction alpha multiplies the state and the control reference terms alike
        rng = np.random.default_rng(50)
        alpha = 0.5
        for _ in range(10):
            A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, 3)
            sol = solve_qp(shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap, alpha=alpha))
            dx_o, du_o = dense_equality_qp(A, B, defects, qs, rs, alpha * qs * lx, alpha * rs * lu, gap)
            assert np.abs(sol.dx - dx_o).max() < 1e-8
            assert np.abs(sol.du - du_o).max() < 1e-8
        for _ in range(10):
            prob, oracle_args = box_instance(rng, 1, alpha=alpha)
            dx_o, du_o, active_o = enumerated_box_qp(*oracle_args)
            sol = solve_qp(prob)
            assert np.abs(sol.dx - dx_o).max() < 1e-9
            assert np.abs(sol.du - du_o).max() < 1e-9
            np.testing.assert_array_equal(sol.active, active_o)
            assert sol.kkt_residual <= 1e-6

    def test_capped_state_weights_match_held_set_oracle(self, monkeypatch):
        # linear weights at lambda 0.01 reach the cap LINEAR_Q_MAX after a noise kick, which spreads
        # the condensed Hessian's spectrum; each QP solved at the cap must still give the dense KKT
        # solution of its final working set, with right-sign multipliers and free controls in the box
        calls = []

        def record(prob, *args, **kwargs):
            sol = solve_qp(prob, *args, **kwargs)
            calls.append((prob, sol))
            return sol

        monkeypatch.setattr(controller, "solve_qp", record)
        cfg = ControllerConfig(limits=SATURATED_BOX, adapt=AdaptConfig(lam=0.01, variant="linear"))
        assert harness.run_closed_loop(preset("agg2", dt=cfg.dt), cfg, NoiseConfig(5.0)).failures == 0
        capped = [(prob, sol) for prob, sol in calls if prob.qs.max() == LINEAR_Q_MAX]
        assert capped and max(sol.working_sets for _, sol in capped) > 1
        for prob, sol in capped:
            assert sol.kkt_residual <= 1e-6
            scale = max(1.0, float(prob.qs.max()), float(prob.rs.max()))
            qs, rs = np.maximum(prob.qs, transcription.Q_MIN) / scale, prob.rs / scale
            lo, hi = SATURATED_BOX.lower - prob.u_pred, SATURATED_BOX.upper - prob.u_pred
            dx_o, du_o, mult = held_set_qp(
                prob.A, prob.B, prob.defects, qs, rs, qs * prob.lx, rs * prob.lu, prob.initial_gap, lo, hi, sol.active
            )
            assert np.abs(sol.dx - dx_o).max() < 1e-8
            assert np.abs(sol.du - du_o).max() < 1e-8
            assert np.all(mult * sol.active >= -1e-8)
            free = sol.active == 0
            assert np.all(sol.du[free] >= lo[free] - 1e-9) and np.all(sol.du[free] <= hi[free] + 1e-9)

    def test_results_independent_of_blas_threads(self):
        # the same QPs solved under one and two BLAS threads give the same bits
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests), str(tests.parent / "src")])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run(
                [sys.executable, "-c", "import test_transcription as t; print(t.blas_digest())"],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_start_set_ignored_without_limits(self):
        rng = np.random.default_rng(7)
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N=3)
        prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap)
        cold = solve_qp(prob)
        warm = solve_qp(prob, active=np.ones((3, 4), dtype=np.int8))
        np.testing.assert_array_equal(warm.du, cold.du)
        np.testing.assert_array_equal(warm.active, np.zeros((3, 4)))
        assert warm.working_sets == cold.working_sets == 1

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
