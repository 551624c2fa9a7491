"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The sweep-based criteria run the same grids the CLI
``table`` command uses, at desk scale, parallelized over the worker cap.
"""

import time

import numpy as np
import pytest

from adaptive_nmpc import controller
from adaptive_nmpc.adaptation import AdaptConfig, update_weights
from adaptive_nmpc.controller import ControllerConfig, ControllerState, baseline_tick
from adaptive_nmpc.dynamics import QUADROTOR, ControlLimits
from adaptive_nmpc.harness import GridSpec, run_experiment_grid
from adaptive_nmpc.trajectories import ReferenceWindow
from adaptive_nmpc.transcription import WeightVector, solve_qp
from helpers import (
    LinearModel,
    central_difference_jacobians,
    dense_equality_qp,
    hover_state,
    minimize_scalar_convex,
    random_control_vector,
    random_shooting_data,
    random_state_vector,
)

TRAJECTORIES = ("agg1", "agg2", "circle", "diamond")
WORKERS = 2


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_closed_form_weight_update():
    rng = np.random.default_rng(2024)
    lam = 1.3
    cfg = AdaptConfig(lam=lam, variant="linear")
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        v = 4.0 * rng.standard_normal(10)
        q = update_weights(v, cfg)
        for i in range(10):
            q_num = minimize_scalar_convex(lambda t, vi=v[i]: lam * t * t - vi * t, -20.0, 20.0)
            worst = max(worst, abs(q[i] - q_num))
    elapsed = time.time() - t0
    report(
        "closed-form weight update matches numeric minimizer",
        worst < 1e-8 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_qp_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 6))
        A, B, defects, qs, rs, lx, lu, gap = random_shooting_data(rng, N)
        from test_transcription import shooting_from_arrays

        prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap)
        sol = solve_qp(prob)
        dx_o, du_o = dense_equality_qp(A, B, defects, qs, rs, qs * lx, rs * lu, gap)
        worst = max(worst, float(np.abs(sol.dx - dx_o).max()), float(np.abs(sol.du - du_o).max()))
        worst_kkt = max(worst_kkt, sol.kkt_residual)

    # active-box toy: upper bound below the unconstrained optimum
    a, b, d, gap_s = 1.2, 0.8, 0.3, 0.5
    qv, rv, l1, l2, lu_s = 2.0, 1.0, 0.4, -0.6, 0.1
    du_free = -(rv * lu_s + 2 * qv * b * (a * gap_s + d) + qv * l2 * b) / (2 * rv + 2 * qv * b * b)
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
    lu = np.zeros((1, 4))
    lu[0, 0] = lu_s
    gap_vec = np.zeros(10)
    gap_vec[0] = gap_s
    u_pred = np.zeros((1, 4))
    u_pred[0, 0] = 2.0
    hi_du = du_free - 0.25
    limits = ControlLimits(c_min=0.01, c_max=2.0 + hi_du, omega_min=-100, omega_max=100)
    from test_transcription import shooting_from_arrays

    prob = shooting_from_arrays(A, B, defects, qs, rs, lx, lu, gap_vec, limits, u_pred)
    sol = solve_qp(prob)
    toy_err = abs(sol.du[0, 0] - hi_du)
    worst_kkt = max(worst_kkt, sol.kkt_residual)

    report(
        "structured QP matches dense KKT oracle and hand-solved active box",
        worst < 1e-8 and toy_err < 1e-8 and worst_kkt <= 1e-6,
        f"oracle err {worst:.2e}, toy err {toy_err:.2e}, max KKT {worst_kkt:.2e}",
    )


def test_criterion_jacobians_and_quaternion_drift():
    rng = np.random.default_rng(11)
    dt = 0.05
    worst = 0.0
    for _ in range(200):
        x = random_state_vector(rng)
        u = random_control_vector(rng)
        _, A, B = QUADROTOR.discretize(x, u, dt)
        A_fd, B_fd = central_difference_jacobians(QUADROTOR.step, x, u, dt)
        worst = max(worst, float(np.abs(A - A_fd).max()), float(np.abs(B - B_fd).max()))

    x = hover_state().as_vector()
    u = np.array([9.81, 0.4, -0.3, 0.8])
    for _ in range(10_000):
        x = QUADROTOR.step(x, u, 0.01)
    drift = abs(float(np.linalg.norm(x[6:10])) - 1.0)

    report(
        "discrete Jacobians match finite differences; quaternion norm stable",
        worst < 1e-5 and drift < 1e-9,
        f"max FD err {worst:.2e}, drift {drift:.2e} over 10k steps",
    )


def test_criterion_baseline_lti_tracking(monkeypatch):
    rng = np.random.default_rng(3)
    n, m, horizon = 10, 4, 8
    model = LinearModel(np.eye(n) + 0.08 * rng.standard_normal((n, n)), 0.4 * rng.standard_normal((n, m)))
    q = rng.uniform(0.5, 2.0, n)
    r = rng.uniform(0.5, 2.0, m)
    ref_xs = 0.5 * rng.standard_normal((horizon + 1, n))
    ref_us = 0.2 * rng.standard_normal((horizon, m))
    win = ReferenceWindow(ref_xs, np.vstack([ref_us, ref_us[-1:]]))
    x0 = rng.standard_normal(n)

    A = np.broadcast_to(model.A, (horizon, n, n))
    B = np.broadcast_to(model.B, (horizon, n, m))
    defects = np.stack([model.step(ref_xs[k], ref_us[k], 0.1) - ref_xs[k + 1] for k in range(horizon)])
    qs = np.tile(q, (horizon + 1, 1))
    rs = np.tile(r, (horizon, 1))
    _, du_o = dense_equality_qp(A, B, defects, qs, rs, 0 * qs, 0 * rs, x0 - ref_xs[0])
    u0_oracle = ref_us[0] + du_o[0]

    monkeypatch.setattr(controller, "CONV_TOL", 1e-13)
    cfg = ControllerConfig(horizon=horizon, dt=0.1, alternations=60, limits=None, model=model)
    cmd, _, _ = baseline_tick(ControllerState(weights=WeightVector(q, r)), x0, win, cfg)
    err = float(np.abs(cmd - u0_oracle).max())
    report("baseline converges to Riccati tracking oracle on LTI toy", err < 1e-6, f"err {err:.2e}")


def _results_by_key(results):
    table = {}
    for res in results:
        c = res.cell
        table[(c.trajectory, c.mode, c.lam, c.horizon, c.sub_horizon, c.sigma)] = res
    return table


@pytest.mark.slow
def test_criterion_table1_lambda_trend():
    t0 = time.time()
    lambdas = (0.67, 1.67, 3.0)
    grid = GridSpec(
        trajectories=TRAJECTORIES,
        lambdas=lambdas, horizons=(19,), sub_horizons=(2, 8, 12),
    )
    results = run_experiment_grid(grid, ControllerConfig(), seed=0, max_workers=WORKERS)
    by_key = _results_by_key(results)

    all_ok = True
    best_improvement = 0.0
    details = []
    for lam in lambdas:
        wins = 0
        for traj in TRAJECTORIES:
            base = by_key[(traj, "fixed", None, 19, None, 0.0)].report
            candidates = [
                by_key[(traj, "adaptive", lam, 19, ns, 0.0)].report
                for ns in (2, 8, 12)
            ]
            valid = [c for c in candidates if c is not None and c.tv <= 2.0 * base.tv]
            if not valid:
                continue
            best = min(valid, key=lambda rep: rep.e)
            if best.e < base.e:
                wins += 1
                best_improvement = max(best_improvement, (base.e - best.e) / base.e)
        details.append(f"lam={lam}: {wins}/4")
        if wins < 3:
            all_ok = False
    elapsed = time.time() - t0
    report(
        "lambda sweep: adaptive beats baseline (>=3/4, TV within 2x) with >=40% on a cell",
        all_ok and best_improvement >= 0.40 and elapsed < 600.0,
        ", ".join(details) + f", best improvement {best_improvement * 100:.0f}%, {elapsed:.0f} s",
    )


@pytest.mark.slow
def test_criterion_table2_horizon_trend():
    grid = GridSpec(
        trajectories=TRAJECTORIES,
        lambdas=(1.0,), horizons=(8, 14, 19, 24), sub_horizons=(8, 14, 18),
    )
    results = run_experiment_grid(grid, ControllerConfig(), seed=0, max_workers=WORKERS)
    by_key = _results_by_key(results)

    wins_at_8 = 0
    for traj in TRAJECTORIES:
        base = by_key[(traj, "fixed", None, 8, None, 0.0)].report
        adapt = by_key[(traj, "adaptive", 1.0, 8, 8, 0.0)].report
        if adapt is not None and adapt.e < base.e:
            wins_at_8 += 1

    skip_ok = all(
        (res.status == "skipped") == (res.cell.mode == "adaptive" and res.cell.sub_horizon > res.cell.horizon)
        for res in results
    )
    report(
        "horizon sweep: adaptive wins all 4 at N=8; sub-horizon skip rule exact",
        wins_at_8 == 4 and skip_ok,
        f"N=8 wins {wins_at_8}/4, skip rule {'ok' if skip_ok else 'violated'}",
    )


@pytest.mark.slow
def test_criterion_table3_noise_trend():
    sigmas = (0.5, 2.0, 3.5, 5.0)
    grid = GridSpec(
        trajectories=TRAJECTORIES,
        lambdas=(1.0,), horizons=(19,), sub_horizons=(8,), sigmas=sigmas, runs=15,
    )
    results = run_experiment_grid(grid, ControllerConfig(), seed=100, max_workers=WORKERS)
    by_key = _results_by_key(results)

    monotone = True
    for traj in TRAJECTORIES:
        for mode, lam, ns in (("fixed", None, None), ("adaptive", 1.0, 8)):
            series = [by_key[(traj, mode, lam, 19, ns, s)].report.e_r for s in sigmas]
            if any(b < a for a, b in zip(series, series[1:])):
                monotone = False

    adaptive_wins = sum(
        1
        for traj in TRAJECTORIES
        if by_key[(traj, "adaptive", 1.0, 19, 8, 5.0)].report.e_r
        <= by_key[(traj, "fixed", None, 19, None, 5.0)].report.e_r
    )
    report(
        "noise sweep: e_r monotone in sigma; adaptive wins >=2/4 at sigma=5",
        monotone and adaptive_wins >= 2,
        f"monotone={monotone}, adaptive wins {adaptive_wins}/4 at sigma=5",
    )


def test_criterion_cli_determinism(tmp_path):
    import hashlib

    from adaptive_nmpc.cli import main

    args = [
        "simulate", "--trajectory", "agg1", "--mode", "adaptive",
        "--horizon", "12", "--sub-horizon", "6", "--noise-sigma", "2.0", "--seed", "42",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(args + ["--out", str(out_a)])
    rc_b = main(args + ["--out", str(out_b)])
    same = (
        hashlib.sha256((out_a / "log.csv").read_bytes()).hexdigest()
        == hashlib.sha256((out_b / "log.csv").read_bytes()).hexdigest()
    )
    report(
        "CLI re-run with identical config and seed is byte-identical",
        rc_a == 0 and rc_b == 0 and same,
        "sha256 match" if same else "hash mismatch",
    )


def test_criterion_metric_micro_oracles():
    from adaptive_nmpc.harness import SimLog, metric_total_error, metric_tv

    rng = np.random.default_rng(5)
    exact = True
    for _ in range(1000):
        L = int(rng.integers(2, 40))
        log = SimLog(
            ts=np.arange(L) * 0.05,
            x_true=rng.standard_normal((L, 10)),
            x_meas=np.zeros((L, 10)),
            u_applied=rng.standard_normal((L, 4)),
            ref_xs=rng.standard_normal((L, 10)),
            q_snapshot=np.ones((L, 10)),
            kkt=np.zeros(L),
        )
        e_ref = sum(
            float(np.sqrt(np.sum((log.x_true[i, :3] - log.ref_xs[i, :3]) ** 2))) for i in range(L)
        )
        tv_ref = (
            sum(float(np.abs(log.u_applied[i] - log.u_applied[i + 1]).sum()) for i in range(L - 1)) / L
        )
        if not np.isclose(metric_total_error(log), e_ref, rtol=1e-13, atol=0.0):
            exact = False
        if not np.isclose(metric_tv(log.u_applied), tv_ref, rtol=1e-13, atol=0.0):
            exact = False

    # hand cases
    L = 100
    log = SimLog(
        ts=np.arange(L) * 0.05,
        x_true=np.zeros((L, 10)),
        x_meas=np.zeros((L, 10)),
        u_applied=np.tile([9.81, 0, 0, 0], (L, 1)),
        ref_xs=np.zeros((L, 10)),
        q_snapshot=np.ones((L, 10)),
        kkt=np.zeros(L),
    )
    log.x_true[:, 0] = 0.1
    hand_ok = metric_total_error(log) == pytest.approx(10.0, abs=1e-12) and metric_tv(log.u_applied) == 0.0

    report(
        "metric implementations match independent reference loops",
        exact and hand_ok,
        "1000 random logs + hand cases exact",
    )
