"""The alternation's fixed point is a KKT point of the nonlinear tracking problem.

Repeating a tick's round (``build_qp``, ``solve_qp``, ``apply_step``, each
round starting from the working set the last one ended with) on one window
until the step vanishes must land on a KKT point of

    min  sum_k (x_k - xref_k)^T Q (x_k - xref_k) + sum_k (u_k - uref_k)^T R (u_k - uref_k)
    s.t. x_0 = x_meas,  x_{k+1} = step(x_k, u_k),  u_min <= u_k <= u_max,

the sums over k = 0..N for the states and k = 0..N-1 for the controls. At
``dz = 0`` the QP's cost ``(dz + l)^T W dz`` has gradient ``W l``, half the
problem's ``2 W l``, so the QP's stationarity is the problem's with every
multiplier halved. The check reads nothing of the library's linearization:
the Jacobians are complex-step derivatives of ``helpers.step_reference``,
the costates come from one backward pass, and the bound multipliers' signs
from the controls held at a bound.
"""

import numpy as np
import pytest

from adaptive_nmpc.controller import FIXED_WEIGHTS
from adaptive_nmpc.dynamics import ControlLimits
from adaptive_nmpc.trajectories import ReferenceWindow, preset
from adaptive_nmpc.transcription import Q_MIN, PredictionTrajectory, WeightVector, apply_step, build_qp, solve_qp
from helpers import SATURATED_BOX, LinearModel, complex_step_jacobians, dense_equality_qp, step_reference

N, DT, ROUNDS = 19, 0.05, 80
#: agg1's weights: log-uniform in [e^-1, e^2], one fixed draw
AGG1_WEIGHTS = WeightVector(np.exp(np.random.default_rng(11).uniform(-1.0, 2.0, 10)), FIXED_WEIGHTS.r)

WINDOWS = [
    (name, box, weights, start)
    for name, box, weights in [
        ("agg2", ControlLimits(), FIXED_WEIGHTS),
        ("agg2", SATURATED_BOX, FIXED_WEIGHTS),
        ("agg1", SATURATED_BOX, AGG1_WEIGHTS),
    ]
    for start in (10, 60)
]
IDS = [f"{name}-{'default' if box == ControlLimits() else 'saturated'}-{start}" for name, box, _, start in WINDOWS]


def fixed_point(name, box, weights, start):
    """80 rounds on one window from a perturbed prediction and measurement.

    Returns the final prediction, the last round's step norm, the window and the measurement.
    """
    rng = np.random.default_rng(start)
    win = preset(name, dt=DT).window(start, N + 1)
    xs = win.xs.copy()
    xs[:, :6] += 0.3 * rng.standard_normal((N + 1, 6))
    pred = PredictionTrajectory(xs, box.clamp(win.us[:N]))
    x_meas = win.xs[0].copy()
    x_meas[:6] += 0.3 * rng.standard_normal(6)
    active = None
    for _ in range(ROUNDS):
        sol = solve_qp(build_qp(pred, win, weights, x_meas, box, DT), active=active)
        active = sol.active
        pred = apply_step(pred, sol, box)
    return pred, sol.step_norm, win, x_meas


def nonlinear_kkt(pred, win, weights, x_meas, box):
    """Normalized stationarity, largest defect, initial gap and held count of the nonlinear problem at ``pred``."""
    xs, us = pred.xs, pred.us
    q = np.maximum(weights.q, Q_MIN)
    r = np.asarray(weights.r)
    A, B = complex_step_jacobians(step_reference, xs[:-1], us, DT)
    # costates make the state stationarity exact: lam_N = 2 Q l_N, lam_k = 2 Q l_k + A_k^T lam_{k+1}
    lam = 2.0 * q * (xs - win.xs)
    for k in range(N - 1, 0, -1):
        lam[k] += A[k].T @ lam[k + 1]
    own = 2.0 * r * (us - win.us[:N])
    coupled = np.einsum("kji,kj->ki", B, lam[1:])
    grad = own + coupled
    # a control held at its upper bound may carry a negative gradient, at its lower bound a positive one
    at_hi = np.abs(us - box.upper) <= 1e-12
    at_lo = np.abs(us - box.lower) <= 1e-12
    resid = np.where(at_hi, np.maximum(grad, 0.0), np.where(at_lo, np.maximum(-grad, 0.0), np.abs(grad)))
    stationarity = resid.max() / max(np.abs(own).max(), np.abs(coupled).max())
    defects = np.abs(step_reference(xs[:-1], us, DT) - xs[1:]).max()
    return stationarity, defects, np.abs(xs[0] - x_meas).max(), int((at_hi | at_lo).sum())


@pytest.mark.parametrize("name, box, weights, start", WINDOWS, ids=IDS)
def test_fixed_point_is_nonlinear_kkt_point(name, box, weights, start):
    pred, step, win, x_meas = fixed_point(name, box, weights, start)
    stationarity, defects, gap, held = nonlinear_kkt(pred, win, weights, x_meas, box)
    assert step < 1e-13
    assert stationarity < 1e-12
    assert defects < 1e-13 and gap < 1e-13
    assert held > 0 if box == SATURATED_BOX else held == 0


def test_one_round_takes_half_the_gauss_newton_step():
    # LTI toy with a box that does not bind and a prediction with zero defects and gap: the
    # QP's linear term is half the Gauss-Newton one, so its step is exactly half that step
    rng = np.random.default_rng(3)
    n, m, horizon = 10, 4, 8
    box = ControlLimits()
    trim = np.array([0.5 * (box.c_min + box.c_max), 0.0, 0.0, 0.0])
    model = LinearModel(np.eye(n) + 0.08 * rng.standard_normal((n, n)), 0.4 * rng.standard_normal((n, m)), trim)
    us = trim + 0.2 * rng.standard_normal((horizon, m))
    xs = np.zeros((horizon + 1, n))
    xs[0] = rng.standard_normal(n)
    for k in range(horizon):
        xs[k + 1] = model.step(xs[k], us[k], DT)
    ref_us = np.vstack([us, us[-1:]]) + 0.2 * rng.standard_normal((horizon + 1, m))
    win = ReferenceWindow(xs + 0.5 * rng.standard_normal(xs.shape), ref_us)
    weights = WeightVector(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m))

    prob = build_qp(PredictionTrajectory(xs, us), win, weights, xs[0], box, DT, model=model)
    sol = solve_qp(prob)
    assert not sol.active.any()
    qs, rs = prob.qs, prob.rs
    dx_gn, du_gn = dense_equality_qp(
        prob.A, prob.B, np.zeros((horizon, n)), qs, rs, 2.0 * qs * prob.lx, 2.0 * rs * prob.lu, np.zeros(n)
    )
    assert np.abs(sol.dx - 0.5 * dx_gn).max() < 1e-12
    assert np.abs(sol.du - 0.5 * du_gn).max() < 1e-12
