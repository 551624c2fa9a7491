"""Output checks that share no code path with the library.

Every check returns a list of problems; an empty list means it passed. The
checks take the raw arrays the library logs and re-derive what they must
satisfy: the plant transitions through an RK4 quadrotor model written here,
the metrics through plain loops, the QP solution through one dense KKT solve.
"""

from __future__ import annotations

import math

import numpy as np

GRAVITY = 9.81

#: Relative tolerance for quantities that differ from the library's only by
#: the order of floating-point operations.
ROUND_OFF = 1e-12

#: A control this close to a box limit counts as held at the limit.
AT_BOUND = 1e-12


def _deriv(x, u):
    """Continuous quadrotor model: dp = v, dv = g + R(q) [0, 0, c], dq = q (x) [0, w] / 2."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz = x
    c, wx, wy, wz = u
    # third column of the homogeneous rotation matrix of q, times the thrust c
    ax = c * 2.0 * (qx * qz + qw * qy)
    ay = c * 2.0 * (qy * qz - qw * qx)
    az = c * (qw * qw - qx * qx - qy * qy + qz * qz) - GRAVITY
    return (
        vx,
        vy,
        vz,
        ax,
        ay,
        az,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy + qz * wx - qx * wz),
        0.5 * (qw * wz + qx * wy - qy * wx),
    )


def rk4_step(x, u, dt):
    """One classical RK4 step followed by quaternion renormalization."""
    k1 = _deriv(x, u)
    k2 = _deriv([a + 0.5 * dt * b for a, b in zip(x, k1)], u)
    k3 = _deriv([a + 0.5 * dt * b for a, b in zip(x, k2)], u)
    k4 = _deriv([a + dt * b for a, b in zip(x, k3)], u)
    out = [a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    norm = math.sqrt(sum(v * v for v in out[6:10]))
    return out[:6] + [v / norm for v in out[6:10]]


def check_replay(x_true: np.ndarray, u_applied: np.ndarray, dt: float) -> list[str]:
    """Each logged transition must be one RK4 step under the logged command.

    Every step starts from the logged state, so round-off does not build up
    along the run and the match is to round-off.
    """
    problems = []
    xs = x_true.tolist()
    us = u_applied.tolist()
    for i in range(len(xs) - 1):
        pred = rk4_step(xs[i], us[i], dt)
        err = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(pred, xs[i + 1]))
        if not err <= ROUND_OFF:
            problems.append(f"replay: x_true[{i + 1}] is {err:.2e} away from the RK4 step of x_true[{i}]")
            break
    return problems


def total_error(x_true: np.ndarray, ref_xs: np.ndarray) -> float:
    """e = sum_i |p_i - p_ref_i|, with plain loops."""
    total = 0.0
    for row, ref in zip(x_true.tolist(), ref_xs.tolist()):
        total += math.sqrt(sum((row[j] - ref[j]) ** 2 for j in range(3)))
    return total


def total_variation(u: np.ndarray) -> float:
    """TV = sum over ticks and channels of |u_i - u_{i-1}|, divided by the tick count."""
    rows = u.tolist()
    total = 0.0
    for prev, cur in zip(rows, rows[1:]):
        total += sum(abs(a - b) for a, b in zip(cur, prev))
    return total / len(rows)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ROUND_OFF * max(1.0, abs(b))


def check_metrics(log, e: float, tv: float) -> list[str]:
    """The library's e and TV must equal their plain-loop recomputation."""
    problems = []
    e_ref = total_error(log.x_true, log.ref_xs)
    tv_ref = total_variation(log.u_applied)
    if not _close(e, e_ref):
        problems.append(f"metrics: e = {e!r}, recomputed {e_ref!r}")
    if not _close(tv, tv_ref):
        problems.append(f"metrics: TV = {tv!r}, recomputed {tv_ref!r}")
    return problems


def check_log(log, ref_xs: np.ndarray, cfg) -> list[str]:
    """Plant replay, reference, KKT certificate, control box, unit quaternions, failed ticks.

    ``ref_xs`` are the generated reference states, the run starts at the
    first; ``cfg`` is the run's controller configuration.
    """
    problems = []
    if not np.array_equal(log.ref_xs, ref_xs):
        problems.append("log: reference states differ from the generated trajectory")
    if not np.array_equal(log.x_true[0], ref_xs[0]):
        problems.append("log: first state differs from the reference start")
    problems += check_replay(log.x_true, log.u_applied, cfg.dt)
    kkt = np.asarray(log.kkt)
    if not (np.all(np.isfinite(kkt)) and kkt.max() <= cfg.qp_tol):
        problems.append(f"kkt: certificate above {cfg.qp_tol:.0e} or missing on some tick (max {np.nanmax(kkt):.2e})")
    if not (np.all(log.u_applied >= cfg.limits.lower) and np.all(log.u_applied <= cfg.limits.upper)):
        problems.append("box: an applied command lies outside the control box")
    for name in ("x_true", "x_meas"):
        q = getattr(log, name)[:, 6:10]
        if not np.all(np.abs(np.sqrt((q * q).sum(axis=1)) - 1.0) <= ROUND_OFF):
            problems.append(f"quaternion: a {name} attitude is not of unit norm")
    if log.failures:
        problems.append(f"failed ticks: {log.failures} ticks failed their QP and held the command")
    return problems


def check_noise(log, sigma: float, injections: list) -> list[str]:
    """Noise protocol: one position corruption per noisy run, |dp| = sigma |p|, v and q untouched.

    ``injections`` holds the ``(x_in, x_out)`` state vectors of every
    corruption the run made.
    """
    expected = 1 if sigma > 0.0 else 0
    if len(injections) != expected:
        return [f"noise: {len(injections)} corruptions in a run with sigma {sigma}, expected {expected}"]
    problems = []
    changed = [i for i in range(len(log)) if not np.array_equal(log.x_meas[i], log.x_true[i])]
    if len(changed) != expected:
        problems.append(f"noise: {len(changed)} measured states differ from the true state, expected {expected}")
    for x_in, x_out in injections:
        dp = math.sqrt(sum((a - b) ** 2 for a, b in zip(x_out[:3], x_in[:3])))
        p = math.sqrt(sum(a * a for a in x_in[:3]))
        if not _close(dp, sigma * p):
            problems.append(f"noise: |dp| = {dp!r}, expected sigma |p| = {sigma * p!r}")
        if list(x_out[3:]) != list(x_in[3:]):
            problems.append("noise: velocity or attitude changed by the corruption")
        if changed and not (np.array_equal(log.x_meas[changed[0]], x_out) and np.array_equal(log.x_true[changed[0]], x_in)):
            problems.append("noise: the logged measurement is not the corrupted state")
    return problems


def check_qp(prob, sol, q_min: float, tol: float) -> list[str]:
    """Dense oracle for one box-constrained stage QP and its solution.

    The controls the solution holds at a bound are fixed there; the rest of
    the problem is an equality-constrained QP, solved here as one dense KKT
    system. ``dx``/``du`` must match it within ``tol``, every held control
    must carry a multiplier of the right sign, and every other control must
    lie inside its box.
    """
    stages = prob.stages
    N = len(stages)
    n, m = stages[0].B.shape
    # same weight normalization as the solver, so multipliers are O(1)
    scale = max(1.0, float(prob.qs.max()), float(prob.rs.max()))
    qs = np.maximum(prob.qs, q_min) / scale
    rs = prob.rs / scale
    lo = prob.limits.lower - prob.u_pred
    hi = prob.limits.upper - prob.u_pred
    at_lo = np.abs(sol.du - lo) <= AT_BOUND
    at_hi = np.abs(sol.du - hi) <= AT_BOUND

    nx = (N + 1) * n
    nz = nx + N * m
    held = [(k, i) for k in range(N) for i in range(m) if at_lo[k, i] or at_hi[k, i]]
    rows = n + N * n + len(held)
    H = np.diag(2.0 * np.concatenate([qs.ravel(), rs.ravel()]))
    g = prob.alpha * np.concatenate([(qs * prob.lx).ravel(), (rs * prob.lu).ravel()])
    E = np.zeros((rows, nz))
    b = np.zeros(rows)
    E[:n, :n] = np.eye(n)
    b[:n] = prob.initial_gap
    for k, stage in enumerate(stages):
        r = n + k * n
        E[r : r + n, k * n : (k + 1) * n] = stage.A
        E[r : r + n, nx + k * m : nx + (k + 1) * m] = stage.B
        E[r : r + n, (k + 1) * n : (k + 2) * n] = -np.eye(n)
        b[r : r + n] = -stage.defect
    for j, (k, i) in enumerate(held):
        r = n + N * n + j
        E[r, nx + k * m + i] = 1.0
        b[r] = hi[k, i] if at_hi[k, i] else lo[k, i]

    kkt = np.block([[H, E.T], [E, np.zeros((rows, rows))]])
    z = np.linalg.solve(kkt, np.concatenate([-g, b]))
    dx = z[:nx].reshape(N + 1, n)
    du = z[nx:nz].reshape(N, m)
    nu = z[nz + n + N * n :]

    problems = []
    err = max(float(np.abs(dx - sol.dx).max()), float(np.abs(du - sol.du).max()))
    if not err <= tol:
        problems.append(f"qp oracle: solution is {err:.2e} away from the dense KKT solution")
    for (k, i), mult in zip(held, nu):
        # stationarity grad f + mult e_i = 0: an upper bound needs mult >= 0, a lower one mult <= 0
        sign = 1.0 if at_hi[k, i] else -1.0
        if sign * mult < -tol:
            problems.append(f"qp oracle: wrong-sign multiplier {mult:.2e} on held control ({k}, {i})")
    free = ~(at_lo | at_hi)
    if np.any(free & ((sol.du < lo - tol) | (sol.du > hi + tol))):
        problems.append("qp oracle: a free control lies outside its box")
    return problems
