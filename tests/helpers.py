"""Independent oracle implementations shared across the test modules.

Everything here is deliberately written from first principles (textbook
formulas, scalar loops, dense linear algebra) so the tests check the
library against a second, unrelated code path.
"""

import itertools

import numpy as np

from adaptive_nmpc.dynamics import _QUAT, _VEL, GRAVITY, ControlLimits, State
from adaptive_nmpc.trajectories import preset
from adaptive_nmpc.transcription import Q_MIN, PredictionTrajectory, WeightVector, build_qp

#: The control box of the benchmark's ``saturated`` workload: below the
#: thrust and rate peaks of agg1/agg2, so the bounds bind on most ticks.
SATURATED_BOX = ControlLimits(c_min=7.0, c_max=12.5, omega_min=-1.0, omega_max=1.0)

_GRAVITY_VEC = np.array([0.0, 0.0, -GRAVITY])


def hover_state(position=(0.0, 0.0, 0.0)):
    """Level, at rest, at ``position``."""
    return State(np.asarray(position, dtype=float), np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


def hover_control():
    """Thrust that cancels gravity at level attitude, no body rates."""
    return np.array([GRAVITY, 0.0, 0.0, 0.0])


def default_weights():
    return WeightVector(np.ones(10), np.ones(4))


def in_box(limits, u, tol=1e-9):
    """Whether every control in ``u`` lies within ``limits`` up to ``tol``."""
    return bool(np.all(u >= limits.lower - tol) and np.all(u <= limits.upper + tol))


def _inexact(a):
    """``a`` as an array of floats, or of complex numbers if it holds any; integers become floats."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def quat_to_rotmat(q):
    """Textbook scalar-first quaternion to rotation matrix, batched: ``(..., 4) -> (..., 3, 3)``.

    The homogeneous form, every entry quadratic in ``q`` (the first diagonal
    entry is ``w^2 + x^2 - y^2 - z^2``, not ``1 - 2 (y^2 + z^2)``), so a
    quaternion of norm ``s`` gives ``s^2 R``. That is also what the model's
    vector field computes between renormalizations, in the RK4 stages.
    Complex input gives the analytic continuation, for complex-step derivatives.
    """
    w, x, y, z = np.moveaxis(_inexact(q), -1, 0)
    rows = [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def hamilton_product(a, b):
    """Textbook Hamilton product ``a (x) b`` of scalar-first quaternions, batched.

    Scalar part ``aw bw - av.bv``, vector part ``(aw bv + bw av) + av x bv``,
    written out by component. Complex-safe, like :func:`quat_to_rotmat`.
    """
    aw, ax, ay, az = np.moveaxis(_inexact(a), -1, 0)
    bw, bx, by, bz = np.moveaxis(_inexact(b), -1, 0)
    return np.stack(
        [
            aw * bw - (ax * bx + ay * by + az * bz),
            (aw * bx + bw * ax) + (ay * bz - az * by),
            (aw * by + bw * ay) + (az * bx - ax * bz),
            (aw * bz + bw * az) + (ax * by - ay * bx),
        ],
        axis=-1,
    )


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def random_state_vector(rng, pos_scale=2.0, vel_scale=2.0):
    return np.concatenate(
        [
            pos_scale * rng.standard_normal(3),
            vel_scale * rng.standard_normal(3),
            random_unit_quat(rng),
        ]
    )


def random_control_vector(rng, c_range=(2.0, 20.0), w_scale=2.0):
    return np.concatenate([[rng.uniform(*c_range)], w_scale * rng.standard_normal(3)])


def random_batch(draw, rng, batch):
    """``draw(rng)`` stacked into an array of shape ``batch + (dim,)``."""
    return np.reshape([draw(rng) for _ in range(int(np.prod(batch)))], batch + (-1,))


def deriv_reference(x, u):
    """The vector field as R(q) applied to the body thrust plus a Hamilton product.

    A second form of ``dynamics._deriv``, built only from :func:`quat_to_rotmat`
    and :func:`hamilton_product`, so it shares no code with the library.
    """
    q = x[..., _QUAT]
    c = u[..., :1]
    omega = u[..., 1:]
    zeros = np.zeros_like(c)
    thrust_body = np.concatenate([zeros, zeros, c], axis=-1)
    dv = (quat_to_rotmat(q) @ thrust_body[..., None])[..., 0] + _GRAVITY_VEC
    dq = 0.5 * hamilton_product(q, np.concatenate([zeros, omega], axis=-1))
    return np.concatenate([np.broadcast_to(x[..., _VEL], dv.shape), dv, dq], axis=-1)


def step_reference(x, u, dt):
    """One RK4 step of :func:`deriv_reference` followed by quaternion renormalization.

    The norm is ``sqrt(sum(q * q))``, not ``np.linalg.norm`` (which takes
    absolute values), so complex input gives the analytic continuation.
    """
    k1 = deriv_reference(x, u)
    k2 = deriv_reference(x + 0.5 * dt * k1, u)
    k3 = deriv_reference(x + 0.5 * dt * k2, u)
    k4 = deriv_reference(x + dt * k3, u)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = out[..., _QUAT]
    out[..., _QUAT] = q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    return out


def central_difference_jacobians(step, x, u, dt, h=1e-6):
    """Central finite differences of a discrete step map."""
    n, m = len(x), len(u)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        A[:, i] = (step(x + e, u, dt) - step(x - e, u, dt)) / (2 * h)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        B[:, i] = (step(x, u + e, dt) - step(x, u - e, dt)) / (2 * h)
    return A, B


def complex_step_jacobians(step, x, u, dt, h=1e-30):
    """Complex-step derivatives of a discrete step map, batched: ``A (..., n, n)`` and ``B (..., n, m)``.

    Column ``j`` is ``Im step(z + i h e_j) / h`` over ``z = (x, u)``
    (Martins, Sturdza & Alonso, ACM TOMS 2003). Nothing is subtracted, so
    the error is of order ``h^2`` with no cancellation: exact to round-off
    for ``step`` analytic in its inputs.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    n = x.shape[-1]
    probe = 1j * h * np.eye(n + u.shape[-1])
    cols = step(x[..., None, :] + probe[:, :n], u[..., None, :] + probe[:, n:], dt).imag / h
    jac = np.swapaxes(cols, -1, -2)
    return jac[..., :n], jac[..., n:]


def dense_stage_qp(A, B, defects, qs, rs, qlin, rlin, gap):
    """Dense form of the stage QP over z = [x_0..x_N, u_0..u_{N-1}].

    Objective 0.5 z' H z + g' z =
    sum x_k' diag(qs_k) x_k + qlin_k' x_k + sum u_k' diag(rs_k) u_k + rlin_k' u_k,
    constraints E z = e: x_0 = gap and x_{k+1} = A_k x_k + B_k u_k + defects_k.
    """
    N, n, m = B.shape[0], B.shape[1], B.shape[2]
    nz = (N + 1) * n + N * m
    H = np.zeros((nz, nz))
    g = np.zeros(nz)
    for k in range(N + 1):
        H[k * n : (k + 1) * n, k * n : (k + 1) * n] = 2 * np.diag(qs[k])
        g[k * n : (k + 1) * n] = qlin[k]
    off = (N + 1) * n
    for k in range(N):
        H[off + k * m : off + (k + 1) * m, off + k * m : off + (k + 1) * m] = 2 * np.diag(rs[k])
        g[off + k * m : off + (k + 1) * m] = rlin[k]
    nc = (N + 1) * n
    E = np.zeros((nc, nz))
    e = np.zeros(nc)
    E[:n, :n] = np.eye(n)
    e[:n] = gap
    for k in range(N):
        r0 = (k + 1) * n
        E[r0 : r0 + n, k * n : (k + 1) * n] = A[k]
        E[r0 : r0 + n, (k + 1) * n : (k + 2) * n] = -np.eye(n)
        E[r0 : r0 + n, off + k * m : off + (k + 1) * m] = B[k]
        e[r0 : r0 + n] = -defects[k]
    return H, g, E, e


def solve_dense_kkt(H, g, E, e):
    """Minimizer of 0.5 z' H z + g' z subject to E z = e, from one KKT system."""
    nz, nc = H.shape[0], E.shape[0]
    KKT = np.block([[H, E.T], [E, np.zeros((nc, nc))]])
    return np.linalg.solve(KKT, np.concatenate([-g, e]))[:nz]


def dense_equality_qp(A, B, defects, qs, rs, qlin, rlin, gap):
    """Dense KKT solve of the equality-constrained stage QP (see :func:`dense_stage_qp`)."""
    N, n, m = B.shape[0], B.shape[1], B.shape[2]
    z = solve_dense_kkt(*dense_stage_qp(A, B, defects, qs, rs, qlin, rlin, gap))
    off = (N + 1) * n
    return z[:off].reshape(N + 1, n), z[off:].reshape(N, m)


def qp_objective(prob, dx, du):
    """Objective value sum_k (dz_k + l_k)^T diag(q, r) dz_k, terminal included."""
    qs = np.maximum(prob.qs, Q_MIN)
    val = float(np.sum((dx + prob.lx) * qs * dx))
    val += float(np.sum((du + prob.lu) * prob.rs * du))
    return val


def random_shooting_data(rng, N, n=10, m=4):
    """Random well-conditioned stage data for QP oracle comparisons."""
    A = np.eye(n) + 0.3 * rng.standard_normal((N, n, n))
    B = 0.5 * rng.standard_normal((N, n, m))
    defects = 0.1 * rng.standard_normal((N, n))
    qs = rng.uniform(0.1, 3.0, (N + 1, n))
    rs = rng.uniform(0.1, 3.0, (N, m))
    lx = rng.standard_normal((N + 1, n))
    lu = rng.standard_normal((N, m))
    gap = 0.5 * rng.standard_normal(n)
    return A, B, defects, qs, rs, lx, lu, gap


def minimize_scalar_convex(f, lo, hi, h=1e-4, iters=100):
    """Numeric minimizer of a smooth convex scalar function on [lo, hi].

    Bisects on the central-difference gradient, which is exact for
    quadratics up to rounding, so the minimizer is located far below the
    sqrt(eps) floor of value-comparison searches.
    """

    def grad(t):
        return (f(t + h) - f(t - h)) / (2 * h)

    if grad(lo) >= 0:
        return lo
    if grad(hi) <= 0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if grad(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class LinearModel:
    """LTI test double for the transcription's model interface: ``x+ = A x + B (u - u_trim)``."""

    def __init__(self, A, B, u_trim=0.0):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.u_trim = np.asarray(u_trim, dtype=float)

    def step(self, x, u, dt):
        u = u - self.u_trim
        if np.asarray(x).ndim > 1:
            return x @ self.A.T + u @ self.B.T
        return self.A @ x + self.B @ u

    def discretize(self, x, u, dt):
        batch = np.asarray(x).shape[:-1]
        return (
            self.step(x, u, dt),
            np.broadcast_to(self.A, batch + self.A.shape).copy(),
            np.broadcast_to(self.B, batch + self.B.shape).copy(),
        )

    def project(self, x):
        return np.asarray(x, dtype=float).copy()


def _held_kkt(H, g, E, e, nx, working, lo_flat, hi_flat):
    """Dense KKT solve of :func:`dense_stage_qp` with controls held at their bounds.

    ``working`` holds -1 (held at ``lo``), 0 (free) or +1 (held at ``hi``)
    per control. Returns the primal solution and the multipliers of the
    held controls, in control order.
    """
    held = np.flatnonzero(working)
    S = np.zeros((len(held), H.shape[0]))
    S[np.arange(len(held)), nx + held] = 1.0
    values = np.where(working > 0, hi_flat, lo_flat)[held]
    E = np.vstack([E, S])
    rows = E.shape[0]
    kkt = np.block([[H, E.T], [E, np.zeros((rows, rows))]])
    sol = np.linalg.solve(kkt, np.concatenate([-g, e, values]))
    return sol[: H.shape[0]], sol[H.shape[0] + rows - len(held) :]


def enumerated_box_qp(A, B, defects, qs, rs, qlin, rlin, gap, lo, hi):
    """Box-constrained stage QP by enumerating every working set.

    The stage QP of :func:`dense_stage_qp` plus ``lo <= u_k <= hi``. Each of
    the 3^(N m) working sets (every control at its lower bound, free, or at
    its upper bound) fixes the held controls and is solved as one dense
    equality-constrained KKT system; the feasible candidate with the lowest
    objective is the minimizer. Returns (dx, du, active) with ``active`` in
    {-1, 0, +1} per control.
    """
    N, n, m = B.shape[0], B.shape[1], B.shape[2]
    H, g, E, e = dense_stage_qp(A, B, defects, qs, rs, qlin, rlin, gap)
    nx = (N + 1) * n
    lo_flat, hi_flat = lo.ravel(), hi.ravel()

    best = None
    for working in itertools.product((-1, 0, 1), repeat=N * m):
        z, _ = _held_kkt(H, g, E, e, nx, np.array(working), lo_flat, hi_flat)
        u = z[nx:]
        if np.any(u < lo_flat - 1e-9) or np.any(u > hi_flat + 1e-9):
            continue
        obj = 0.5 * z @ H @ z + g @ z
        if best is None or obj < best[0]:
            best = (obj, z, working)
    _, z, working = best
    active = np.array(working, dtype=np.int8).reshape(N, m)
    return z[:nx].reshape(N + 1, n), z[nx:].reshape(N, m), active


def held_set_qp(A, B, defects, qs, rs, qlin, rlin, gap, lo, hi, active):
    """Stage QP with the working set ``active`` held, as one dense KKT system.

    Every control with ``active`` +1 is fixed at ``hi``, with -1 at ``lo``;
    the rest of :func:`dense_stage_qp` is solved with the equality
    constraints. Returns (dx, du, mult) with ``mult`` the multiplier of each
    held control (zero where free): stationarity reads grad + mult = 0, so a
    control held at its upper bound needs ``mult >= 0`` and one at its
    lower bound ``mult <= 0``.
    """
    N, n, m = B.shape[0], B.shape[1], B.shape[2]
    H, g, E, e = dense_stage_qp(A, B, defects, qs, rs, qlin, rlin, gap)
    nx = (N + 1) * n
    working = np.asarray(active).ravel()
    z, held_mult = _held_kkt(H, g, E, e, nx, working, lo.ravel(), hi.ravel())
    mult = np.zeros(N * m)
    mult[np.flatnonzero(working)] = held_mult
    return z[:nx].reshape(N + 1, n), z[nx:].reshape(N, m), mult.reshape(N, m)


def kkt_residual_loops(A, B, defects, qs, rs, qlin, rlin, gap, lo, hi, dx, du, lam):
    """Max-norm KKT residual of the box-constrained stage QP, one stage and one control at a time."""
    N = B.shape[0]
    res = float(np.abs(dx[0] - gap).max())
    at_lo = np.isclose(du, lo, rtol=0.0, atol=1e-12)
    at_hi = np.isclose(du, hi, rtol=0.0, atol=1e-12)
    for k in range(N):
        dyn = A[k] @ dx[k] + B[k] @ du[k] + defects[k] - dx[k + 1]
        res = max(res, float(np.abs(dyn).max()))
        grad_u = 2.0 * rs[k] * du[k] + rlin[k] + B[k].T @ lam[k + 1]
        for i in range(du.shape[1]):
            if at_hi[k, i] and not at_lo[k, i]:
                res = max(res, max(0.0, float(grad_u[i])))  # need mu = -grad >= 0
            elif at_lo[k, i] and not at_hi[k, i]:
                res = max(res, max(0.0, float(-grad_u[i])))
            else:
                res = max(res, float(abs(grad_u[i])))
        if k > 0:
            grad_x = 2.0 * qs[k] * dx[k] + qlin[k] + A[k].T @ lam[k + 1] - lam[k]
            res = max(res, float(np.abs(grad_x).max()))
    res = max(res, float(np.abs(2.0 * qs[N] * dx[N] + qlin[N] - lam[N]).max()))
    res = max(res, float(np.maximum(lo - du, 0.0).max()), float(np.maximum(du - hi, 0.0).max()))
    return res


def stress_qps(q_max):
    """Seeded cold-start box QPs at large state weights: 40 horizon-19 problems.

    Each is built by ``build_qp`` from a random window of ``agg1`` or
    ``agg2`` (alternately) under :data:`SATURATED_BOX`, whose bounds the
    reference exceeds. The prediction's positions and velocities are
    perturbed by 0.1, its quaternions by 0.05 (then renormalized), its
    controls by 0.5 (then clamped to the box), and the measurement's
    positions and velocities by 0.3. State weights are log-uniform in
    [1e-2, ``q_max``] with one random entry at ``q_max``; control weights
    are uniform in [0.5, 2]. Each ``q_max`` has its own fixed draws.
    """
    rng = np.random.default_rng([6, round(np.log10(q_max))])
    N, dt = 19, 0.05
    trajs = [preset("agg1", dt=dt), preset("agg2", dt=dt)]
    probs = []
    for i in range(40):
        traj = trajs[i % 2]
        win = traj.window(int(rng.integers(0, len(traj) - N - 1)), N + 1)
        xs = win.xs.copy()
        xs[:, :6] += 0.1 * rng.standard_normal((N + 1, 6))
        xs[:, _QUAT] += 0.05 * rng.standard_normal((N + 1, 4))
        xs[:, _QUAT] /= np.linalg.norm(xs[:, _QUAT], axis=1, keepdims=True)
        us = SATURATED_BOX.clamp(win.us[:N] + 0.5 * rng.standard_normal((N, 4)))
        x_meas = win.xs[0].copy()
        x_meas[:6] += 0.3 * rng.standard_normal(6)
        q = 10.0 ** rng.uniform(-2.0, np.log10(q_max), 10)
        q[rng.integers(0, 10)] = q_max
        w = WeightVector(q, rng.uniform(0.5, 2.0, 4))
        probs.append(build_qp(PredictionTrajectory(xs, us), win, w, x_meas, SATURATED_BOX, dt))
    return probs
