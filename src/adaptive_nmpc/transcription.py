"""Multiple-shooting transcription and structured QP solver.

One prediction step solves, for fixed diagonal weights,

    min   sum_k (dz_k + alpha*l_k)^T diag(q, r) dz_k   +  terminal state term
    s.t.  dx_1     = x_meas - x_pr_1
          dx_{k+1} = defect_k + A_k dx_k + B_k du_k
          u_min <= u_pr_k + du_k <= u_max

with ``dz_k = [dx_k; du_k]`` and ``l_k`` the reference error of the current
prediction. The QP is condensed once: the dynamics give every ``dx_k`` as
an affine map of the stacked controls, which leaves a dense QP in the N*4
controls alone, with Hessian ``H`` and gradient ``H du + g`` (Frison and
Jorgensen, CDC 2013). The control boxes are handled by an active-set loop
on that dense QP, as in qpOASES (Ferreau et al., Math. Prog. Comp. 2014):
each working set holds some controls at a bound and solves one linear
system in the free ones, then checks the bounds of the free controls and
the multiplier signs of the held ones. The loop can start from a given
working set (the controller passes the one the previous round or tick
ended with). The success certificate is the KKT residual of the
weight-normalized problem, with costates from one backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CONTROL_DIM,
    QUADROTOR,
    STATE_DIM,
    ControlLimits,
    LinearizedStage,
    QuadrotorModel,
)
from .trajectories import ReferenceWindow

#: Floor applied to state weights so the QP Hessian stays positive definite
#: even when adaptation returns zeros.
Q_MIN = 1e-6

#: Working sets the active-set loop may solve before :func:`solve_qp` gives up.
QP_MAX_ITER = 200

#: KKT residual of the weight-normalized problem above which :func:`solve_qp` fails.
QP_TOL = 1e-6


class QpSolveError(RuntimeError):
    """QP solve failed; the message says why."""


@dataclass(frozen=True)
class WeightVector:
    """Diagonal state and control weights (q >= 0, r > 0) as float tuples, an immutable value."""

    q: tuple[float, ...]  # (10,)
    r: tuple[float, ...]  # (4,)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(STATE_DIM)
        r = np.asarray(self.r, dtype=float).reshape(CONTROL_DIM)
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(r)):
            raise ValueError("weights must be finite")
        if np.any(q < 0.0):
            raise ValueError(f"state weights must be non-negative, got {q}")
        if np.any(r <= 0.0):
            raise ValueError(f"control weights must be positive, got {r}")
        object.__setattr__(self, "q", tuple(q.tolist()))
        object.__setattr__(self, "r", tuple(r.tolist()))


@dataclass
class PredictionTrajectory:
    """Current prediction: N+1 states and N controls as stacked rows."""

    xs: np.ndarray  # (N+1, 10)
    us: np.ndarray  # (N, 4)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.us = np.asarray(self.us, dtype=float)
        if self.xs.ndim != 2 or self.us.ndim != 2 or self.xs.shape[0] != self.us.shape[0] + 1:
            raise ValueError(f"prediction shapes inconsistent: {self.xs.shape}, {self.us.shape}")

    @property
    def horizon(self) -> int:
        return self.us.shape[0]


@dataclass
class ShootingProblem:
    """Stage-wise QP data for one prediction step.

    ``A``, ``B`` and ``defects`` are the stacked stage arrays exactly as
    :meth:`QuadrotorModel.discretize` and the shooting gaps give them.
    """

    A: np.ndarray  # (N, 10, 10) state Jacobians of the discrete step
    B: np.ndarray  # (N, 10, 4) control Jacobians of the discrete step
    defects: np.ndarray  # (N, 10) shooting continuity residuals
    lx: np.ndarray  # (N+1, 10) state reference errors of the prediction
    lu: np.ndarray  # (N, 4) control reference errors
    qs: np.ndarray  # (N+1, 10) per-stage state weights
    rs: np.ndarray  # (N, 4) per-stage control weights
    initial_gap: np.ndarray  # (10,)
    u_pred: np.ndarray  # (N, 4) predicted controls the box limits act on
    limits: ControlLimits | None = ControlLimits()
    alpha: float = 1.0

    @property
    def horizon(self) -> int:
        return self.B.shape[0]

    @property
    def stages(self) -> list[LinearizedStage]:
        """Per-stage views of ``A``, ``B`` and ``defects``, built on each read.

        The solver never reads this; it exists for code that inspects one
        stage at a time.
        """
        return [LinearizedStage(self.A[k], self.B[k], self.defects[k]) for k in range(self.horizon)]


@dataclass
class QpSolution:
    dx: np.ndarray  # (N+1, 10)
    du: np.ndarray  # (N, 4)
    kkt_residual: float
    active: np.ndarray | None = None  # (N, 4) int8 final working set: -1 lower, 0 free, +1 upper
    working_sets: int = 0  # working sets the active-set loop solved

    @property
    def step_norm(self) -> float:
        return max(float(np.abs(self.dx).max()), float(np.abs(self.du).max()))


def build_qp(
    pred: PredictionTrajectory,
    refs: ReferenceWindow,
    weights: WeightVector,
    x_meas: np.ndarray,
    limits: ControlLimits | None,
    alpha: float,
    dt: float,
    model: QuadrotorModel = QUADROTOR,
) -> ShootingProblem:
    """Linearize the prediction and assemble the stage-wise QP data.

    Defects are ``model.step(x_k, u_k, dt) - x_{k+1}`` on the prediction;
    Jacobians are those of the same discrete map, evaluated stage-wise.
    The weights apply to every stage.
    """
    N = pred.horizon
    if len(refs) < N + 1:
        raise ValueError(f"reference window of length {len(refs)} too short for horizon {N}")

    x_next, A, B = model.discretize(pred.xs[:-1], pred.us, dt)
    return ShootingProblem(
        A=A,
        B=B,
        defects=x_next - pred.xs[1:],
        lx=pred.xs - refs.xs[: N + 1],
        lu=pred.us - refs.us[:N],
        qs=np.tile(weights.q, (N + 1, 1)),
        rs=np.tile(weights.r, (N, 1)),
        initial_gap=x_meas - pred.xs[0],
        u_pred=pred.us.copy(),
        limits=limits,
        alpha=alpha,
    )


def _condense(A, B, defects, qs, rs, qlin, rlin, gap):
    """The state deviations as an affine map of the controls, and the dense QP they leave.

    Returns ``G (N+1, n, Nm+1)`` with ``dx_k = G_k [du; 1]``: its leading
    columns are ``Gamma_k`` and its last the free response ``c_k``. Also
    returns ``H = 2 (Gamma^T diag(q) Gamma + diag(r))`` and
    ``g = Gamma^T (2 q c + qlin) + rlin``, so that ``H du + g`` is the
    cost's gradient in ``du``. ``H`` is summed one stage product at a time:
    one product over all stages runs threaded in BLAS, and its last bits
    then depend on the thread count.
    """
    N, n, m = B.shape
    nu = N * m
    G = np.zeros((N + 1, n, nu + 1))
    G[0, :, nu] = gap
    for k in range(N):
        np.matmul(A[k], G[k], out=G[k + 1])
        G[k + 1, :, k * m : (k + 1) * m] = B[k]
        G[k + 1, :, nu] += defects[k]
    W = 2.0 * qs[:, :, None] * G
    W[:, :, nu] += qlin
    # K = [H - 2 diag(r) | g - rlin]
    K = np.zeros((nu, nu + 1))
    term = np.empty_like(K)
    for k in range(1, N + 1):
        np.matmul(G[k, :, :nu].T, W[k], out=term)
        K += term
    return G, K[:, :nu] + np.diag(2.0 * rs.ravel()), K[:, nu] + rlin.ravel()


def _solve_working_set(H, g, clamp_val, clamped):
    """Minimizer of the condensed QP with the clamped controls held, and its gradient ``H du + g``.

    Solves ``H_FF du_F = -(g_F + H_FC du_C)`` over the free controls F, with
    ``du_C`` the clamp values. Both results have the shape of ``clamped``.
    """
    held = clamped.ravel()
    free = ~held
    du = np.where(held, clamp_val.ravel(), 0.0)
    if free.any():
        H_F = H[free]
        du[free] = np.linalg.solve(H_F[:, free], -(g[free] + H_F[:, held] @ du[held]))
    return du.reshape(clamped.shape), (H @ du + g).reshape(clamped.shape)


def _kkt_residual(
    A, B, defects, qs, rs, qlin, rlin, gap, lo, hi, dx, du, lam
) -> float:
    """Max-norm KKT residual of the box-constrained problem at (dx, du, lam)."""
    at_lo = np.abs(du - lo) <= 1e-12
    at_hi = np.abs(du - hi) <= 1e-12
    dyn = np.einsum("kij,kj->ki", A, dx[:-1]) + np.einsum("kij,kj->ki", B, du) + defects - dx[1:]
    grad_u = 2.0 * rs * du + rlin + np.einsum("kji,kj->ki", B, lam[1:])
    # a control held at its upper bound needs mu = -grad_u >= 0, at its lower bound mu = grad_u >= 0
    grad_u = np.where(
        at_hi & ~at_lo,
        np.maximum(grad_u, 0.0),
        np.where(at_lo & ~at_hi, np.maximum(-grad_u, 0.0), np.abs(grad_u)),
    )
    grad_x = 2.0 * qs[1:-1] * dx[1:-1] + qlin[1:-1] + np.einsum("kji,kj->ki", A[1:], lam[2:]) - lam[1:-1]
    terminal = 2.0 * qs[-1] * dx[-1] + qlin[-1] - lam[-1]
    parts = (
        np.abs(dx[0] - gap),
        np.abs(dyn).ravel(),
        grad_u.ravel(),
        np.abs(grad_x).ravel(),
        np.abs(terminal),
        np.maximum(lo - du, 0.0).ravel(),
        np.maximum(du - hi, 0.0).ravel(),
    )
    return float(np.concatenate(parts).max())


def solve_qp(prob: ShootingProblem, active: np.ndarray | None = None) -> QpSolution:
    """Solve the stage-wise QP; raises :class:`QpSolveError` on failure.

    ``active`` is the working set the active-set loop starts from, an
    ``(N, 4)`` array of -1 (held at the lower bound), 0 (free) or +1 (held
    at the upper bound); None starts with every control free. It is
    ignored when the problem has no limits. The clamp values always come
    from the problem's own box. The solution carries the final working set
    and the number of working sets the loop solved, at most
    :data:`QP_MAX_ITER`. When the certificate fails or the loop does not
    converge, the error names the largest-magnitude input as well, so a huge
    measurement shows as a huge gap.

    The reported residual is that of the weight-normalized problem (weights
    divided by their largest entry), which keeps the certificate meaningful
    when adapted weights grow very large; it must not exceed
    :data:`QP_TOL`. The minimizer is unaffected by this scaling.
    """
    N = prob.horizon
    A, B, defects = prob.A, prob.B, prob.defects
    inputs = (("A", A), ("B", B), ("defects", defects), ("gap", prob.initial_gap),
              ("lx", prob.lx), ("lu", prob.lu), ("q", prob.qs), ("r", prob.rs))
    for name, arr in inputs:
        if not np.isfinite(arr).all():
            raise QpSolveError(f"non-finite QP data in {name}")

    scale = max(1.0, float(prob.qs.max()), float(prob.rs.max()))
    qs = np.maximum(prob.qs, Q_MIN) / scale
    rs = prob.rs / scale
    if np.any(rs <= 0.0):
        raise QpSolveError("control weights must be positive")
    qlin = prob.alpha * qs * prob.lx
    rlin = prob.alpha * rs * prob.lu

    act = np.zeros((N, CONTROL_DIM), dtype=np.int8)
    if prob.limits is None:
        lo = np.full(prob.u_pred.shape, -np.inf)
        hi = np.full(prob.u_pred.shape, np.inf)
    else:
        lo = np.broadcast_to(prob.limits.lower, prob.u_pred.shape) - prob.u_pred
        hi = np.broadcast_to(prob.limits.upper, prob.u_pred.shape) - prob.u_pred
        if active is not None:
            active = np.asarray(active)
            if active.shape != act.shape or np.any(np.abs(active) > 1):
                raise ValueError(f"active set must be an {act.shape} array of -1, 0 or +1")
            act[:] = active

    G, H, g = _condense(A, B, defects, qs, rs, qlin, rlin, prob.initial_gap)

    dual_tol = 1e-10
    seen_sets: set[bytes] = set()
    cycling = False

    for working_sets in range(1, QP_MAX_ITER + 1):
        clamped = act != 0
        at_upper = act > 0
        clamp_val = np.where(at_upper, hi, np.where(clamped, lo, 0.0))
        du, grad_u = _solve_working_set(H, g, clamp_val, clamped)

        viol_hi = ~clamped & (du > hi + 1e-12)
        viol_lo = ~clamped & (du < lo - 1e-12)
        # multiplier sign: upper-bound mu = -grad_u, lower-bound mu = +grad_u
        mult = np.where(at_upper, -grad_u, grad_u)
        release = clamped & (mult < -dual_tol)

        if not viol_hi.any() and not viol_lo.any() and not release.any():
            dx = G @ np.append(du.ravel(), 1.0)
            if not (np.isfinite(dx).all() and np.isfinite(du).all()):
                raise QpSolveError("QP solve produced non-finite iterates")
            # costates from one backward pass: lam_k = 2 q_k dx_k + qlin_k + A_k^T lam_{k+1}
            lam = 2.0 * qs * dx + qlin
            for k in range(N - 1, -1, -1):
                lam[k] += A[k].T @ lam[k + 1]
            res = _kkt_residual(A, B, defects, qs, rs, qlin, rlin, prob.initial_gap, lo, hi, dx, du, lam)
            if res <= QP_TOL:
                return QpSolution(dx, du, res, act, working_sets)
            failure = f"KKT residual {res:.3e} exceeds tolerance {QP_TOL:.1e}"
            break

        if viol_hi.any() or viol_lo.any():
            act[viol_hi] = 1
            act[viol_lo] = -1
        elif not cycling:
            # release every wrong-sign multiplier at once; fall back to
            # single releases if the working set ever repeats
            act[release] = 0
        else:
            act[np.unravel_index(np.argmin(np.where(release, mult, np.inf)), mult.shape)] = 0

        sig = act.tobytes()
        if sig in seen_sets:
            cycling = True
        seen_sets.add(sig)
    else:
        failure = f"active-set loop did not converge within {QP_MAX_ITER} iterations"
    size, name = max((float(np.abs(arr).max()), name) for name, arr in inputs)
    raise QpSolveError(f"{failure}; largest QP input |{name}| = {size:.1e}")


def apply_step(
    pred: PredictionTrajectory,
    sol: QpSolution,
    alpha: float,
    limits: ControlLimits | None = None,
    model: QuadrotorModel = QUADROTOR,
) -> PredictionTrajectory:
    """Take the (partial) Newton step, renormalize attitudes, clamp controls."""
    xs = model.project(pred.xs + alpha * sol.dx)
    us = pred.us + alpha * sol.du
    if limits is not None:
        us = limits.clamp(us)
    return PredictionTrajectory(xs, us)
