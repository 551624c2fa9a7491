"""Quadrotor rigid-body model: continuous dynamics, RK4 integration, discrete Jacobians.

Conventions
-----------
State vector (10,): ``[p (3), v (3), q (4)]`` with position and velocity in
the world frame and the attitude quaternion scalar-first ``[qw, qx, qy, qz]``,
rotating body-frame vectors into the world frame.

Control vector (4,): ``[c, wx, wy, wz]`` with ``c`` the mass-normalized
collective thrust (m/s^2, along body z) and ``w`` the body angular rates
(rad/s, body frame).

The continuous model is

    dp/dt = v
    dv/dt = g_W + R(q) [0, 0, c]
    dq/dt = 0.5 * q (x) [0, w]

with ``g_W = [0, 0, -9.81]``. The discrete map is one classical RK4 step
followed by quaternion renormalization; its Jacobians are propagated
analytically through the RK4 stages and the renormalization.

``dq/dt`` is written once, in :func:`_quat_rate`. Because it is bilinear in
``(q, w)``, the continuous Jacobian reads its two rate blocks off that
helper at unit quaternions and unit rates; only the thrust blocks are
stacked matrices built with ``np.cross``.

Every function operates on raw arrays and broadcasts over the leading batch
dimensions of the state and the control alike; :class:`QuadrotorModel`
(``step``, ``discretize``, ``project``) is the interface the controller uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81
STATE_DIM = 10
CONTROL_DIM = 4

_POS = slice(0, 3)
_VEL = slice(3, 6)
_QUAT = slice(6, 10)

_EZ = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class State:
    """Vehicle state: world-frame position/velocity plus body-to-world quaternion."""

    p_WB: np.ndarray
    v_WB: np.ndarray
    q_WB: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_WB", np.asarray(self.p_WB, dtype=float).reshape(3))
        object.__setattr__(self, "v_WB", np.asarray(self.v_WB, dtype=float).reshape(3))
        object.__setattr__(self, "q_WB", np.asarray(self.q_WB, dtype=float).reshape(4))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.p_WB, self.v_WB, self.q_WB])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "State":
        vec = np.asarray(vec, dtype=float).reshape(STATE_DIM)
        return cls(vec[_POS], vec[_VEL], vec[_QUAT])


@dataclass(frozen=True)
class ControlLimits:
    """Box limits on the control vector, an immutable value.

    ``omega_min``/``omega_max`` accept scalars (broadcast per axis) or
    length-3 sequences and are kept as 3-tuples of floats, so boxes compare
    and hash by value whichever spelling built them. Thrust cannot be
    negative: ``c_min >= 0``.
    """

    c_min: float = 1.0
    c_max: float = 25.0
    omega_min: tuple[float, float, float] = (-5.0, -5.0, -5.0)
    omega_max: tuple[float, float, float] = (5.0, 5.0, 5.0)

    def __post_init__(self):
        object.__setattr__(self, "c_min", float(self.c_min))
        object.__setattr__(self, "c_max", float(self.c_max))
        for name in ("omega_min", "omega_max"):
            object.__setattr__(self, name, tuple(np.broadcast_to(getattr(self, name), (3,)).astype(float).tolist()))
        if self.c_min < 0.0:
            raise ValueError(f"c_min must be non-negative, got {self.c_min}")
        if not self.c_min < self.c_max:
            raise ValueError(f"need c_min < c_max, got [{self.c_min}, {self.c_max}]")
        if not all(lo < hi for lo, hi in zip(self.omega_min, self.omega_max)):
            raise ValueError(f"need omega_min < omega_max elementwise, got {self.omega_min}, {self.omega_max}")

    @property
    def lower(self) -> np.ndarray:
        """``[c_min, *omega_min]`` as a new ``(4,)`` array on each read."""
        return np.array((self.c_min, *self.omega_min))

    @property
    def upper(self) -> np.ndarray:
        """``[c_max, *omega_max]`` as a new ``(4,)`` array on each read."""
        return np.array((self.c_max, *self.omega_max))

    def clamp(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.lower, self.upper)


# ---------------------------------------------------------------------------
# Vector core (batched over leading dimensions)
# ---------------------------------------------------------------------------


def _quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q) to v: (w^2 - u.u) v + 2 (u.v) u + 2 w (u x v)."""
    w = q[..., :1]
    u = q[..., 1:]
    uv = np.sum(u * v, axis=-1, keepdims=True)
    uu = np.sum(u * u, axis=-1, keepdims=True)
    return (w * w - uu) * v + 2.0 * uv * u + 2.0 * w * np.cross(u, v)


def _skew(v: np.ndarray) -> np.ndarray:
    z = np.zeros_like(v[..., 0])
    return np.stack(
        [
            np.stack([z, -v[..., 2], v[..., 1]], axis=-1),
            np.stack([v[..., 2], z, -v[..., 0]], axis=-1),
            np.stack([-v[..., 1], v[..., 0], z], axis=-1),
        ],
        axis=-2,
    )


def _rotate_jacobian_q(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d(R(q) v)/dq for fixed v, shape (..., 3, 4)."""
    w = q[..., :1]
    u = q[..., 1:]
    col_w = 2.0 * (w * v + np.cross(u, v))
    uv = np.sum(u * v, axis=-1, keepdims=True)
    block = (
        -2.0 * v[..., :, None] * u[..., None, :]
        + 2.0 * uv[..., None] * np.eye(3)
        + 2.0 * u[..., :, None] * v[..., None, :]
        - 2.0 * w[..., None] * _skew(v)
    )
    return np.concatenate([col_w[..., :, None], block], axis=-1)


def _quat_rate(q: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """dq/dt = 0.5 q (x) [0, w] written out by component into ``out[..., 0:4]``."""
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    wx, wy, wz = w[..., 0], w[..., 1], w[..., 2]
    out[..., 0] = -0.5 * (qx * wx + qy * wy + qz * wz)
    out[..., 1] = 0.5 * (qw * wx + qy * wz - qz * wy)
    out[..., 2] = 0.5 * (qw * wy + qz * wx - qx * wz)
    out[..., 3] = 0.5 * (qw * wz + qx * wy - qy * wx)


def _deriv(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f(x, u) written out by component into one ``(..., 10)`` array."""
    qw, qx, qy, qz = x[..., 6], x[..., 7], x[..., 8], x[..., 9]
    c = u[..., 0]
    # dv: c times the third column of R(q), plus gravity
    ax = 2.0 * c * (qx * qz + qw * qy)
    out = np.empty(ax.shape + (STATE_DIM,))
    out[..., _POS] = x[..., _VEL]
    out[..., 3] = ax
    out[..., 4] = 2.0 * c * (qy * qz - qw * qx)
    out[..., 5] = c * (qw * qw - qx * qx - qy * qy + qz * qz) - GRAVITY
    _quat_rate(x[..., _QUAT], u[..., 1:], out[..., _QUAT])
    return out


def _jac_continuous(x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    q = x[..., _QUAT]
    c = u[..., :1]
    omega = u[..., 1:]
    Jx = np.zeros(batch + (STATE_DIM, STATE_DIM))
    Ju = np.zeros(batch + (STATE_DIM, CONTROL_DIM))
    Jx[..., 0:3, 3:6] = np.eye(3)
    zeros = np.zeros_like(c)
    thrust_body = np.concatenate([zeros, zeros, c], axis=-1)
    Jx[..., 3:6, 6:10] = _rotate_jacobian_q(q, thrust_body)
    Ju[..., 3:6, 0] = _rotate(q, np.broadcast_to(_EZ, batch + (3,)))
    # dq/dt is bilinear in (q, w): its Jacobian columns are dq/dt at unit q and at unit w
    _quat_rate(np.eye(4), omega[..., None, :], Jx[..., 6:10, 6:10].swapaxes(-1, -2))
    _quat_rate(q[..., None, :], np.eye(3), Ju[..., 6:10, 1:4].swapaxes(-1, -2))
    return Jx, Ju


def _rk4(x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """One classical RK4 step before renormalization: returns ``(x_raw, stage_points)``."""
    k1 = _deriv(x, u)
    x2 = x + 0.5 * dt * k1
    k2 = _deriv(x2, u)
    x3 = x + 0.5 * dt * k2
    k3 = _deriv(x3, u)
    x4 = x + dt * k3
    k4 = _deriv(x4, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, x2, x3, x4)


def _project(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float, copy=True)
    out[..., _QUAT] = _quat_normalize(out[..., _QUAT])
    return out


def _step(x: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    return _project(_rk4(x, u, dt)[0])


def _step_jacobians(x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step with Jacobians of the renormalized map.

    Returns ``(x_next, A, B)`` where ``A = d(step)/dx`` and ``B = d(step)/du``,
    both of the full discrete map including quaternion renormalization;
    ``x_next`` is :func:`_step` of the same inputs.
    """
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    eye = np.broadcast_to(np.eye(STATE_DIM), batch + (STATE_DIM, STATE_DIM))

    raw, points = _rk4(x, u, dt)
    (J1x, J1u), (J2x, J2u), (J3x, J3u), (J4x, J4u) = (_jac_continuous(p, u) for p in points)

    dk1x = J1x
    dk2x = J2x @ (eye + 0.5 * dt * dk1x)
    dk3x = J3x @ (eye + 0.5 * dt * dk2x)
    dk4x = J4x @ (eye + dt * dk3x)
    A = eye + (dt / 6.0) * (dk1x + 2.0 * dk2x + 2.0 * dk3x + dk4x)

    dk1u = J1u
    dk2u = J2u + J2x @ (0.5 * dt * dk1u)
    dk3u = J3u + J3x @ (0.5 * dt * dk2u)
    dk4u = J4u + J4x @ (dt * dk3u)
    B = (dt / 6.0) * (dk1u + 2.0 * dk2u + 2.0 * dk3u + dk4u)

    x_next = _project(raw)
    q_hat = x_next[..., _QUAT]
    norm = np.linalg.norm(raw[..., _QUAT], axis=-1, keepdims=True)
    # d(q/|q|)/dq = (I - q_hat q_hat^T) / |q|
    Jn = (np.eye(4) - q_hat[..., :, None] * q_hat[..., None, :]) / norm[..., None]
    A[..., _QUAT, :] = Jn @ A[..., _QUAT, :]
    B[..., _QUAT, :] = Jn @ B[..., _QUAT, :]
    return x_next, A, B


@dataclass(frozen=True)
class QuadrotorModel:
    """Discrete-time transition map consumed by the shooting transcription.

    Operates on raw state/control vectors; stateless and safe to share
    across threads. Instances compare equal, also after a pickle round trip.
    """

    def step(self, x: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
        return _step(x, u, dt)

    def discretize(self, x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step and Jacobians in one pass: returns (x_next, A, B)."""
        return _step_jacobians(x, u, dt)

    def project(self, x: np.ndarray) -> np.ndarray:
        return _project(x)


QUADROTOR = QuadrotorModel()
