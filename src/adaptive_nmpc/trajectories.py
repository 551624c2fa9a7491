"""Reference trajectory generation for the tracking benchmarks.

Four shipped presets: two aggressive waypoint courses (``agg1``, ``agg2``),
a circle (``circle``) and a diamond (``diamond``). Waypoint courses use
closed-form rest-to-rest 7th-order polynomial segments (position, velocity,
acceleration and jerk all continuous at the joints, zero end velocities),
which keeps references smooth and dynamically feasible without a trajectory
optimizer.

Reference controls come from the zero-yaw differential-flatness map: the
collective thrust balances ``a + [0, 0, g]``, the attitude is the minimal
rotation tilting body z onto that vector, and body rates follow from
numerical differentiation of the attitude sequence.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import (
    CONTROL_DIM,
    GRAVITY,
    STATE_DIM,
    _quat_conjugate,
    _quat_multiply,
    _quat_normalize,
)

#: Columns of the trajectory CSV interchange format (header row required).
CSV_COLUMNS = (
    "t",
    "p_x",
    "p_y",
    "p_z",
    "v_x",
    "v_y",
    "v_z",
    "q_w",
    "q_x",
    "q_y",
    "q_z",
    "c",
    "w_x",
    "w_y",
    "w_z",
)

PRESET_NAMES = ("agg1", "agg2", "circle", "diamond")


@dataclass(frozen=True)
class ReferenceWindow:
    """Contiguous slice of a reference trajectory, as raw arrays."""

    xs: np.ndarray  # (n, 10)
    us: np.ndarray  # (n, 4)

    def __len__(self) -> int:
        return self.xs.shape[0]


class ReferenceTrajectory:
    """Uniformly sampled reference with per-point states and controls."""

    def __init__(self, ts: np.ndarray, xs: np.ndarray, us: np.ndarray, dt: float, name: str = ""):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.us = np.asarray(us, dtype=float)
        self.dt = float(dt)
        self.name = name
        if self.xs.shape != (len(self.ts), STATE_DIM) or self.us.shape != (len(self.ts), CONTROL_DIM):
            raise ValueError("inconsistent trajectory array shapes")

    def __len__(self) -> int:
        return len(self.ts)

    def window(self, start: int, length: int) -> ReferenceWindow:
        """Points ``start .. start+length-1``, holding the final point past the end."""
        idx = np.minimum(np.arange(start, start + length), len(self) - 1)
        return ReferenceWindow(self.xs[idx], self.us[idx])

    def validate(self, v_max: float = 20.0) -> None:
        if len(self) < 2:
            raise ValueError("trajectory needs at least 2 points")
        if not np.all(np.isfinite(self.xs)) or not np.all(np.isfinite(self.us)):
            raise ValueError("trajectory contains non-finite values")
        gaps = np.diff(self.ts)
        if not np.allclose(gaps, self.dt, rtol=0.0, atol=1e-9):
            raise ValueError("sample times are not uniformly spaced by dt")
        qnorm = np.linalg.norm(self.xs[:, 6:10], axis=1)
        if np.abs(qnorm - 1.0).max() > 1e-9:
            raise ValueError("reference quaternions are not unit norm")
        jump = np.linalg.norm(np.diff(self.xs[:, 0:3], axis=0), axis=1)
        if jump.max() >= v_max * self.dt:
            raise ValueError(f"position jump {jump.max():.3f} exceeds v_max*dt")

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for t, x, u in zip(self.ts, self.xs, self.us):
                writer.writerow([repr(float(v)) for v in (t, *x, *u)])

    @classmethod
    def from_csv(cls, path: str | Path, name: str = "") -> "ReferenceTrajectory":
        with open(path, newline="") as fh:
            reader = csv.reader(row for row in fh if not row.startswith("#"))
            header = next(reader)
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected trajectory CSV header {header}")
            data = np.array([[float(v) for v in row] for row in reader])
        if data.ndim != 2 or data.shape[0] < 2:
            raise ValueError("trajectory CSV needs at least 2 data rows")
        ts = data[:, 0]
        dt = float(ts[1] - ts[0])
        return cls(ts, data[:, 1:11], data[:, 11:15], dt, name or Path(path).stem)


# ---------------------------------------------------------------------------
# Differential flatness
# ---------------------------------------------------------------------------


def derive_reference_controls(
    pos: np.ndarray, vel: np.ndarray, acc: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map sampled flat outputs to reference states and controls (zero yaw).

    Parameters
    ----------
    pos, vel, acc : (L, 3) arrays of position and its first two derivatives.
    dt : sample spacing, used for the body-rate differentiation.

    Returns
    -------
    (xs, us) : arrays of shape (L, 10) and (L, 4).
    """
    pos = np.asarray(pos, dtype=float)
    vel = np.asarray(vel, dtype=float)
    acc = np.asarray(acc, dtype=float)
    L = pos.shape[0]

    thrust_vec = acc + np.array([0.0, 0.0, GRAVITY])
    c = np.linalg.norm(thrust_vec, axis=1)
    if c.min() < 1e-6:
        raise ValueError("free-fall reference: thrust vector vanishes")
    z_b = thrust_vec / c[:, None]

    # minimal rotation taking body z onto z_b: q = normalize([1 + e3.z_b, e3 x z_b])
    w = 1.0 + z_b[:, 2]
    if w.min() < 1e-9:
        raise ValueError("reference attitude singular (thrust pointing straight down)")
    q = np.column_stack([w, -z_b[:, 1], z_b[:, 0], np.zeros(L)])
    q = _quat_normalize(q)

    # body rates from the attitude sequence: w = 2 vec(conj(q) (x) dq/dt)
    dq = np.empty_like(q)
    dq[1:-1] = (q[2:] - q[:-2]) / (2.0 * dt)
    dq[0] = (q[1] - q[0]) / dt
    dq[-1] = (q[-1] - q[-2]) / dt
    omega = 2.0 * _quat_multiply(_quat_conjugate(q), dq)[:, 1:]

    xs = np.hstack([pos, vel, q])
    us = np.hstack([c[:, None], omega])
    return xs, us


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _time_grid(duration: float, dt: float) -> np.ndarray:
    n = int(round(duration / dt))
    return np.arange(n + 1) * dt


def gen_circle(
    radius: float, period: float, altitude: float, dt: float, laps: int = 1, name: str = "circle"
) -> ReferenceTrajectory:
    """Constant-speed circle in the x-y plane at fixed altitude."""
    if radius <= 0 or period <= 0 or dt <= 0 or laps <= 0:
        raise ValueError("circle parameters must be positive")
    ts = _time_grid(laps * period, dt)
    th = 2.0 * np.pi * ts / period
    rate = 2.0 * np.pi / period
    pos = np.column_stack([radius * np.cos(th), radius * np.sin(th), np.full_like(ts, altitude)])
    vel = np.column_stack([-radius * rate * np.sin(th), radius * rate * np.cos(th), np.zeros_like(ts)])
    acc = np.column_stack([-radius * rate**2 * np.cos(th), -radius * rate**2 * np.sin(th), np.zeros_like(ts)])
    xs, us = derive_reference_controls(pos, vel, acc, dt)
    return ReferenceTrajectory(ts, xs, us, dt, name)


def _rest_to_rest(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """7th-order rest-to-rest blend s(tau) on [0, 1] and its two derivatives."""
    s = 35.0 * tau**4 - 84.0 * tau**5 + 70.0 * tau**6 - 20.0 * tau**7
    ds = 140.0 * tau**3 - 420.0 * tau**4 + 420.0 * tau**5 - 140.0 * tau**6
    dds = 420.0 * tau**2 - 1680.0 * tau**3 + 2100.0 * tau**4 - 840.0 * tau**5
    return s, ds, dds


def gen_aggressive(
    waypoints: Sequence[Sequence[float]],
    segment_times: Sequence[float],
    dt: float,
    name: str = "aggressive",
) -> ReferenceTrajectory:
    """Waypoint course of rest-to-rest 7th-order polynomial segments."""
    wps = np.asarray(waypoints, dtype=float)
    times = np.asarray(segment_times, dtype=float)
    if wps.ndim != 2 or wps.shape[1] != 3 or wps.shape[0] < 2:
        raise ValueError("need at least 2 waypoints of dimension 3")
    if len(times) != wps.shape[0] - 1:
        raise ValueError(f"{wps.shape[0] - 1} segments need {wps.shape[0] - 1} times, got {len(times)}")
    if dt <= 0 or np.any(times <= 0):
        raise ValueError("dt and segment times must be positive")

    starts = np.concatenate([[0.0], np.cumsum(times)])
    ts = _time_grid(starts[-1], dt)
    seg = np.minimum(np.searchsorted(starts, ts, side="right") - 1, len(times) - 1)
    tau = (ts - starts[seg]) / times[seg]
    s, ds, dds = _rest_to_rest(np.clip(tau, 0.0, 1.0))

    delta = wps[seg + 1] - wps[seg]
    pos = wps[seg] + delta * s[:, None]
    vel = delta * (ds / times[seg])[:, None]
    acc = delta * (dds / times[seg] ** 2)[:, None]
    xs, us = derive_reference_controls(pos, vel, acc, dt)
    return ReferenceTrajectory(ts, xs, us, dt, name)


def gen_diamond(side: float, lap_time: float, altitude: float, dt: float, name: str = "diamond") -> ReferenceTrajectory:
    """Closed rhombus through 4 vertices in the x-y plane at fixed altitude."""
    if side <= 0 or lap_time <= 0 or dt <= 0:
        raise ValueError("diamond parameters must be positive")
    d = side / np.sqrt(2.0)
    verts = [
        (d, 0.0, altitude),
        (0.0, d, altitude),
        (-d, 0.0, altitude),
        (0.0, -d, altitude),
        (d, 0.0, altitude),
    ]
    return gen_aggressive(verts, [lap_time / 4.0] * 4, dt, name=name)


def preset(name: str, dt: float = 0.05) -> ReferenceTrajectory:
    """One of the four shipped benchmark trajectories."""
    if name == "circle":
        return gen_circle(radius=2.0, period=6.0, altitude=1.5, dt=dt, laps=1, name=name)
    if name == "diamond":
        return gen_diamond(side=2.0, lap_time=8.0, altitude=1.5, dt=dt, name=name)
    if name == "agg1":
        waypoints = [
            (0.0, 0.0, 1.0),
            (2.5, 1.5, 2.0),
            (5.0, -1.5, 1.2),
            (7.0, 0.5, 2.2),
        ]
        return gen_aggressive(waypoints, [1.7, 1.7, 1.7], dt, name=name)
    if name == "agg2":
        waypoints = [
            (0.0, 0.0, 1.5),
            (1.5, 2.0, 2.5),
            (3.0, -2.0, 1.0),
            (4.5, 2.0, 2.5),
            (6.0, 0.0, 1.5),
        ]
        return gen_aggressive(waypoints, [1.6, 1.8, 1.8, 1.6], dt, name=name)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
