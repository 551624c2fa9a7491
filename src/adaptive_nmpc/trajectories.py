"""Reference trajectories for the tracking benchmarks.

Four shipped presets, built by :func:`preset`: two aggressive waypoint
courses (``agg1``, ``agg2``), a circle (``circle``) and a diamond
(``diamond``). Any other reference comes in as a CSV file
(:meth:`ReferenceTrajectory.from_csv`). Waypoint courses use
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

import numpy as np

from .dynamics import CONTROL_DIM, GRAVITY, STATE_DIM, _quat_normalize

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

    def __init__(self, ts: np.ndarray, xs: np.ndarray, us: np.ndarray, name: str = ""):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.us = np.asarray(us, dtype=float)
        self.name = name
        if len(self.ts) < 2:
            raise ValueError("trajectory needs at least 2 points")
        if self.xs.shape != (len(self.ts), STATE_DIM) or self.us.shape != (len(self.ts), CONTROL_DIM):
            raise ValueError("inconsistent trajectory array shapes")
        self.dt = float(self.ts[1] - self.ts[0])

    def __len__(self) -> int:
        return len(self.ts)

    def window(self, start: int, length: int) -> ReferenceWindow:
        """Points ``start .. start+length-1``, holding the final point past the end."""
        idx = np.minimum(np.arange(start, start + length), len(self) - 1)
        return ReferenceWindow(self.xs[idx], self.us[idx])

    def validate(self) -> None:
        """Reject a non-positive dt, non-finite values, uneven sampling, non-unit quaternions and jumps of 20 m/s or more."""
        if not self.dt > 0.0:
            raise ValueError(f"sample time dt must be positive (t must increase), got {self.dt!r}")
        if not np.all(np.isfinite(self.xs)) or not np.all(np.isfinite(self.us)):
            raise ValueError("trajectory contains non-finite values")
        gaps = np.diff(self.ts)
        if not np.allclose(gaps, self.dt, rtol=0.0, atol=1e-9):
            raise ValueError("sample times are not uniformly spaced by dt")
        with np.errstate(over="ignore"):  # a huge entry gives an inf norm, which both checks reject
            qnorm = np.linalg.norm(self.xs[:, 6:10], axis=1)
            jump = np.linalg.norm(np.diff(self.xs[:, 0:3], axis=0), axis=1)
        if np.abs(qnorm - 1.0).max() > 1e-9:
            raise ValueError("reference quaternions are not unit norm")
        if jump.max() >= 20.0 * self.dt:
            raise ValueError(f"position jump {jump.max():.3f} reaches 20 m/s * dt")

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for t, x, u in zip(self.ts, self.xs, self.us):
                writer.writerow([repr(float(v)) for v in (t, *x, *u)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "ReferenceTrajectory":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected trajectory CSV header {header} in {path}")
            data = read_float_rows(((reader.line_num, row) for row in reader), path, len(CSV_COLUMNS))
        if data.shape[0] < 2:
            raise ValueError(f"trajectory CSV {path} needs at least 2 data rows")
        traj = cls(data[:, 0], data[:, 1:11], data[:, 11:15], Path(path).stem)
        traj.validate()
        return traj


def read_float_rows(rows, path: str | Path, width: int, blank: float | None = None) -> np.ndarray:
    """(line number, fields) pairs as an ``(n, width)`` array, an empty field as ``blank``; a bad row names its line."""
    data = []
    for line, row in rows:
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            data.append([blank if v == "" and blank is not None else float(v) for v in row])
        except ValueError as err:
            raise ValueError(f"{path} line {line}: {err}") from None
    return np.array(data, dtype=float).reshape(len(data), width)


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

    # body rates from the attitude sequence: w = 2 vec(conj(q) (x) dq/dt), by component
    dq = np.empty_like(q)
    dq[1:-1] = (q[2:] - q[:-2]) / (2.0 * dt)
    dq[0] = (q[1] - q[0]) / dt
    dq[-1] = (q[-1] - q[-2]) / dt
    qw, qx, qy, qz = q.T
    dw, dx, dy, dz = dq.T
    omega = 2.0 * np.column_stack(
        [
            (qw * dx - dw * qx) + (qz * dy - qy * dz),
            (qw * dy - dw * qy) + (qx * dz - qz * dx),
            (qw * dz - dw * qz) + (qy * dx - qx * dy),
        ]
    )

    xs = np.hstack([pos, vel, q])
    us = np.hstack([c[:, None], omega])
    return xs, us


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_DIAMOND_R = 2.0 / np.sqrt(2.0)  # centre-to-vertex distance of the diamond, side 2 m

#: The waypoint-course presets: (waypoints, segment times in s).
_COURSES = {
    "agg1": (
        [(0.0, 0.0, 1.0), (2.5, 1.5, 2.0), (5.0, -1.5, 1.2), (7.0, 0.5, 2.2)],
        [1.7, 1.7, 1.7],
    ),
    "agg2": (
        [(0.0, 0.0, 1.5), (1.5, 2.0, 2.5), (3.0, -2.0, 1.0), (4.5, 2.0, 2.5), (6.0, 0.0, 1.5)],
        [1.6, 1.8, 1.8, 1.6],
    ),
    # a closed rhombus through 4 vertices at 1.5 m, one 8 s lap
    "diamond": (
        [(_DIAMOND_R, 0.0, 1.5), (0.0, _DIAMOND_R, 1.5), (-_DIAMOND_R, 0.0, 1.5), (0.0, -_DIAMOND_R, 1.5),
         (_DIAMOND_R, 0.0, 1.5)],
        [2.0, 2.0, 2.0, 2.0],
    ),
}


def _time_grid(duration: float, dt: float) -> np.ndarray:
    n = int(round(duration / dt))
    return np.arange(n + 1) * dt


def _circle(radius: float, period: float, altitude: float, dt: float) -> tuple[np.ndarray, ...]:
    """Sample times, position, velocity and acceleration of one constant-speed lap in the x-y plane."""
    ts = _time_grid(period, dt)
    th = 2.0 * np.pi * ts / period
    rate = 2.0 * np.pi / period
    pos = np.column_stack([radius * np.cos(th), radius * np.sin(th), np.full_like(ts, altitude)])
    vel = np.column_stack([-radius * rate * np.sin(th), radius * rate * np.cos(th), np.zeros_like(ts)])
    acc = np.column_stack([-radius * rate**2 * np.cos(th), -radius * rate**2 * np.sin(th), np.zeros_like(ts)])
    return ts, pos, vel, acc


def _rest_to_rest(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """7th-order rest-to-rest blend s(tau) on [0, 1] and its two derivatives."""
    s = 35.0 * tau**4 - 84.0 * tau**5 + 70.0 * tau**6 - 20.0 * tau**7
    ds = 140.0 * tau**3 - 420.0 * tau**4 + 420.0 * tau**5 - 140.0 * tau**6
    dds = 420.0 * tau**2 - 1680.0 * tau**3 + 2100.0 * tau**4 - 840.0 * tau**5
    return s, ds, dds


def _course(waypoints: list, segment_times: list, dt: float) -> tuple[np.ndarray, ...]:
    """Sample times, position, velocity and acceleration of rest-to-rest segments through ``waypoints``."""
    wps = np.asarray(waypoints, dtype=float)
    times = np.asarray(segment_times, dtype=float)
    starts = np.concatenate([[0.0], np.cumsum(times)])
    ts = _time_grid(starts[-1], dt)
    seg = np.minimum(np.searchsorted(starts, ts, side="right") - 1, len(times) - 1)
    tau = (ts - starts[seg]) / times[seg]
    s, ds, dds = _rest_to_rest(np.clip(tau, 0.0, 1.0))

    delta = wps[seg + 1] - wps[seg]
    pos = wps[seg] + delta * s[:, None]
    vel = delta * (ds / times[seg])[:, None]
    acc = delta * (dds / times[seg] ** 2)[:, None]
    return ts, pos, vel, acc


def preset(name: str, dt: float = 0.05) -> ReferenceTrajectory:
    """One of the four shipped benchmark trajectories, sampled every ``dt`` seconds."""
    if not dt > 0.0:
        raise ValueError(f"sample time dt must be positive, got {dt!r}")
    if name == "circle":
        ts, pos, vel, acc = _circle(radius=2.0, period=6.0, altitude=1.5, dt=dt)
    elif name in _COURSES:
        ts, pos, vel, acc = _course(*_COURSES[name], dt)
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    xs, us = derive_reference_controls(pos, vel, acc, dt)
    return ReferenceTrajectory(ts, xs, us, name)
