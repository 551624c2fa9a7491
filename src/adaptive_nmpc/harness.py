"""Closed-loop simulation, noise protocol, metrics, and experiment grids.

The plant is the nominal model: the controller's command is applied through
the same integrator that the transcription linearizes, so tracking error is
driven by reference/feedforward inconsistency, control saturation, and the
injected measurement noise.

Noise protocol: one trajectory index ``tau`` is drawn uniformly per noisy
run, from a generator seeded with the run's seed; at that tick the measured
position is corrupted as ``p' = p + sigma * nu`` with an isotropic Gaussian
draw ``nu`` rescaled to ``|nu| = |p|``. Velocity and attitude are never
corrupted. A noise-free run builds no generator.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product, repeat

import numpy as np

from .adaptation import AdaptConfig
from .controller import ControllerConfig, ControllerState, baseline_tick, nmpc_tick
from .dynamics import State
from .trajectories import ReferenceTrajectory, preset

#: Environment variable capping the number of grid worker processes.
THREADS_ENV = "ADAPTIVE_NMPC_THREADS"


@dataclass
class NoiseConfig:
    sigma: float = 0.0

    def __post_init__(self):
        if not self.sigma >= 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


@dataclass
class SimLog:
    """Per-tick record of one closed-loop run (one row per trajectory point)."""

    ts: np.ndarray  # (L,)
    x_true: np.ndarray  # (L, 10)
    x_meas: np.ndarray  # (L, 10)
    u_applied: np.ndarray  # (L, 4)
    ref_xs: np.ndarray  # (L, 10)
    q_snapshot: np.ndarray  # (L, 10)
    kkt: np.ndarray  # (L,), NaN exactly on the failed ticks
    failures: int = 0
    first_failure: tuple[int, str] | None = None  # (tick, reason) of the first failed tick

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def first_failure_text(self) -> str:
        """``first at tick <i>: <reason>``, or empty when no tick failed."""
        if self.first_failure is None:
            return ""
        tick, reason = self.first_failure
        return f"first at tick {tick}: {reason}"

    @property
    def position_error(self) -> np.ndarray:
        """Per-tick distance between simulated and reference position."""
        return np.linalg.norm(self.x_true[:, 0:3] - self.ref_xs[:, 0:3], axis=1)


@dataclass
class MetricsReport:
    e: float
    tv: float
    e_r: float | None = None


def inject_noise(x: State, sigma: float, rng: np.random.Generator) -> State:
    """Corrupt the position with a Gaussian draw rescaled to the position norm."""
    if sigma == 0.0:
        return x
    nu = rng.standard_normal(3)
    nu /= np.linalg.norm(nu)
    p_norm = float(np.linalg.norm(x.p_WB))
    nu *= p_norm if p_norm > 0.0 else 1.0
    # a position beyond float64 range becomes inf, which the QP's finite-data check turns into a failed tick
    with np.errstate(over="ignore"):
        return State(x.p_WB + sigma * nu, x.v_WB, x.q_WB)


def metric_total_error(log: SimLog) -> float:
    """Total position error e = sum_i |p_i - p_ref_i|."""
    if len(log) == 0:
        raise ValueError("empty log")
    return float(log.position_error.sum())


def metric_tv(controls: np.ndarray) -> float:
    """Mean absolute tick-to-tick change of thrust and body rates."""
    controls = np.asarray(controls, dtype=float)
    L = controls.shape[0]
    if L < 2:
        raise ValueError("need at least 2 control samples")
    diffs = np.abs(np.diff(controls, axis=0))
    return float(diffs.sum() / L)


def run_closed_loop(
    traj: ReferenceTrajectory,
    cfg: ControllerConfig,
    noise: NoiseConfig | None = None,
    seed: int = 0,
    x0: np.ndarray | None = None,
) -> SimLog:
    """Simulate the controller against the nominal plant over the whole trajectory.

    ``x0`` is the ``(10,)`` start state; None starts on the reference's first point.
    """
    if abs(traj.dt - cfg.dt) > 1e-9:
        raise ValueError(f"trajectory sample time {traj.dt!r} differs from the controller dt {cfg.dt!r}")
    L = len(traj)
    model = cfg.model
    tick = baseline_tick if cfg.adapt is None else nmpc_tick

    # the generator exists only for a noisy run, so a noise-free one never imports numpy.random
    tau = -1
    if noise is not None and noise.sigma > 0.0:
        rng = np.random.default_rng(seed)
        tau = int(rng.integers(0, L))

    state = ControllerState()
    x_true = np.array(traj.xs[0] if x0 is None else x0, dtype=float)

    log = SimLog(
        ts=traj.ts.copy(),
        x_true=np.zeros((L, 10)),
        x_meas=np.zeros((L, 10)),
        u_applied=np.zeros((L, 4)),
        ref_xs=traj.xs.copy(),
        q_snapshot=np.zeros((L, 10)),
        kkt=np.zeros(L),
    )

    for i in range(L):
        x_meas = x_true
        if i == tau:
            x_meas = inject_noise(State.from_vector(x_true), noise.sigma, rng).as_vector()
        window = traj.window(i, cfg.horizon + 1)
        u, state, diag = tick(state, x_meas, window, cfg)

        log.x_true[i] = x_true
        log.x_meas[i] = x_meas
        log.u_applied[i] = u
        log.q_snapshot[i] = state.weights.q
        log.kkt[i] = diag.kkt_residual
        if diag.failed:
            log.failures += 1
            if log.first_failure is None:
                log.first_failure = (i, diag.message)

        x_true = model.step(x_true, u, cfg.dt)
    return log


# ---------------------------------------------------------------------------
# Experiment grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Cell:
    """One grid cell: a fully specified controller/run configuration."""

    trajectory: str
    mode: str  # 'fixed' | 'adaptive'
    lam: float | None = None
    horizon: int = 19
    sub_horizon: int | None = None
    sigma: float = 0.0
    variant: str = "exponential"
    runs: int = 1

    @property
    def valid(self) -> bool:
        return self.mode == "fixed" or self.sub_horizon is None or self.sub_horizon <= self.horizon


@dataclass
class CellResult:
    cell: Cell
    status: str  # 'ok' | 'skipped' | 'failed'
    report: MetricsReport | None = None
    per_run_e: list[float] = field(default_factory=list)
    message: str = ""


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid over trajectories, both modes, and sweep axes.

    Fixed cells are emitted once per (trajectory, lambda, N, sigma) position,
    with the sub-horizon axis collapsed and ``lam``/``sub_horizon`` set to None.
    """

    trajectories: tuple[str, ...]
    lambdas: tuple[float, ...] = (1.0,)
    horizons: tuple[int, ...] = (19,)
    sub_horizons: tuple[int, ...] = (8,)
    sigmas: tuple[float, ...] = (0.0,)
    variant: str = "exponential"
    runs: int = 1

    def __post_init__(self):
        for ns in self.sub_horizons:
            if not isinstance(ns, int) or ns < 1:
                raise ValueError(f"sub-horizon must be a positive integer, got {ns!r}")

    def cells(self) -> list[Cell]:
        out = []
        for traj, mode in product(self.trajectories, ("fixed", "adaptive")):
            fixed = mode == "fixed"
            sub_horizons = (None,) if fixed else self.sub_horizons
            for lam, nh, ns, sig in product(self.lambdas, self.horizons, sub_horizons, self.sigmas):
                out.append(Cell(traj, mode, None if fixed else lam, nh, ns, sig, self.variant, self.runs))
        return out


def run_cell(cell: Cell, base: ControllerConfig, seed: int = 0) -> CellResult:
    """Run one grid cell; averages metrics over ``cell.runs`` derived seeds.

    A run in which any tick failed its QP and held the command fails the cell.
    """
    if not cell.valid:
        return CellResult(cell, "skipped", message="sub_horizon exceeds horizon")
    try:
        adapt = None
        if cell.mode == "adaptive":
            adapt = AdaptConfig(lam=cell.lam, sub_horizon=cell.sub_horizon, variant=cell.variant)
        cfg = replace(base, horizon=cell.horizon, adapt=adapt)
        traj = preset(cell.trajectory, dt=cfg.dt)
        es, tvs = [], []
        for k in range(cell.runs):
            log = run_closed_loop(traj, cfg, noise=NoiseConfig(cell.sigma), seed=seed + k)
            if log.failures:
                message = (
                    f"run {k}: {log.failures} of {len(log)} ticks failed their QP and held the command; "
                    + log.first_failure_text
                )
                return CellResult(cell, "failed", message=message)
            es.append(metric_total_error(log))
            tvs.append(metric_tv(log.u_applied))
        e_mean = float(np.mean(es))
        report = MetricsReport(
            e=e_mean,
            tv=float(np.mean(tvs)),
            e_r=e_mean if cell.runs > 1 else None,
        )
        return CellResult(cell, "ok", report=report, per_run_e=es)
    except Exception as err:  # noqa: BLE001 - cell failures must not kill the grid
        return CellResult(cell, "failed", message=f"{type(err).__name__}: {err}")


def grid_workers(requested: int | None = None) -> int:
    """``requested`` workers, else one per CPU this process may run on; :data:`THREADS_ENV` caps either."""
    cap = os.environ.get(THREADS_ENV)
    n = requested
    if n is None:
        n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
    return max(1, n)


def run_experiment_grid(
    grid: GridSpec,
    base: ControllerConfig,
    seed: int = 0,
    max_workers: int | None = None,
) -> list[CellResult]:
    """Evaluate every grid cell; repeated cells run once and share their result."""
    cells = grid.cells()
    jobs = sorted(set(cells))
    workers = grid_workers(max_workers)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_cell, jobs, repeat(base), repeat(seed)))
    else:
        done = [run_cell(cell, base, seed) for cell in jobs]
    results = dict(zip(jobs, done))
    return [results[cell] for cell in cells]
