"""Receding-horizon controller: alternating prediction and weight update.

Each tick repeats up to ``alternations`` rounds of

  Stage 1: linearize the prediction, solve the stage-wise QP, take the
           (partial) Newton step;
  Stage 2: (adaptive mode only, final round only) accumulate the error
           products over the sub-horizon and refresh the diagonal state
           weights, clipped at zero,

stopping early once the step norm drops below ``conv_tol``. The command is
the first predicted control, clamped to the limits. The prediction is then
shifted one stage for the next tick (drop the first stage, append the last
state integrated one step forward). Each round's QP starts its active-set
loop from the working set the previous round ended with; the set is kept
between ticks and shifted the same way as the controls. On a QP failure
the controller holds the previous command and rebuilds the prediction from
the reference window on the next tick, with every control free again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adaptation import AdaptConfig, compute_v, update_weights
from .dynamics import QUADROTOR, ControlLimits, QuadrotorModel
from .trajectories import ReferenceWindow
from .transcription import (
    PredictionTrajectory,
    QpSolveError,
    WeightVector,
    apply_step,
    build_qp,
    solve_qp,
)


def benchmark_weights() -> WeightVector:
    """Generic conservative tuning used as the fixed-weight default.

    Position and attitude are tracked with unit weight, velocity errors are
    damped lightly, and the control weight favors smooth commands. This is
    the profile the adaptive update is benchmarked against.
    """
    return WeightVector((1.0, 1.0, 1.0, 0.3, 0.3, 0.3, 1.0, 1.0, 1.0, 1.0), (5.0, 5.0, 5.0, 5.0))


@dataclass(frozen=True)
class ControllerConfig:
    horizon: int = 19
    dt: float = 0.05
    alpha: float = 1.0
    adapt: AdaptConfig | None = None
    fixed_weights: WeightVector = benchmark_weights()
    limits: ControlLimits | None = ControlLimits()
    alternations: int = 2
    conv_tol: float = 1e-4
    qp_tol: float = 1e-6
    qp_max_iter: int = 200
    model: QuadrotorModel = QUADROTOR

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {self.horizon}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.alternations < 1:
            raise ValueError(f"alternations must be >= 1, got {self.alternations}")
        if self.adapt is not None and self.adapt.sub_horizon > self.horizon:
            raise ValueError(
                f"sub_horizon {self.adapt.sub_horizon} exceeds horizon {self.horizon}"
            )


@dataclass
class ControllerState:
    """Mutable per-vehicle controller memory between ticks."""

    pred: PredictionTrajectory | None
    weights: WeightVector
    last_command: np.ndarray | None = None
    active: np.ndarray | None = None  # (N, 4) QP working set to start the next tick from


@dataclass
class RoundInfo:
    kkt_residual: float
    step_norm: float
    sweeps: int


@dataclass
class TickDiagnostics:
    rounds: list[RoundInfo] = field(default_factory=list)
    weights_q: np.ndarray | None = None
    failed: bool = False
    message: str = ""

    @property
    def kkt_residual(self) -> float:
        """Certificate of the command's QP; NaN on a failed tick, whose held command has none."""
        return float("nan") if self.failed or not self.rounds else self.rounds[-1].kkt_residual


def _pred_from_window(window: ReferenceWindow, horizon: int) -> PredictionTrajectory:
    return PredictionTrajectory(window.xs[: horizon + 1].copy(), window.us[:horizon].copy())


def init_controller(cfg: ControllerConfig, refs: ReferenceWindow) -> ControllerState:
    """Warm-start the prediction from the first reference window."""
    if len(refs) < cfg.horizon + 1:
        raise ValueError(f"window of length {len(refs)} too short for horizon {cfg.horizon}")
    return ControllerState(pred=_pred_from_window(refs, cfg.horizon), weights=cfg.fixed_weights)


def _shift(pred: PredictionTrajectory, dt: float, model: QuadrotorModel) -> PredictionTrajectory:
    tail = model.step(pred.xs[-1], pred.us[-1], dt)
    xs = np.vstack([pred.xs[1:], tail[None, :]])
    return PredictionTrajectory(xs, _shift_rows(pred.us))


def _shift_rows(rows: np.ndarray) -> np.ndarray:
    """Drop the first stage and repeat the last one."""
    return np.vstack([rows[1:], rows[-1:]])


def nmpc_tick(
    state: ControllerState,
    x_meas: np.ndarray,
    refs: ReferenceWindow,
    cfg: ControllerConfig,
) -> tuple[np.ndarray, ControllerState, TickDiagnostics]:
    """One control tick; returns the clamped ``(4,)`` command, the next state, and diagnostics."""
    if len(refs) < cfg.horizon + 1:
        raise ValueError(f"window of length {len(refs)} too short for horizon {cfg.horizon}")
    pred = state.pred if state.pred is not None else _pred_from_window(refs, cfg.horizon)
    weights = state.weights
    active = state.active
    diag = TickDiagnostics()

    try:
        for _ in range(cfg.alternations):
            prob = build_qp(pred, refs, weights, x_meas, cfg.limits, cfg.alpha, cfg.dt, cfg.model)
            sol = solve_qp(prob, tol=cfg.qp_tol, max_iter=cfg.qp_max_iter, active=active)
            active = sol.active
            pred = apply_step(pred, sol, cfg.alpha, cfg.limits, cfg.model)
            diag.rounds.append(RoundInfo(sol.kkt_residual, sol.step_norm, sol.sweeps))

            last_round = len(diag.rounds) == cfg.alternations or sol.step_norm < cfg.conv_tol
            # run the weight update once per tick, after the final round: the command
            # is then never computed from weights refreshed by a corrupted measurement
            if cfg.adapt is not None and last_round:
                # error products from the post-step prediction residual against the
                # reference, with the pre-step error as the gradient anchor
                ns = cfg.adapt.sub_horizon
                resid = pred.xs[:ns] - refs.xs[:ns]
                v_sum = compute_v(resid, prob.lx[:ns], cfg.alpha).sum(axis=0)
                q_new = np.maximum(update_weights(v_sum, cfg.adapt), 0.0)
                weights = WeightVector(q_new, weights.r)

            if sol.step_norm < cfg.conv_tol:
                break
    except QpSolveError as err:
        diag.failed = True
        diag.message = str(err)
        diag.weights_q = np.array(weights.q)
        held = np.array(state.last_command if state.last_command is not None else refs.us[0], dtype=float)
        command = cfg.limits.clamp(held) if cfg.limits is not None else held
        # prediction is stale after a failed solve: rebuild from refs next tick
        next_state = ControllerState(pred=None, weights=weights, last_command=command)
        return command, next_state, diag

    # apply_step has already clamped the prediction's controls to the box
    command = pred.us[0].copy()
    diag.weights_q = np.array(weights.q)
    next_state = ControllerState(
        pred=_shift(pred, cfg.dt, cfg.model),
        weights=weights,
        last_command=command,
        active=_shift_rows(active),
    )
    return command, next_state, diag


def baseline_tick(
    state: ControllerState,
    x_meas: np.ndarray,
    refs: ReferenceWindow,
    cfg: ControllerConfig,
) -> tuple[np.ndarray, ControllerState, TickDiagnostics]:
    """Fixed-weight tick: identical to :func:`nmpc_tick` with adaptation off."""
    return nmpc_tick(state, x_meas, refs, cfg if cfg.adapt is None else replace(cfg, adapt=None))
