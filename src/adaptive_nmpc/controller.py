"""Receding-horizon controller: alternating prediction and weight update.

Each tick runs

  Stage 1: up to ``alternations`` rounds of: linearize the prediction,
           solve the stage-wise QP, take the (partial) Newton step;
           stopping early once the step norm drops below ``CONV_TOL``;
  Stage 2: (adaptive mode only) accumulate the error products of the
           final round over the sub-horizon and refresh the diagonal state
           weights once, clipped at zero.

The command is the first predicted control, clamped to the limits. The
prediction is then shifted one stage for the next tick (drop the first
stage, append the last state integrated one step forward). Each round's QP
starts its active-set loop from the working set the previous round ended
with; the set is kept between ticks and shifted the same way as the
controls. A tick without a prediction builds one from its own reference
window, with every control free: the first tick does so, and so does the
tick after a QP failure, on which the controller holds the previous command.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adaptation import AdaptConfig, compute_v, update_weights
from .dynamics import QUADROTOR, ControlLimits, QuadrotorModel
from .trajectories import ReferenceWindow
from .transcription import (
    QP_TOL,
    PredictionTrajectory,
    QpSolution,
    QpSolveError,
    WeightVector,
    apply_step,
    build_qp,
    solve_qp,
)

#: Step norm below which a tick stops its alternation rounds early.
CONV_TOL = 1e-4


#: The fixed-weight profile, and every run's weights before its first tick: a
#: generic conservative tuning. Position and attitude are tracked with unit
#: weight, velocity errors are damped lightly, and the control weight favors
#: smooth commands. This is the profile the adaptive update is benchmarked against.
FIXED_WEIGHTS = WeightVector((1.0, 1.0, 1.0, 0.3, 0.3, 0.3, 1.0, 1.0, 1.0, 1.0), (5.0, 5.0, 5.0, 5.0))


@dataclass(frozen=True)
class ControllerConfig:
    horizon: int = 19
    dt: float = 0.05
    alpha: float = 1.0
    adapt: AdaptConfig | None = None
    limits: ControlLimits | None = ControlLimits()
    alternations: int = 2
    model: QuadrotorModel = QUADROTOR
    #: transcription.QP_TOL, the KKT tolerance every QP is certified against; not a field
    qp_tol = QP_TOL

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
            raise ValueError(f"sub-horizon {self.adapt.sub_horizon} exceeds horizon {self.horizon}")


@dataclass
class ControllerState:
    """Mutable per-vehicle controller memory between ticks; the defaults are the state before the first tick."""

    pred: PredictionTrajectory | None = None
    weights: WeightVector = FIXED_WEIGHTS
    last_command: np.ndarray | None = None
    active: np.ndarray | None = None  # (N, 4) QP working set to start the next tick from


@dataclass
class TickDiagnostics:
    rounds: list[QpSolution] = field(default_factory=list)
    failed: bool = False
    message: str = ""

    @property
    def kkt_residual(self) -> float:
        """Certificate of the command's QP; NaN on a failed tick, whose held command has none."""
        return float("nan") if self.failed or not self.rounds else self.rounds[-1].kkt_residual


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
    pred = state.pred
    if pred is None:
        pred = PredictionTrajectory(refs.xs[: cfg.horizon + 1].copy(), refs.us[: cfg.horizon].copy())
    weights = state.weights
    active = state.active
    diag = TickDiagnostics()

    try:
        for _ in range(cfg.alternations):
            prob = build_qp(pred, refs, weights, x_meas, cfg.limits, cfg.alpha, cfg.dt, cfg.model)
            sol = solve_qp(prob, active=active)
            active = sol.active
            pred = apply_step(pred, sol, cfg.alpha, cfg.limits, cfg.model)
            diag.rounds.append(sol)
            if sol.step_norm < CONV_TOL:
                break
    except QpSolveError as err:
        diag.failed = True
        diag.message = str(err)
        held = np.array(state.last_command if state.last_command is not None else refs.us[0], dtype=float)
        command = cfg.limits.clamp(held) if cfg.limits is not None else held
        # prediction is stale after a failed solve: rebuild from refs next tick
        next_state = ControllerState(weights=state.weights, last_command=command)
        return command, next_state, diag

    # the weights are updated after the final round only: the command is then
    # never computed from weights refreshed by a corrupted measurement
    if cfg.adapt is not None:
        # error products from the post-step prediction residual against the
        # reference, with the pre-step error as the gradient anchor
        ns = cfg.adapt.sub_horizon
        resid = pred.xs[:ns] - refs.xs[:ns]
        v_sum = compute_v(resid, prob.lx[:ns], cfg.alpha).sum(axis=0)
        weights = WeightVector(np.maximum(update_weights(v_sum, cfg.adapt), 0.0), weights.r)

    # apply_step has already clamped the prediction's controls to the box
    command = pred.us[0].copy()
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
