"""Online weight-adaptive NMPC for quadrotor trajectory tracking.

A receding-horizon controller that alternates structured-QP prediction
steps with a closed-form refresh of the diagonal state weights, a full
quadrotor simulator, reference trajectory generators, and a benchmark
harness with a command-line front end.
"""

from .adaptation import (
    AdaptConfig,
    compute_v,
    update_weights,
    update_weights_exp,
    update_weights_linear,
)
from .controller import (
    ControllerConfig,
    ControllerState,
    TickDiagnostics,
    baseline_tick,
    benchmark_weights,
    init_controller,
    nmpc_tick,
)
from .dynamics import (
    CONTROL_DIM,
    GRAVITY,
    QUADROTOR,
    STATE_DIM,
    ControlLimits,
    LinearizedStage,
    QuadrotorModel,
    State,
)
from .harness import (
    Cell,
    CellResult,
    GridSpec,
    MetricsReport,
    NoiseConfig,
    SimLog,
    inject_noise,
    metric_total_error,
    metric_tv,
    run_cell,
    run_closed_loop,
    run_experiment_grid,
)
from .trajectories import (
    PRESET_NAMES,
    ReferenceTrajectory,
    ReferenceWindow,
    derive_reference_controls,
    gen_aggressive,
    gen_circle,
    gen_diamond,
    preset,
)
from .transcription import (
    PredictionTrajectory,
    QpSolution,
    QpSolveError,
    ShootingProblem,
    WeightVector,
    apply_step,
    build_qp,
    solve_qp,
)

__version__ = "0.1.0"
