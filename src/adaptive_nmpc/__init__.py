"""Online weight-adaptive NMPC for quadrotor trajectory tracking.

A receding-horizon controller that alternates structured-QP prediction
steps with a closed-form refresh of the diagonal state weights, a full
quadrotor simulator, the benchmark's reference trajectories, and a benchmark
harness with a command-line front end.

Every other name is imported from its module (see the README's library
layout); the root exports only what benchmark configurations are built from.
"""

from .adaptation import AdaptConfig
from .controller import ControllerConfig
from .dynamics import ControlLimits
from .trajectories import PRESET_NAMES, preset

__version__ = "0.1.0"
