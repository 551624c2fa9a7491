"""Closed-loop metamorphic relations: a transformed course must give the transformed run.

Each relation maps a preset's reference (states and controls; the plant
starts on the reference's first point) through a symmetry of the nominal
model and of the tracking cost, runs the closed loop on it, and compares
the applied commands with those of the unmapped run:

- mirror y -> -y: ``p_y``, ``v_y``, ``q_x`` and ``q_z`` change sign, and so
  do the body rates ``w_x`` and ``w_z``. Negation is exact in floating
  point, so the mirrored run is bit-identical: commands with ``w_x`` and
  ``w_z`` negated, the same state weights and the same KKT residuals;
- translation by a constant offset: the errors, and so the commands, are
  the same up to rounding;
- a 90-degree yaw of the whole course: positions and velocities turn about
  z, the attitude is left-multiplied by the yaw quaternion, and body rates
  and thrust stay. Fixed mode only: its cost weighs x and y alike and the
  four quaternion components alike, so a yaw leaves it unchanged. The
  adaptive update gives every quaternion component its own diagonal
  weight, and a yaw mixes the components, so adaptive runs depend on the
  yaw of the course.

A plant or Jacobian fault that breaks one of these symmetries fails here
even where every single-tick oracle is blind to it.
"""

from __future__ import annotations

import numpy as np
import pytest

from adaptive_nmpc.adaptation import AdaptConfig
from adaptive_nmpc.controller import ControllerConfig
from adaptive_nmpc.harness import run_closed_loop
from adaptive_nmpc.trajectories import PRESET_NAMES, ReferenceTrajectory, preset

MODES = {
    "fixed": ControllerConfig(),
    "exp": ControllerConfig(adapt=AdaptConfig(variant="exponential")),
    "linear": ControllerConfig(adapt=AdaptConfig(lam=0.01, variant="linear")),
}

#: agg1 runs in the fast loop; the other presets only in the full suite
PRESETS = [pytest.param(name, marks=() if name == "agg1" else pytest.mark.slow) for name in PRESET_NAMES]

OFFSET = np.array([10.0, -5.0, 3.0])
YAW = np.sqrt(0.5)  # cos and sin of 45 degrees: the half angle of a 90-degree yaw


@pytest.fixture(scope="module")
def unmapped():
    """The run of a preset in a mode, computed once for every relation."""
    runs = {}

    def run(name, mode):
        if (name, mode) not in runs:
            runs[name, mode] = run_closed_loop(preset(name), MODES[mode])
        return runs[name, mode]

    return run


def mapped_run(name, mode, map_xs, map_us=lambda us: us):
    tr = preset(name)
    return run_closed_loop(ReferenceTrajectory(tr.ts, map_xs(tr.xs.copy()), map_us(tr.us.copy()), name), MODES[mode])


def mirror_xs(xs):
    xs[:, [1, 4, 7, 9]] *= -1.0  # p_y, v_y, q_x, q_z
    return xs


def mirror_us(us):
    us[:, [1, 3]] *= -1.0  # w_x, w_z
    return us


def translate_xs(xs):
    xs[:, 0:3] += OFFSET
    return xs


def yaw_xs(xs):
    for k in (0, 3):  # position, velocity: (x, y) -> (-y, x)
        xs[:, k : k + 2] = np.column_stack([-xs[:, k + 1], xs[:, k]])
    w, x, y, z = xs[:, 6:10].T.copy()
    xs[:, 6:10] = YAW * np.column_stack([w - z, x - y, y + x, z + w])  # [cos 45, 0, 0, sin 45] (x) q
    return xs


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", PRESETS)
def test_mirror_is_bit_identical(unmapped, name, mode):
    base = unmapped(name, mode)
    log = mapped_run(name, mode, mirror_xs, mirror_us)
    assert log.failures == base.failures == 0
    np.testing.assert_array_equal(log.u_applied, mirror_us(base.u_applied.copy()))
    np.testing.assert_array_equal(log.q_snapshot, base.q_snapshot)
    np.testing.assert_array_equal(log.kkt, base.kkt)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", PRESETS)
def test_translation_keeps_the_commands(unmapped, name, mode):
    base = unmapped(name, mode)
    log = mapped_run(name, mode, translate_xs)
    assert log.failures == 0
    np.testing.assert_allclose(log.u_applied, base.u_applied, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("name", PRESETS)
def test_yaw_keeps_the_fixed_weight_commands(unmapped, name):
    base = unmapped(name, "fixed")
    log = mapped_run(name, "fixed", yaw_xs)
    assert log.failures == 0
    np.testing.assert_allclose(log.u_applied, base.u_applied, rtol=0.0, atol=1e-11)
