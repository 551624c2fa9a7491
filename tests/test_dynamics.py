import copy
import dataclasses
import pickle

import numpy as np
import pytest

from adaptive_nmpc.dynamics import GRAVITY, QUADROTOR, ControlLimits, State, _deriv, _rotate
from helpers import (
    central_difference_jacobians,
    complex_step_jacobians,
    deriv_reference,
    hover_control,
    hover_state,
    quat_to_rotmat,
    random_batch,
    random_control_vector,
    random_state_vector,
    random_unit_quat,
    step_reference,
)

QUAT_90X = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0, 0.0])
FREE_FALL = np.zeros(4)

#: (state batch, control batch): single, one horizon, two batch axes, a horizon under one control,
#: and one state under a horizon of controls
BATCHES = [((), ()), ((19,), (19,)), ((3, 5), (3, 5)), ((19,), ()), ((), (19,))]


def random_inputs(seed, x_batch, u_batch):
    rng = np.random.default_rng(seed)
    return random_batch(random_state_vector, rng, x_batch), random_batch(random_control_vector, rng, u_batch)


def assert_round_off(got, ref):
    """Equal up to reordered rounding: |got - ref| <= 1e-14 max(1, |ref|) elementwise."""
    assert got.shape == ref.shape
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-14, f"max scaled error {err.max():.2e}"


class TestDynamicsDeriv:
    def test_hover_is_fixed_point(self):
        deriv = _deriv(hover_state().as_vector(), hover_control())
        assert np.array_equal(deriv, np.zeros(10))

    def test_free_fall(self):
        deriv = _deriv(hover_state().as_vector(), FREE_FALL)
        np.testing.assert_allclose(deriv[3:6], [0.0, 0.0, -GRAVITY])
        assert np.array_equal(deriv[[0, 1, 2, 6, 7, 8, 9]], np.zeros(7))

    def test_rotated_thrust_vs_rotation_matrix_oracle(self):
        x = State(np.zeros(3), np.zeros(3), QUAT_90X).as_vector()
        deriv = _deriv(x, hover_control())
        expected = quat_to_rotmat(QUAT_90X) @ [0, 0, GRAVITY] + [0, 0, -GRAVITY]
        np.testing.assert_allclose(deriv[3:6], expected, atol=1e-12)
        np.testing.assert_allclose(deriv[3:6], [0.0, -GRAVITY, -GRAVITY], atol=1e-9)


class TestDerivOracle:
    """The component-wise vector field against the rotation and Hamilton-product form."""

    @pytest.mark.parametrize("x_batch, u_batch", BATCHES)
    def test_matches_reference(self, x_batch, u_batch):
        for seed in range(20):
            x, u = random_inputs(seed, x_batch, u_batch)
            assert_round_off(_deriv(x, u), deriv_reference(x, u))

    @pytest.mark.parametrize("x_batch, u_batch", BATCHES)
    def test_step_matches_reference_step(self, x_batch, u_batch):
        for seed in range(20):
            x, u = random_inputs(seed, x_batch, u_batch)
            assert_round_off(QUADROTOR.step(x, u, 0.05), step_reference(x, u, 0.05))

    @pytest.mark.parametrize("x_batch, u_batch", BATCHES)
    def test_discretize_state_is_step(self, x_batch, u_batch):
        # shooting defects and the warm-start shift rely on this equality
        x, u = random_inputs(3, x_batch, u_batch)
        x_next, _, _ = QUADROTOR.discretize(x, u, 0.05)
        assert np.array_equal(x_next, QUADROTOR.step(x, u, 0.05))


class TestQuatRotate:
    def test_identity(self):
        np.testing.assert_array_equal(_rotate(np.array([1.0, 0, 0, 0]), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_90_deg_about_x(self):
        np.testing.assert_allclose(_rotate(QUAT_90X, np.array([0, 0, 1.0])), [0, -1.0, 0], atol=1e-12)

    def test_matches_matrix_oracle_and_preserves_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = random_unit_quat(rng)
            v = rng.standard_normal(3)
            got = _rotate(q, v)
            np.testing.assert_allclose(got, quat_to_rotmat(q) @ v, atol=1e-12)
            assert abs(np.linalg.norm(got) - np.linalg.norm(v)) < 1e-12


class TestIntegrateStep:
    def test_hover_fixed_point(self):
        x = hover_state((0.3, -0.2, 1.0)).as_vector()
        out = QUADROTOR.step(x, hover_control(), 0.7)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_free_fall_closed_form(self):
        out = QUADROTOR.step(hover_state().as_vector(), FREE_FALL, 0.1)
        np.testing.assert_allclose(out[5], -0.981, atol=1e-9)
        np.testing.assert_allclose(out[2], -0.04905, atol=1e-9)

    def test_constant_rate_quaternion_propagation(self):
        # body z spin at 1 rad/s: closed form q = [cos(wt/2), 0, 0, sin(wt/2)]
        dt = 0.05
        out = QUADROTOR.step(hover_state().as_vector(), np.array([GRAVITY, 0, 0, 1.0]), dt)
        expected = np.array([np.cos(dt / 2), 0.0, 0.0, np.sin(dt / 2)])
        np.testing.assert_allclose(out[6:10], expected, atol=1e-6)

    def test_quaternion_norm_over_10000_steps(self):
        x = hover_state().as_vector()
        u = np.array([GRAVITY, 0.4, -0.3, 0.8])
        for _ in range(10_000):
            x = QUADROTOR.step(x, u, 0.01)
        assert abs(np.linalg.norm(x[6:10]) - 1.0) < 1e-9


class TestLinearizeDiscrete:
    def test_small_dt_limit(self):
        # the map renormalizes the quaternion, so its dt->0 Jacobian is the
        # identity composed with the unit-sphere tangent projector I - q q^T
        x = hover_state((1, 2, 3)).as_vector()
        _, A, B = QUADROTOR.discretize(x, hover_control(), 1e-8)
        limit = np.eye(10)
        limit[6:10, 6:10] -= np.outer(x[6:10], x[6:10])
        assert np.abs(A - limit).max() < 1e-6
        assert np.abs(B).max() < 1e-6

    def test_hover_double_integrator_block(self):
        dt = 0.05
        _, A, _ = QUADROTOR.discretize(hover_state().as_vector(), hover_control(), dt)
        np.testing.assert_allclose(A[0:3, 3:6], dt * np.eye(3), atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        dt = 0.05
        worst = 0.0
        for _ in range(200):
            x = random_state_vector(rng)
            u = random_control_vector(rng)
            _, A, B = QUADROTOR.discretize(x, u, dt)
            A_fd, B_fd = central_difference_jacobians(QUADROTOR.step, x, u, dt)
            worst = max(worst, np.abs(A - A_fd).max(), np.abs(B - B_fd).max())
        assert worst < 1e-5

    def test_matches_complex_step_jacobians_of_the_reference_step(self):
        # an independent map (rotation matrix and Hamilton product) differentiated without cancellation
        rng = np.random.default_rng(11)
        x = random_batch(random_state_vector, rng, (200,))
        u = random_batch(random_control_vector, rng, (200,))
        _, A, B = QUADROTOR.discretize(x, u, 0.05)
        A_cs, B_cs = complex_step_jacobians(step_reference, x, u, 0.05)
        for got, ref in ((A, A_cs), (B, B_cs)):
            rel = np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
            assert rel.max() <= 1e-12, f"max relative error {rel.max():.2e}"


class TestControlLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlLimits(c_min=-1.0)
        with pytest.raises(ValueError):
            ControlLimits(c_min=5.0, c_max=5.0)
        with pytest.raises(ValueError):
            ControlLimits(omega_min=2.0, omega_max=-2.0)

    def test_clamp_and_contains(self):
        lim = ControlLimits(c_min=1.0, c_max=20.0, omega_min=-3.0, omega_max=3.0)
        u = np.array([25.0, -4.0, 0.0, 2.0])
        clamped = lim.clamp(u)
        np.testing.assert_array_equal(clamped, [20.0, -3.0, 0.0, 2.0])
        assert np.all((lim.lower <= clamped) & (clamped <= lim.upper))
        assert not np.all((lim.lower <= u) & (u <= lim.upper))

    def test_shared_box_cannot_be_altered(self):
        lim = ControlLimits(c_min=2.0, c_max=18.0, omega_min=[-1.0, -2.0, -3.0], omega_max=[1.5, 2.5, 3.5])
        lower, upper = [2.0, -1.0, -2.0, -3.0], [18.0, 1.5, 2.5, 3.5]
        # one frozen box is shared by every run of a grid, in this process and in pool workers
        for shared in (lim, pickle.loads(pickle.dumps(lim)), copy.deepcopy(lim)):
            shared.lower[:] = 0.0  # each read returns a new array
            shared.upper[:] = 0.0
            for rates in (shared.omega_min, shared.omega_max):
                with pytest.raises(TypeError):
                    rates[0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                shared.c_max = 0.0
            np.testing.assert_array_equal(shared.lower, lower)
            np.testing.assert_array_equal(shared.upper, upper)
        rng = np.random.default_rng(0)
        u = rng.uniform(-30.0, 30.0, (50, 4))
        np.testing.assert_array_equal(lim.clamp(u), np.clip(u, lower, upper))

    def test_compares_and_hashes_by_value(self):
        scalar = ControlLimits(c_min=7.0, c_max=12.5, omega_min=-1.0, omega_max=1.0)
        per_axis = ControlLimits(c_min=7, c_max=12.5, omega_min=np.full(3, -1.0), omega_max=[1.0, 1.0, 1.0])
        assert scalar == per_axis
        assert hash(scalar) == hash(per_axis)
        assert ControlLimits() == ControlLimits()
        assert hash(ControlLimits()) == hash(ControlLimits())
        for other in (
            ControlLimits(c_min=7.0, c_max=12.0, omega_min=-1.0, omega_max=1.0),
            ControlLimits(c_min=7.0, c_max=12.5, omega_min=[-1.0, -1.0, -0.5], omega_max=1.0),
            ControlLimits(),
        ):
            assert other != scalar
        assert len({scalar, per_axis, ControlLimits()}) == 2


class TestStateControlContainers:
    def test_state_vector_round_trip(self):
        rng = np.random.default_rng(0)
        vec = random_state_vector(rng)
        assert np.array_equal(State.from_vector(vec).as_vector(), vec)
