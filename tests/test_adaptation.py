import numpy as np
import pytest

from adaptive_nmpc.adaptation import (
    EXP_CLAMP,
    LINEAR_Q_MAX,
    AdaptConfig,
    compute_v,
    update_weights,
)
from helpers import minimize_scalar_convex


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptConfig(lam=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(sub_horizon=0)
        with pytest.raises(ValueError):
            AdaptConfig(variant="quadratic")
        with pytest.raises(ValueError):
            AdaptConfig(variant="linear_projected")


class TestComputeV:
    def test_zero_step_gives_zero(self):
        assert np.array_equal(compute_v(np.zeros(10), np.ones(10)), np.zeros(10))

    def test_simple_arithmetic(self):
        dx = np.zeros(10)
        lk = np.zeros(10)
        dx[0], lk[0] = 1.0, 1.0
        v = compute_v(dx, lk)
        assert v[0] == 2.0
        assert np.array_equal(v[1:], np.zeros(9))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dx = rng.standard_normal(10)
            lk = rng.standard_normal(10)
            expected = np.array([(dx[i] + lk[i]) * dx[i] for i in range(10)])
            assert np.array_equal(compute_v(dx, lk), expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_v(np.zeros(10), np.zeros(9))


class TestLinearUpdate:
    def test_zero_aggregate(self):
        q = update_weights(np.zeros(10), AdaptConfig(lam=1.0, variant="linear"))
        assert np.array_equal(q, np.zeros(10))

    def test_simple_arithmetic(self):
        v = np.zeros(10)
        v[0], v[1] = 2.0, 4.0
        q = update_weights(v, AdaptConfig(lam=0.5, variant="linear"))
        assert q[0] == 2.0 and q[1] == 4.0

    def test_matches_numeric_minimizer(self):
        # the objective lam*q'q - v'q is separable: minimize each coordinate
        # with an independent scalar search
        rng = np.random.default_rng(1)
        lam = 1.0
        cfg = AdaptConfig(lam=lam, variant="linear")
        for _ in range(20):
            v = 3.0 * rng.standard_normal(10)
            q = update_weights(v, cfg)
            for i in range(10):
                qi = minimize_scalar_convex(lambda t: lam * t * t - v[i] * t, -10.0, 10.0)
                assert abs(q[i] - qi) < 1e-8

    def test_capped_at_linear_q_max(self):
        cfg = AdaptConfig(lam=0.5, variant="linear")
        # lam = 0.5 makes the uncapped weight equal to v
        v = np.array([0.0, 1.0, 9.9e3, LINEAR_Q_MAX, 1.1e4, 1e300, np.inf, -5.0, -1e300, 0.5])
        assert np.array_equal(update_weights(v, cfg), np.minimum(v, LINEAR_Q_MAX))

    def test_stationarity_of_unprojected_minimizer(self):
        rng = np.random.default_rng(2)
        lam = 0.8
        cfg = AdaptConfig(lam=lam, variant="linear")
        for _ in range(50):
            v = rng.standard_normal(10)
            q = update_weights(v, cfg)
            assert np.abs(2 * lam * q - v).max() < 1e-10


class TestExpUpdate:
    def test_zero_gives_neutral_ones(self):
        q = update_weights(np.zeros(10), AdaptConfig(lam=1.0, variant="exponential"))
        assert np.array_equal(q, np.ones(10))

    def test_monotone_decreasing_in_lambda(self):
        v = np.full(10, 2.0)
        q1 = update_weights(v, AdaptConfig(lam=0.5, variant="exponential"))
        q2 = update_weights(v, AdaptConfig(lam=2.0, variant="exponential"))
        assert np.all(q2 < q1)

    def test_clamp_boundary_no_overflow(self):
        from decimal import Decimal, localcontext

        cfg = AdaptConfig(lam=0.5, variant="exponential")
        v = np.full(10, 1e6)
        q = update_weights(v, cfg)
        assert np.all(np.isfinite(q))
        # clamped exactly at exp(EXP_CLAMP) = exp(2); reference value from extended precision
        assert EXP_CLAMP == 2.0
        with localcontext() as ctx:
            ctx.prec = 40
            expected = float(Decimal(2).exp())
        assert np.all(q == np.exp(EXP_CLAMP))
        assert abs(q[0] - expected) <= abs(expected) * 1e-15

    def test_always_positive(self):
        rng = np.random.default_rng(3)
        cfg = AdaptConfig(lam=1.0, variant="exponential")
        for _ in range(50):
            q = update_weights(10.0 * rng.standard_normal(10), cfg)
            assert np.all(q > 0.0)


class TestVariantProperties:
    @pytest.mark.parametrize("variant", ["linear", "exponential"])
    def test_monotone_in_v_sum(self, variant):
        rng = np.random.default_rng(4)
        cfg = AdaptConfig(lam=1.0, variant=variant)
        for _ in range(50):
            v1 = rng.standard_normal(10)
            v2 = v1 + rng.uniform(0.0, 1.0, 10)
            q1 = update_weights(v1, cfg)
            q2 = update_weights(v2, cfg)
            assert np.all(q2 >= q1)

    def test_dispatch(self):
        # each variant's closed form, written out, at lam = 1 (divisor 2)
        v = np.array([0.0, 1.0, 2.0, 4.0, 5.0, -3.0, 3e4, 1e300, -1e300, 0.5])
        assert np.array_equal(
            update_weights(v, AdaptConfig(lam=1.0, variant="exponential")),
            np.exp(np.minimum(v / 2.0, EXP_CLAMP)),
        )
        assert np.array_equal(
            update_weights(v, AdaptConfig(lam=1.0, variant="linear")),
            np.minimum(v / 2.0, LINEAR_Q_MAX),
        )

    @pytest.mark.parametrize("variant", ["exponential"])
    def test_non_negative_outputs(self, variant):
        rng = np.random.default_rng(5)
        cfg = AdaptConfig(lam=0.7, variant=variant)
        for _ in range(50):
            q = update_weights(5.0 * rng.standard_normal(10), cfg)
            assert np.all(q >= 0.0)
