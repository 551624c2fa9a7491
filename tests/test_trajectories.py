import numpy as np
import pytest

from adaptive_nmpc.dynamics import GRAVITY, QUADROTOR, ControlLimits
from adaptive_nmpc.trajectories import (
    _COURSES,
    PRESET_NAMES,
    ReferenceTrajectory,
    _rest_to_rest,
    derive_reference_controls,
    preset,
)
from helpers import hamilton_product, in_box, quat_to_rotmat

DT = 0.05


class TestCircle:
    """The ``circle`` preset: radius 2 m, one 6 s lap at 1.5 m."""

    def test_analytic_start_values(self):
        tr = preset("circle", dt=DT)
        np.testing.assert_allclose(tr.xs[0, 0:3], [2.0, 0.0, 1.5], atol=1e-12)
        np.testing.assert_allclose(tr.xs[0, 3:6], [0.0, 2 * np.pi * 2.0 / 6.0, 0.0], atol=1e-12)

    def test_periodicity(self):
        tr = preset("circle", dt=DT)
        np.testing.assert_allclose(tr.xs[-1, 0:3], tr.xs[0, 0:3], atol=1e-9)

    def test_constant_speed(self):
        tr = preset("circle", dt=DT)
        speeds = np.linalg.norm(tr.xs[:, 3:6], axis=1)
        np.testing.assert_allclose(speeds, 2 * np.pi * 2.0 / 6.0, atol=1e-12)

    def test_sampled_value_matches_analytic_query(self):
        tr = preset("circle", dt=DT)
        k = 37
        t = tr.ts[k]
        expected = [2.0 * np.cos(2 * np.pi * t / 6.0), 2.0 * np.sin(2 * np.pi * t / 6.0), 1.5]
        np.testing.assert_allclose(tr.xs[k, 0:3], expected, atol=1e-9)


class TestDiamond:
    """The ``diamond`` preset: side 2 m, one 8 s lap at 1.5 m."""

    def test_passes_through_vertices(self):
        tr = preset("diamond", dt=DT)
        d = 2.0 / np.sqrt(2.0)
        for vertex in [(d, 0), (0, d), (-d, 0), (0, -d)]:
            dist = np.linalg.norm(tr.xs[:, 0:2] - vertex, axis=1).min()
            assert dist < 1e-6

    def test_closed_loop(self):
        tr = preset("diamond", dt=DT)
        np.testing.assert_allclose(tr.xs[0, 0:3], tr.xs[-1, 0:3], atol=1e-9)

    def test_speed_bounded(self):
        # rest-to-rest blend peak speed: 2.1875 * segment_length / segment_time
        tr = preset("diamond", dt=DT)
        v_max = 2.1875 * 2.0 / 2.0
        speeds = np.linalg.norm(tr.xs[:, 3:6], axis=1)
        assert speeds.max() <= v_max + 1e-9


class TestAggressive:
    @pytest.mark.parametrize("name", ["agg1", "agg2"])
    def test_rest_to_rest_boundary_velocities(self, name):
        tr = preset(name, dt=DT)
        assert np.array_equal(tr.xs[0, 3:6], np.zeros(3))
        assert np.array_equal(tr.xs[-1, 3:6], np.zeros(3))

    @pytest.mark.parametrize("name", ["agg1", "agg2"])
    def test_interpolates_waypoints(self, name):
        tr = preset(name, dt=DT)
        for wp in _COURSES[name][0]:
            assert np.linalg.norm(tr.xs[:, 0:3] - wp, axis=1).min() < 1e-6

    def test_acceleration_continuous_at_joints(self):
        waypoints, times = _COURSES["agg1"]
        wps = np.array(waypoints)
        # evaluate each polynomial piece at the first joint: left limit at
        # tau=1, right limit at tau=0
        _, _, dds_end = _rest_to_rest(np.array([1.0]))
        _, _, dds_start = _rest_to_rest(np.array([0.0]))
        acc_left = (wps[1] - wps[0]) * dds_end[0] / times[0] ** 2
        acc_right = (wps[2] - wps[1]) * dds_start[0] / times[1] ** 2
        np.testing.assert_allclose(acc_left, acc_right, atol=1e-6)

        # independent route: reconstruct acceleration at the joint sample from
        # the flatness controls; the blend is at rest there
        tr = preset("agg1", dt=DT)
        joint = int(round(times[0] / DT))
        c, q = tr.us[joint, 0], tr.xs[joint, 6:10]
        acc = quat_to_rotmat(q) @ [0, 0, c] + [0, 0, -GRAVITY]
        assert np.linalg.norm(acc) < 1e-9
        assert np.linalg.norm(tr.xs[joint, 3:6]) < 1e-9


class TestDeriveReferenceControls:
    def test_static_hover(self):
        L = 5
        xs, us = derive_reference_controls(np.zeros((L, 3)), np.zeros((L, 3)), np.zeros((L, 3)), DT)
        np.testing.assert_allclose(us[:, 0], GRAVITY, atol=1e-12)
        np.testing.assert_allclose(us[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(xs[:, 6:10], [[1.0, 0, 0, 0]] * L, atol=1e-12)

    def test_circle_thrust_magnitude(self):
        r, T = 2.0, 6.0  # the circle preset's radius and period
        tr = preset("circle", dt=DT)
        a_c = r * (2 * np.pi / T) ** 2
        expected = np.hypot(a_c, GRAVITY)
        np.testing.assert_allclose(tr.us[:, 0], expected, atol=1e-9)

    def test_rejects_free_fall_reference(self):
        acc = np.tile([0.0, 0.0, -GRAVITY], (4, 1))
        with pytest.raises(ValueError):
            derive_reference_controls(np.zeros((4, 3)), np.zeros((4, 3)), acc, DT)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("dt", [0.02, 0.05, 0.1])
    def test_body_rates_are_the_hamilton_product_bit_for_bit(self, name, dt):
        # w = 2 vec(conj(q) (x) dq/dt) from the returned attitudes, differenced as the generator does
        tr = preset(name, dt=dt)
        q = tr.xs[:, 6:10]
        dq = np.empty_like(q)
        dq[1:-1] = (q[2:] - q[:-2]) / (2.0 * dt)
        dq[0] = (q[1] - q[0]) / dt
        dq[-1] = (q[-1] - q[-2]) / dt
        omega = 2.0 * hamilton_product(q * [1.0, -1.0, -1.0, -1.0], dq)[:, 1:]
        assert omega.tobytes() == tr.us[:, 1:].tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_forward_simulation_consistency(self, name):
        tr = preset(name, dt=DT)
        worst = 0.0
        for i in range(len(tr) - 1):
            x_next = QUADROTOR.step(tr.xs[i], tr.us[i], DT)
            worst = max(worst, float(np.linalg.norm(x_next[0:3] - tr.xs[i + 1, 0:3])))
        assert worst < 0.05 * DT


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_valid_and_within_limits(self, name):
        tr = preset(name, dt=DT)
        tr.validate()
        assert in_box(ControlLimits(), tr.us)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("figure8")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("dt", [0.0, -DT])
    def test_rejects_non_positive_dt(self, name, dt):
        with pytest.raises(ValueError, match=r"^sample time dt must be positive"):
            preset(name, dt=dt)


class TestWindowAndCsv:
    def test_window_holds_final_point(self):
        tr = preset("circle", dt=DT)
        win = tr.window(len(tr) - 2, 6)
        assert len(win) == 6
        np.testing.assert_array_equal(win.xs[1], tr.xs[-1])
        np.testing.assert_array_equal(win.xs[5], tr.xs[-1])
        np.testing.assert_array_equal(win.us[5], tr.us[-1])

    def test_csv_round_trip(self, tmp_path):
        tr = preset("diamond", dt=DT)
        path = tmp_path / "diamond.csv"
        tr.to_csv(path)
        back = ReferenceTrajectory.from_csv(path)
        np.testing.assert_array_equal(back.ts, tr.ts)
        np.testing.assert_array_equal(back.xs, tr.xs)
        np.testing.assert_array_equal(back.us, tr.us)
        assert back.dt == tr.dt

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            ReferenceTrajectory.from_csv(path)

    def test_validate_rejects_jumpy_positions(self):
        xs = np.zeros((3, 10))
        xs[:, 6] = 1.0
        xs[2, 0] = 50.0
        tr = ReferenceTrajectory(np.arange(3) * DT, xs, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            tr.validate()
        # the limit is 20 m/s: a step just under it passes, one at it does not
        xs[2, 0] = 19.9 * DT
        ReferenceTrajectory(np.arange(3) * DT, xs, np.zeros((3, 4))).validate()
        xs[2, 0] = 20.0 * DT
        with pytest.raises(ValueError, match="reaches 20 m/s"):
            ReferenceTrajectory(np.arange(3) * DT, xs, np.zeros((3, 4))).validate()

    @pytest.mark.parametrize("step, shown", [(-DT, "-0.05"), (0.0, "0.0")], ids=["descending", "constant"])
    def test_csv_rejects_non_increasing_times(self, tmp_path, step, shown):
        tr = preset("circle", dt=DT)
        path = tmp_path / "t.csv"
        ReferenceTrajectory(step * np.arange(len(tr)), tr.xs, tr.us).to_csv(path)
        with pytest.raises(ValueError, match=rf"^sample time dt must be positive \(t must increase\), got {shown}$"):
            ReferenceTrajectory.from_csv(path)

    def test_dt_is_the_first_sample_gap(self):
        xs = np.zeros((3, 10))
        xs[:, 6] = 1.0
        tr = ReferenceTrajectory([1.0, 1.05, 1.1], xs, np.zeros((3, 4)))
        assert tr.dt == 1.05 - 1.0
        with pytest.raises(ValueError, match=r"^trajectory needs at least 2 points$"):
            ReferenceTrajectory([0.0], xs[:1], np.zeros((1, 4)))
