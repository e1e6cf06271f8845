import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrot_net.kinematics import (
    KinematicState,
    MobilityConfig,
    Vec3,
    make_random_waypoint_state,
    predict_position,
    predict_slope,
    predict_waypoint,
    prediction_error,
    step_random_waypoint,
)


def brute_force_trajectory(pos, waypoints, speed, dt, r_w, steps):
    """Independent re-statement of the waypoint follower used as an oracle."""
    k = 0
    for _ in range(steps):
        while k < len(waypoints) and math.dist(pos, waypoints[k]) <= r_w:
            k += 1
        if k >= len(waypoints):
            break
        target = waypoints[k]
        gap = [t - p for t, p in zip(target, pos)]
        dist = math.sqrt(sum(g * g for g in gap))
        step = speed * dt
        if dist <= step:
            pos = list(target)
        else:
            pos = [p + g * step / dist for p, g in zip(pos, gap)]
        while k < len(waypoints) and math.dist(pos, waypoints[k]) <= r_w:
            k += 1
    return tuple(pos)


def make_state(position, speed, waypoints=(), history=()):
    return KinematicState(
        position=position,
        speed=speed,
        waypoints=tuple(waypoints),
        cursor=0,
        history=tuple(history),
    )


class TestPredictWaypoint:
    def test_straight_line(self):
        cfg = MobilityConfig(dt=0.1, tau=2.5, r_w=10.0)
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(100, 0, 0)])
        result = predict_waypoint(state, cfg)
        assert result.distance_to(Vec3(25, 0, 0)) < 1e-9

    def test_zero_velocity_fixed_point(self):
        cfg = MobilityConfig(dt=0.1, tau=5.0)
        state = make_state(Vec3(3, 4, 5), 0.0, [Vec3(100, 0, 0)])
        assert predict_waypoint(state, cfg) == Vec3(3, 4, 5)

    def test_waypoint_already_inside_sphere(self):
        cfg = MobilityConfig(dt=0.1, tau=1.0, r_w=10.0)
        waypoints = [Vec3(2, 0, 0), Vec3(0, 50, 0)]
        state = make_state(Vec3(0, 0, 0), 10.0, waypoints)
        result = predict_waypoint(state, cfg)
        oracle = brute_force_trajectory(
            [0.0, 0.0, 0.0], [(2, 0, 0), (0, 50, 0)], 10.0, 0.1, 10.0, 10
        )
        assert result.distance_to(Vec3(*oracle)) < 1e-9
        # Moving toward the second waypoint, not the contained first one.
        assert result.y > 9.0 and abs(result.x) < 1e-9

    def test_queue_exhaustion_holds_position(self):
        cfg = MobilityConfig(dt=0.1, tau=10.0, r_w=1.0)
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(5, 0, 0)])
        result = predict_waypoint(state, cfg)
        # Reaches (and enters) the only waypoint, then holds.
        assert result.distance_to(Vec3(5, 0, 0)) <= 1.0

    def test_does_not_mutate_state(self):
        cfg = MobilityConfig()
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(100, 0, 0)])
        predict_waypoint(state, cfg)
        assert state.position == Vec3(0, 0, 0)
        assert state.cursor == 0


class TestPredictSlope:
    def test_hand_example(self):
        cfg = MobilityConfig(dt=0.1, tau=1.0, h=3)
        state = make_state(
            Vec3(2, 0, 0), 10.0,
            history=[Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0)],
        )
        assert predict_slope(state, cfg).distance_to(Vec3(12, 0, 0)) < 1e-9

    def test_four_sample_example(self):
        cfg = MobilityConfig(dt=0.5, tau=2.5, h=4)
        hist = [Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 2, 0), Vec3(0, 3, 0)]
        state = make_state(Vec3(0, 3, 0), 2.0, history=hist)
        assert predict_slope(state, cfg).distance_to(Vec3(0, 8, 0)) < 1e-9

    def test_constant_history_is_identity(self):
        cfg = MobilityConfig(dt=0.1, tau=3.0)
        hist = [Vec3(7, 7, 7)] * 5
        state = make_state(Vec3(7, 7, 7), 0.0, history=hist)
        assert predict_slope(state, cfg) == Vec3(7, 7, 7)

    def test_degenerate_history_returns_position(self):
        cfg = MobilityConfig()
        state = make_state(Vec3(1, 2, 3), 5.0, history=[Vec3(1, 2, 3)])
        assert predict_slope(state, cfg) == Vec3(1, 2, 3)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
    def test_linear_in_tau(self, tau):
        hist = [Vec3(0, 0, 0), Vec3(1, 2, 3), Vec3(2, 4, 6)]
        state = make_state(Vec3(2, 4, 6), 10.0, history=hist)
        base = predict_slope(state, MobilityConfig(dt=0.1, tau=tau))
        double = predict_slope(state, MobilityConfig(dt=0.1, tau=2 * tau))
        d1 = base - state.position
        d2 = double - state.position
        assert (d2 - d1 * 2.0).norm() < 1e-9


class TestRandomWaypoint:
    def test_exhausted_queue_is_stationary(self):
        cfg = MobilityConfig()
        state = KinematicState(
            position=Vec3(5, 5, 5), speed=10.0, waypoints=(), cursor=0, history=(Vec3(5, 5, 5),)
        )
        stepped = step_random_waypoint(state, cfg)
        assert stepped.position == Vec3(5, 5, 5)

    def test_deterministic_with_seed(self):
        cfg = MobilityConfig()
        bounds = Vec3(500, 500, 250)

        def trajectory(seed):
            state = make_random_waypoint_state(bounds, 13.89, 30.0, Random(seed), cfg)
            positions = []
            for _ in range(300):
                state = step_random_waypoint(state, cfg)
                positions.append(state.position)
            return positions

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)

    def test_single_waypoint_reached_quickly(self):
        cfg = MobilityConfig(dt=0.1, r_w=10.0)
        speed = 20.0
        target = Vec3(speed * 0.1 * 10, 0, 0)
        state = make_state(Vec3(0, 0, 0), speed, [target])
        for _ in range(10):
            state = step_random_waypoint(state, cfg)
            if state.cursor == 1:
                break
        assert state.cursor == 1
        assert state.position.distance_to(target) <= cfg.r_w

    def test_positions_stay_in_box(self):
        cfg = MobilityConfig()
        bounds = Vec3(200, 200, 100)
        state = make_random_waypoint_state(bounds, 30.0, 60.0, Random(7), cfg)
        for _ in range(600):
            state = step_random_waypoint(state, cfg)
            p = state.position
            assert -1e-9 <= p.x <= bounds.x + 1e-9
            assert -1e-9 <= p.y <= bounds.y + 1e-9
            assert -1e-9 <= p.z <= bounds.z + 1e-9

    def test_history_ring_bounded(self):
        cfg = MobilityConfig(h=5)
        state = make_random_waypoint_state(Vec3(100, 100, 100), 10.0, 10.0, Random(1), cfg)
        for _ in range(50):
            state = step_random_waypoint(state, cfg)
        assert len(state.history) == 5
        assert state.history[-1] == state.position


class TestPredictionAgreement:
    def test_waypoint_replays_true_motion_exactly(self):
        cfg = MobilityConfig(dt=0.1, tau=2.5, r_w=10.0)
        horizon = int(cfg.tau / cfg.dt)
        state = make_random_waypoint_state(Vec3(500, 500, 250), 13.89, 40.0, Random(11), cfg)
        states = [state]
        for _ in range(300 + horizon):
            state = step_random_waypoint(state, cfg)
            states.append(state)
        for i in range(0, 300, 7):
            predicted = predict_waypoint(states[i], cfg)
            actual = states[i + horizon].position
            assert prediction_error(predicted, actual) < 1e-6

    def test_waypoint_and_slope_agree_on_straight_track(self):
        cfg = MobilityConfig(dt=0.1, tau=2.0, r_w=10.0, h=5)
        # Far waypoint: straight unobstructed motion, warmed-up history.
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(1000, 0, 0)])
        for _ in range(10):
            state = step_random_waypoint(state, cfg)
        wp = predict_waypoint(state, cfg)
        slope = predict_slope(state, cfg)
        assert wp.distance_to(slope) < 1e-6

    def test_dispatcher_prefers_waypoints(self):
        cfg = MobilityConfig(dt=0.1, tau=1.0, r_w=5.0)
        state = make_state(
            Vec3(0, 0, 0), 10.0, [Vec3(100, 0, 0)],
            history=[Vec3(0, -1, 0), Vec3(0, 0, 0)],
        )
        assert predict_position(state, cfg) == predict_waypoint(state, cfg)
        no_wp = make_state(
            Vec3(0, 0, 0), 10.0, (),
            history=[Vec3(0, -1, 0), Vec3(0, 0, 0)],
        )
        assert predict_position(no_wp, cfg) == predict_slope(no_wp, cfg)


class TestPredictionError:
    def test_zero_for_exact_prediction(self):
        assert prediction_error(Vec3(1, 2, 3), Vec3(1, 2, 3)) == 0.0

    def test_naive_error_on_straight_track(self):
        # Hold-position prediction at 50 km/h over 2.5 s.
        v = 50.0 / 3.6
        start = Vec3(0, 0, 0)
        actual = Vec3(v * 2.5, 0, 0)
        assert abs(prediction_error(start, actual) - 34.722) < 1e-2

    def test_antipodal_worst_case(self):
        v, tau = 13.89, 2.5
        predicted = Vec3(-v * tau, 0, 0)
        actual = Vec3(v * tau, 0, 0)
        assert abs(prediction_error(predicted, actual) - 2 * v * tau) < 1e-9


@given(
    x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4), z=st.floats(-1e4, 1e4),
    tau=st.floats(0.0, 10.0),
)
@settings(max_examples=50)
def test_zero_speed_prediction_is_identity(x, y, z, tau):
    cfg = MobilityConfig(dt=0.1, tau=tau)
    state = make_state(Vec3(x, y, z), 0.0, [Vec3(0, 0, 0)])
    assert predict_waypoint(state, cfg) == Vec3(x, y, z)


def test_config_invariants():
    with pytest.raises(ValueError):
        MobilityConfig(dt=0.0)
    with pytest.raises(ValueError):
        MobilityConfig(tau=-1.0)
    with pytest.raises(ValueError):
        MobilityConfig(r_w=0.0)
    with pytest.raises(ValueError):
        MobilityConfig(h=1)
    for name in ("dt", "tau", "r_w"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                MobilityConfig(**{name: value})
