import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrot_net.kinematics import (
    KinematicState,
    MobilityConfig,
    MotionTable,
    Vec3,
    disk_joined,
    distance,
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


def make_state(position, speed, waypoints=()):
    return KinematicState(position=position, speed=speed, waypoints=tuple(waypoints), cursor=0)


class TestTicks:
    def test_a_multiple_of_dt_counts_whole_despite_rounding(self):
        cfg = MobilityConfig(dt=0.1)
        assert 0.3 / 0.1 < 3
        assert cfg.ticks(0.3) == 3
        assert cfg.ticks(2.5) == 25

    def test_a_partial_tick_is_not_counted(self):
        assert MobilityConfig(dt=0.1).ticks(0.35) == 3
        assert MobilityConfig(dt=0.5).ticks(0.0) == 0


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
        cfg = MobilityConfig(dt=0.1, tau=1.0)
        hist = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0)]
        assert predict_slope(hist, cfg).distance_to(Vec3(12, 0, 0)) < 1e-9

    def test_four_sample_example(self):
        cfg = MobilityConfig(dt=0.5, tau=2.5)
        hist = [Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 2, 0), Vec3(0, 3, 0)]
        assert predict_slope(hist, cfg).distance_to(Vec3(0, 8, 0)) < 1e-9

    def test_constant_history_is_identity(self):
        cfg = MobilityConfig(dt=0.1, tau=3.0)
        assert predict_slope([Vec3(7, 7, 7)] * 5, cfg) == Vec3(7, 7, 7)

    def test_degenerate_history_returns_position(self):
        cfg = MobilityConfig()
        assert predict_slope([Vec3(1, 2, 3)], cfg) == Vec3(1, 2, 3)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
    def test_linear_in_tau(self, tau):
        hist = [Vec3(0, 0, 0), Vec3(1, 2, 3), Vec3(2, 4, 6)]
        base = predict_slope(hist, MobilityConfig(dt=0.1, tau=tau))
        double = predict_slope(hist, MobilityConfig(dt=0.1, tau=2 * tau))
        d1 = base - hist[-1]
        d2 = double - hist[-1]
        assert (d2 - d1 * 2.0).norm() < 1e-9


class TestRandomWaypoint:
    def test_exhausted_queue_is_stationary(self):
        cfg = MobilityConfig()
        state = KinematicState(position=Vec3(5, 5, 5), speed=10.0, waypoints=(), cursor=0)
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

    def test_waypoints_are_drawn_in_spawn_then_queue_order(self):
        # The spawn, then one uniform triple per waypoint, all from the
        # node's generator: the order an up-front draw of the same queue has.
        cfg = MobilityConfig()
        box = Vec3(100, 100, 50)
        state = make_random_waypoint_state(box, 50.0, 1.0, Random(5), cfg)
        start = state.position
        for _ in range(10_000):
            if len(state.waypoints) >= 50:
                break
            state = step_random_waypoint(state, cfg)
        rng = Random(5)
        drawn = [
            Vec3(rng.uniform(0.0, box.x), rng.uniform(0.0, box.y), rng.uniform(0.0, box.z))
            for _ in range(51)
        ]
        assert start == drawn[0]
        assert list(state.waypoints[:50]) == drawn[1:]

    @pytest.mark.parametrize("box", [
        "Vec3(5, 5, 5)", "Vec3(10, 1e-9, 1e-9)", "Vec3(8, 8, 8)", "Vec3(11, 11, 11)",
    ])
    def test_box_no_wider_than_r_w_refused(self, box):
        # Every point of a box whose diagonal is at most 2 r_w = 20 lies
        # within r_w of its centre, where a node would draw waypoints
        # forever.  A child process with capped memory keeps an unbounded
        # draw from hanging this test.
        code = f"""
import resource
from random import Random
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from parrot_net.kinematics import (MobilityConfig, Vec3, make_random_waypoint_state,
                                   step_random_waypoint)
cfg = MobilityConfig(r_w=10.0)
try:
    state = make_random_waypoint_state({box}, 1.0, 1.0, Random(0), cfg)
    for _ in range(100):
        state = step_random_waypoint(state, cfg)
except ValueError as exc:
    assert "r_w" in str(exc), exc
else:
    raise SystemExit("accepted")
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr


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
        cfg = MobilityConfig(dt=0.1, tau=2.0, r_w=10.0)
        # Far waypoint: straight unobstructed motion, five recent positions.
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(1000, 0, 0)])
        recent = []
        for _ in range(10):
            state = step_random_waypoint(state, cfg)
            recent = (recent + [state.position])[-5:]
        wp = predict_waypoint(state, cfg)
        slope = predict_slope(recent, cfg)
        assert wp.distance_to(slope) < 1e-6

    def test_dispatcher_prefers_waypoints(self):
        cfg = MobilityConfig(dt=0.1, tau=1.0, r_w=5.0)
        state = make_state(Vec3(0, 0, 0), 10.0, [Vec3(100, 0, 0)])
        assert predict_position(state, cfg) == predict_waypoint(state, cfg)


class TestDistance:
    # Unbounded finite floats: subnormal ones, and huge ones whose
    # differences overflow to inf.
    point = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3)

    @given(point, point)
    @example((1e308, -1e308, 5e-324), (-1e308, 1e308, -5e-324))
    @example((0.0, -0.0, 1e-310), (-0.0, 0.0, -1e-310))
    @settings(max_examples=500)
    def test_symmetric_bit_for_bit_and_equal_to_vec3(self, a, b):
        d = distance(*a, *b)
        assert d.hex() == distance(*b, *a).hex()
        va, vb = Vec3(*a), Vec3(*b)
        assert d.hex() == va.distance_to(vb).hex() == (va - vb).norm().hex()


class TestMotionTableReplay:
    """`MotionTable` built from spawn states, against their public replay."""

    cfg = MobilityConfig(dt=0.1, tau=1.0, r_w=5.0)

    def spawn(self, seed):
        # A box a few r_w wide, so queues draw waypoints inside the table.
        return [make_random_waypoint_state(Vec3(40.0, 40.0, 20.0), speed, 0.0,
                                           Random(seed * 10 + i), self.cfg)
                for i, speed in enumerate((0.0, 3.0, 12.0, 30.0))]

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_step_random_waypoint_replay(self, seed):
        ticks = 120
        table = MotionTable(self.spawn(seed), self.cfg, ticks)
        states = self.spawn(seed)
        for k in range(ticks + 1):
            # repr tells every float apart bit for bit, -0.0 from 0.0 too.
            assert repr(table.row(k)) == repr([s.position for s in states])
            states = [step_random_waypoint(s, self.cfg) for s in states]
        assert repr(table.trace(ticks)[-1]) == repr((ticks * self.cfg.dt, tuple(table.row(ticks))))

    def test_write_is_the_trace_formatted(self, tmp_path):
        table = MotionTable(self.spawn(1), self.cfg, 30)
        path = tmp_path / "trace.txt"
        table.write(str(path), 20)
        trace = table.trace(20)
        assert len(trace) == 21
        expected = "".join(f"{t:.6f},{i},{p.x:.6f},{p.y:.6f},{p.z:.6f}\n"
                           for t, row in trace for i, p in enumerate(row))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_joined_searches_the_ticks_own_row(self):
        table = MotionTable(self.spawn(2), self.cfg, 40)
        verdicts = set()
        for k in (0, 17, 40):
            coords = [c for p in table.row(k) for c in (p.x, p.y, p.z)]
            for r in (5.0, 20.0, 60.0):
                for src in range(table.n):
                    for dst in range(table.n):
                        verdict = table.joined(k, r, src, dst)
                        assert verdict == disk_joined(coords, 0, table.n, r, src, dst)
                        verdicts.add(verdict)
        assert verdicts == {False, True}


@given(st.lists(st.tuples(*[st.floats(-100.0, 100.0)] * 3), min_size=2, max_size=9),
       st.floats(1.0, 120.0), st.data())
@settings(max_examples=200)
def test_disk_joined_equals_connected_components(points, r, data):
    n = len(points)
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    vecs = [Vec3(*p) for p in points]
    component = list(range(n))  # naive union of every pair within r
    for a in range(n):
        for b in range(n):
            if vecs[a].distance_to(vecs[b]) <= r and component[a] != component[b]:
                old = component[b]
                component = [component[a] if c == old else c for c in component]
    coords = [7.0, 7.0, 7.0] + [c for p in points for c in p]  # one node before base
    assert disk_joined(coords, 3, n, r, src, dst) == (component[src] == component[dst])


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
    for name in ("dt", "tau", "r_w"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                MobilityConfig(**{name: value})
