import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrot_net.channel import budget_for_radius, compute_r_tx, nakagami_gain
from parrot_net.errors import ConfigError
from parrot_net.kinematics import (
    MobilityConfig,
    Vec3,
    make_random_waypoint_state,
    motion_step,
    predict_position,
    step_random_waypoint,
)
from parrot_net.routing import RoutingParams
from parrot_net.simulator import (
    DROP_CAUSES,
    PROTOCOLS,
    Frame,
    Scenario,
    Simulation,
    greedy_next_hop,
    optimal_pdr_bound,
    run,
    stable_seed,
)

# Small, fully-connected, static scenario; chirps pushed past the end of the
# run (huge interval) when the protocol does not need them.
def quiet_flood_scenario(**overrides):
    base = Scenario(
        nodes=4,
        box=Vec3(50, 50, 25),
        speed=0.0,
        duration=10.0,
        warmup=2.0,
        cbr_rate=56000,  # one 1400 B packet every 0.2 s
        protocol="flood",
        seed=5,
    )
    sc = replace(base, routing=replace(base.routing, chirp_interval=1e6), **overrides)
    return sc


class TestRunBasics:
    def test_two_static_nodes_in_range_parrot(self):
        sc = Scenario(
            nodes=2, box=Vec3(20, 20, 10), speed=0.0,
            duration=12.0, warmup=3.0, cbr_rate=112000, seed=2,
        )
        metrics = run(sc)
        assert metrics.sent > 0
        assert metrics.pdr == 1.0
        assert metrics.optimal_bound == 1.0

    def test_partitioned_pair(self):
        sc = Scenario(
            nodes=2, box=Vec3(5000, 5000, 2500), speed=0.0,
            duration=10.0, warmup=2.0, cbr_rate=112000,
            budget=budget_for_radius(10.0), seed=3,
        )
        metrics = run(sc)
        assert metrics.optimal_bound == 0.0, "seed must give a partitioned spawn"
        assert metrics.pdr == 0.0
        assert metrics.drops["no-route"] == metrics.sent

    def test_same_seed_identical_metrics(self):
        sc = Scenario(nodes=5, box=Vec3(300, 300, 150), duration=15.0,
                      warmup=3.0, cbr_rate=112000, seed=11)
        assert run(sc) == run(sc)

    def test_different_seed_differs(self):
        sc = Scenario(nodes=5, box=Vec3(300, 300, 150), duration=15.0,
                      warmup=3.0, cbr_rate=112000, seed=11)
        other = run(replace(sc, seed=12))
        assert other != run(sc)

    @pytest.mark.parametrize("protocol", ["parrot", "greedy", "flood"])
    def test_conservation(self, protocol):
        sc = Scenario(
            nodes=6, box=Vec3(400, 400, 200), speed=90 / 3.6,
            duration=20.0, warmup=4.0, cbr_rate=112000,
            protocol=protocol, seed=17,
        )
        m = run(sc)
        assert m.sent == m.delivered + sum(m.drops.values())
        assert m.sent > 0

    def test_routing_reads_horizon_and_range_from_scenario(self):
        sc = Scenario(
            nodes=3, duration=5.0, warmup=1.0, mobility=MobilityConfig(tau=1.0),
            budget=budget_for_radius(10.0), seed=3,
        )
        for node in Simulation(sc).nodes:
            state = node.routing
            assert state.tau == sc.mobility.tau
            assert state.r_tx == compute_r_tx(sc.budget)

    def test_invalid_scenario_rejected_before_events(self):
        with pytest.raises(ConfigError):
            run(Scenario(nodes=1))
        with pytest.raises(ConfigError):
            run(Scenario(duration=0.0))
        with pytest.raises(ConfigError):
            run(Scenario(protocol="mystery"))
        with pytest.raises(ConfigError, match=r"^box\.x 0 must be > 0"):
            run(Scenario(box=Vec3(0, 10, 10), duration=1.0, warmup=0.0))

    def test_box_no_wider_than_r_w_rejected(self):
        # Every point of it lies within r_w of its centre, where a node
        # would draw waypoints forever (make_random_waypoint_state).  The
        # cube's diagonal is 8.66 m.
        with pytest.raises(ConfigError) as err:
            Scenario(box=Vec3(5, 5, 5), mobility=MobilityConfig(r_w=10.0)).validate()
        assert err.value.fields == ("box", "mobility.r_w")
        Scenario(box=Vec3(5, 5, 5), mobility=MobilityConfig(r_w=4.0)).validate()

    @pytest.mark.parametrize("name, bad, edge", [
        ("forward_jitter", -0.01, 0.0),
        ("header_overhead", -2000, 0),
        ("retry_backoff", -1e-3, 0.0),
        ("queue_limit", 0, 1),
        ("retry_limit", -1, 0),
    ])
    def test_field_that_would_run_time_backwards_rejected(self, name, bad, edge):
        # A negative delay fires an event before the one that scheduled it.
        with pytest.raises(ConfigError, match=name):
            Scenario(**{name: bad}).validate()
        Scenario(**{name: edge}).validate()

    @pytest.mark.parametrize("overrides, fields", [
        ({"routing": RoutingParams(chirp_interval=1e-310)}, ("routing.chirp_interval", "duration")),
        ({"routing": RoutingParams(chirp_interval=1e-14)}, ("routing.chirp_interval", "duration")),
        ({"cbr_rate": 1e300}, ("cbr_rate", "payload", "duration")),
    ])
    def test_uncountable_stream_rejected(self, overrides, fields):
        # 2**53 events or more: the float grid no longer tells neighbouring
        # indices apart, or their count overflows.
        with pytest.raises(ConfigError) as err:
            Scenario(**overrides).validate()
        assert err.value.fields == fields

    @pytest.mark.parametrize("overrides", [
        {"speed": math.nan},
        {"speed": math.inf},
        {"duration": math.inf},
        {"box": Vec3(500.0, math.inf, 250.0)},
    ])
    def test_non_finite_scenario_rejected(self, overrides):
        with pytest.raises(ConfigError, match="must be finite"):
            Scenario(**overrides).validate()

    @pytest.mark.parametrize("name, bad", [
        ("nodes", 2.5), ("nodes", 3.0), ("payload", 1400.0), ("queue_limit", 2.5),
        ("queue_limit", True), ("retry_limit", 1.5), ("hop_budget", 32.0),
        ("header_overhead", 28.5),
    ])
    def test_non_integer_count_rejected(self, name, bad):
        # A float node count fails at `range`; the MAC would act on a
        # fractional limit as on the next whole one.
        with pytest.raises(ConfigError, match=f"^{name} {bad!r} must be an int") as err:
            Scenario(**{name: bad}).validate()
        assert err.value.fields == (name,)


class TestMacBehavior:
    def test_idle_medium_latency_is_exactly_airtime(self):
        # Flood needs no routes; chirps silenced; one hop, no queuing.
        sc = quiet_flood_scenario(nodes=2)
        m = run(sc)
        airtime = (sc.payload + sc.header_overhead) * 8 / sc.link_rate
        assert m.pdr == 1.0
        assert all(abs(lat - airtime) < 1e-12 for lat in m.latencies)

    def test_flood_delivers_in_connected_graph(self):
        m = run(quiet_flood_scenario())
        assert m.pdr == 1.0

    def test_two_simultaneous_broadcasts_collide(self):
        sc = quiet_flood_scenario()
        sim = Simulation(sc)
        frame = lambda sender: Frame(
            sender=sender, link_dest=None, kind="data",
            payload=None, size=100,
        )
        # Drive the MAC directly: both nodes start transmitting at t=0.
        first = frame(0)
        sim.enqueue(sim.nodes[0], first)
        assert sim.nodes[2].clean is first
        sim.enqueue(sim.nodes[1], frame(1))
        # Node 2 receives both, and neither cleanly.
        assert sim.nodes[2].busy == 2
        assert sim.nodes[2].clean is None

    def test_half_duplex_receiver_misses_while_talking(self):
        sc = quiet_flood_scenario()
        sim = Simulation(sc)
        sim.enqueue(sim.nodes[0], Frame(0, None, "data", None, 5000))
        # Node 0 is mid-transmission; a frame arriving at it is corrupted.
        sim.enqueue(sim.nodes[1], Frame(1, None, "data", None, 100))
        assert sim.nodes[0].busy == 1 and sim.nodes[0].clean is None

    def test_retry_then_success_latency(self):
        # Script the channel: the first three attempts of every unicast data
        # frame fail, the fourth succeeds.
        sc = Scenario(
            nodes=2, box=Vec3(20, 20, 10), speed=0.0, duration=6.0,
            warmup=1.0, cbr_rate=56000, seed=2,
        )

        sim = Simulation(sc)
        hears = sim.medium.hears

        def scripted(frame):
            if frame.kind == "data" and frame.attempts < 3:
                return []
            return hears(frame)

        sim.medium.hears = scripted
        m = sim.run()
        airtime = (sc.payload + sc.header_overhead) * 8 / sc.link_rate
        expected = 4 * airtime + 3 * sc.retry_backoff
        assert m.pdr == 1.0
        assert all(abs(lat - expected) < 1e-9 for lat in m.latencies)

    def test_retries_exhausted_drops_channel(self):
        sc = Scenario(
            nodes=2, box=Vec3(20, 20, 10), speed=0.0, duration=6.0,
            warmup=1.0, cbr_rate=56000, seed=2,
        )

        sim = Simulation(sc)
        hears = sim.medium.hears

        def deaf(frame):
            if frame.kind == "data":
                return []
            return hears(frame)

        sim.medium.hears = deaf
        m = sim.run()
        assert m.delivered == 0
        assert m.drops["channel"] == m.sent

    def test_urban_retry_reuses_frame_fading_gain(self):
        # Static urban pair with r_TX at the pair's distance, so fresh gains
        # give both verdicts.  Spawn positions do not depend on the budget.
        sc = Scenario(nodes=2, box=Vec3(200, 200, 100), speed=0.0,
                      duration=1.0, warmup=0.0, channel="urban", seed=6)
        a, b = Simulation(sc).motion.row(0)
        distance = a.distance_to(b)
        sim = Simulation(replace(sc, budget=budget_for_radius(distance)))
        sender, receiver = sim.nodes
        # The run's gain stream, in dB: n - 1 = 1 value per new frame.
        reference = Random(stable_seed(sc.seed, "channel"))
        m = sim.sc.budget.nakagami_m
        verdicts = []
        try:
            for _ in range(60):
                frame = Frame(sender.id, receiver.id, "data", None, 100)
                first = receiver in sim.medium.hears(frame)
                drawn = [10.0 * math.log10(nakagami_gain(m, reference))]
                assert frame.fading == drawn, "a new frame takes the next gain"
                for _ in range(sc.retry_limit):
                    frame.attempts += 1
                    assert (receiver in sim.medium.hears(frame)) == first
                    assert frame.fading == drawn, "a retry keeps the frame's gain"
                # The next frame's check shows that no retry took a gain.
                verdicts.append(first)
        finally:
            sim.medium.close()
        assert True in verdicts and False in verdicts

    def test_queue_overflow_drops(self):
        sc = quiet_flood_scenario()
        sim = Simulation(sc)
        node = sim.nodes[0]
        for _ in range(sc.queue_limit + 5):
            sim.enqueue(node, Frame(0, None, "chirp", b"x" * 40, 68))
        # One frame is on the air, the queue is full, the rest were refused.
        assert len(node.queue) == sc.queue_limit


class TestHopBudget:
    @staticmethod
    def line_run(hop_budget):
        # Script the channel into the line sender - relay - receiver: each
        # node hears only its neighbours on the line, and the fourth node
        # hears nobody.
        sim = Simulation(quiet_flood_scenario(hop_budget=hop_budget))
        relay = min(set(range(4)) - {sim.sender, sim.receiver})
        links = {sim.sender: [relay], relay: [sim.sender, sim.receiver],
                 sim.receiver: [relay]}
        sim.medium.hears = lambda frame: [sim.nodes[j] for j in sorted(links[frame.sender])]
        return sim.run()

    def test_one_hop_of_budget_dies_at_the_relay(self):
        m = self.line_run(1)
        assert m.sent > 0
        assert m.drops["ttl"] == m.sent

    def test_two_hops_of_budget_reach_the_receiver(self):
        m = self.line_run(2)
        assert m.sent > 0
        assert m.pdr == 1.0


class TestGreedyNextHop:
    def test_picks_closest_progressing_neighbor(self):
        positions = {1: Vec3(80, 0, 0), 2: Vec3(120, 0, 0)}
        hop = greedy_next_hop(positions, Vec3(100, 0, 0), Vec3(0, 0, 0))
        assert hop == 1

    def test_local_minimum_gives_none(self):
        positions = {1: Vec3(150, 0, 0), 2: Vec3(120, 50, 0)}
        assert greedy_next_hop(positions, Vec3(100, 0, 0), Vec3(0, 0, 0)) is None

    def test_equidistant_tie_lowest_id(self):
        positions = {5: Vec3(50, 0, 0), 3: Vec3(0, 50, 0)}
        hop = greedy_next_hop(positions, Vec3(50, 50, 0), Vec3(0, 0, 0))
        assert hop == 3

    def test_no_neighbors(self):
        assert greedy_next_hop({}, Vec3(0, 0, 0), Vec3(10, 0, 0)) is None


class TestOptimalBound:
    def test_connected_static_topology(self):
        positions = (Vec3(0, 0, 0), Vec3(100, 0, 0), Vec3(200, 0, 0))
        trace = [(0.0, positions)]
        bound = optimal_pdr_bound(trace, 150.0, [0.5, 1.0, 1.5], 0, 2)
        assert bound == 1.0

    def test_partitioned_pair_is_zero(self):
        trace = [(0.0, (Vec3(0, 0, 0), Vec3(1000, 0, 0)))]
        assert optimal_pdr_bound(trace, 150.0, [0.5], 0, 1) == 0.0

    def test_two_phase_trace_half_reachable(self):
        near = (Vec3(0, 0, 0), Vec3(100, 0, 0))
        far = (Vec3(0, 0, 0), Vec3(400, 0, 0))
        trace = [(0.0, near), (5.0, far)]
        times = [1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]
        assert optimal_pdr_bound(trace, 150.0, times, 0, 1) == 0.5

    def test_no_emissions(self):
        trace = [(0.0, (Vec3(0, 0, 0), Vec3(10, 0, 0)))]
        assert optimal_pdr_bound(trace, 150.0, [], 0, 1) == 0.0


def cbr_emission_times(sc):
    """Measured CBR emission times of a scenario: k * interval in
    [warmup, duration), k >= 1."""
    interval = sc.payload * 8 / sc.cbr_rate
    times = []
    k = 1
    while (t := k * interval) < sc.duration:
        if t >= sc.warmup:
            times.append(t)
        k += 1
    return times


class TestStreamLength:
    """Where each periodic source stops.  CBR emissions (and chirps) run
    while their time is below `duration`; ticks run up to the count that
    sizes the motion table, and fire while their time is at most
    `duration`.  Durations on either grid, or one ulp off it, make the
    comparison at the boundary matter."""

    @settings(max_examples=100, deadline=None)
    @given(
        cbr_rate=st.one_of(st.sampled_from([56000.0, 112000.0]), st.floats(20_000, 200_000)),
        dt=st.one_of(st.sampled_from([0.1, 0.25]), st.floats(0.02, 0.5)),
        on_tick_grid=st.booleans(),
        index=st.integers(1, 40),
        nudge=st.sampled_from([-1, 0, 1]),
    )
    @example(cbr_rate=112000.0, dt=0.1, on_tick_grid=False, index=30, nudge=0)
    @example(cbr_rate=112000.0, dt=0.1, on_tick_grid=True, index=30, nudge=-1)
    @example(cbr_rate=56000.0, dt=0.25, on_tick_grid=True, index=4, nudge=0)
    def test_sources_stop_at_the_boundary(self, cbr_rate, dt, on_tick_grid, index, nudge):
        sc = Scenario(nodes=2, duration=1.0, warmup=0.0, cbr_rate=cbr_rate,
                      mobility=MobilityConfig(dt=dt), seed=index)
        # The grid's times as the simulator computes them: index * interval.
        duration = index * (dt if on_tick_grid else sc.payload * 8 / sc.cbr_rate)
        if nudge:
            duration = math.nextafter(duration, math.copysign(math.inf, nudge))
        sc = replace(sc, duration=duration)
        sim = Simulation(sc)
        # An emission at exactly `duration` never fires.
        assert sim.run().sent == len(cbr_emission_times(sc))
        n_ticks = int(duration / dt + 1e-9)
        assert len(sim.trace) - 1 == sum(1 for k in range(1, n_ticks + 1) if k * dt <= duration)

    def test_tiny_chirp_interval_builds_at_once(self):
        # A billion chirps per node: only the first of each is scheduled.
        sc = Scenario(nodes=3, duration=1.0, warmup=0.5,
                      routing=RoutingParams(chirp_interval=1e-9))
        assert Simulation(sc).now == 0.0


class TestOnlineBound:
    @pytest.mark.parametrize("channel", ["rural", "urban"])
    @pytest.mark.parametrize("cbr_rate, dt", [
        (112000, 0.1),    # one packet every 0.1 s: on the tick grid
        (56000, 0.25),    # every 0.2 s, ticks every 0.25 s: one in five coincides
        (22400, 0.25),    # every 0.5 s: every emission coincides with a tick
        (150000, 0.1),    # off the tick grid
    ])
    def test_equals_post_hoc_bound(self, channel, cbr_rate, dt):
        for seed in (1, 2, 3):
            sc = Scenario(
                nodes=6, box=Vec3(400, 400, 200), speed=90 / 3.6,
                duration=12.0, warmup=2.0, cbr_rate=cbr_rate, channel=channel,
                mobility=MobilityConfig(dt=dt), seed=seed,
            )
            sim = Simulation(sc)
            m = sim.run()
            expected = optimal_pdr_bound(
                sim.trace, sim.medium.r_tx, cbr_emission_times(sc), sim.sender, sim.receiver
            )
            assert m.optimal_bound == expected


class TestBoundDominance:
    @pytest.mark.parametrize("protocol", ["parrot", "greedy", "flood"])
    def test_rural_pdr_never_exceeds_bound(self, protocol):
        for seed_tag in range(3):
            sc = Scenario(
                nodes=8, box=Vec3(400, 400, 200), speed=120 / 3.6,
                duration=25.0, warmup=5.0, cbr_rate=112000,
                protocol=protocol, seed=stable_seed("dom", protocol, seed_tag),
            )
            m = run(sc)
            assert m.pdr <= m.optimal_bound + 1e-12


class TestOverheadAndTrace:
    def test_chirp_origination_count_static(self):
        # Quiet data plane; count pure chirp originations on a connected
        # static graph against the analytic tally.
        sc = Scenario(
            nodes=3, box=Vec3(40, 40, 20), speed=0.0, duration=10.0,
            warmup=2.0, cbr_rate=56.0,  # one packet every 200 s: none
            protocol="flood", seed=9,
        )
        sim = Simulation(sc)
        m = sim.run()
        interval = sc.routing.chirp_interval
        originations = 0
        rng_check = Random(stable_seed(sc.seed, "mac"))
        for _ in range(sc.nodes):
            offset = rng_check.uniform(0.0, interval)
            k = 0
            while offset + k * interval < sc.duration:
                k += 1
            originations += k
        # Fully connected triangle, TTL 16: each fresh chirp is forwarded
        # once by each other node unless collisions interfere; origination
        # count is exact, total transmissions bounded by the flood fanout.
        assert m.chirp_frames >= originations
        assert m.chirp_frames <= originations * sc.nodes
        assert m.chirp_bytes == m.chirp_frames * (40 + sc.header_overhead)

    def test_trace_file_schema(self, tmp_path):
        path = tmp_path / "trace.txt"
        sc = Scenario(
            nodes=3, box=Vec3(100, 100, 50), duration=2.0, warmup=0.5,
            cbr_rate=112000, seed=4, trace_path=str(path),
        )
        run(sc)
        lines = path.read_text().strip().splitlines()
        ticks = int(sc.duration / sc.mobility.dt) + 1  # includes t=0 row
        assert len(lines) == ticks * sc.nodes
        first = lines[0].split(",")
        assert len(first) == 5
        t, node, x, y, z = first
        assert float(t) == 0.0 and int(node) == 0
        for field in (x, y, z):
            float(field)

    def test_trace_file_bytes_match_public_trace(self, tmp_path):
        path = tmp_path / "trace.txt"
        sc = Scenario(
            nodes=4, box=Vec3(200, 200, 100), duration=3.0, warmup=0.5,
            cbr_rate=112000, seed=8, trace_path=str(path),
        )
        sim = Simulation(sc)
        sim.run()
        expected = "".join(
            f"{t:.6f},{i},{pos.x:.6f},{pos.y:.6f},{pos.z:.6f}\n"
            for t, positions in sim.trace
            for i, pos in enumerate(positions)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_latencies_only_for_measured_packets(self):
        sc = quiet_flood_scenario()
        m = run(sc)
        measured = [t for t in m.latencies]
        assert len(measured) == m.delivered


class TestRunLengthMemory:
    def test_init_memory_does_not_grow_with_run_length(self):
        # 300 s at the 2 Mbit/s reference load: 62,571 periodic events
        # (53,571 CBR emissions, 6,000 chirps, 3,000 ticks).  Only the
        # motion table (three floats per node per tick, up to duration +
        # tau) may scale with the run.
        sc = Scenario(duration=300.0, cbr_rate=2e6, seed=5)
        cfg = sc.mobility
        ticks = round((sc.duration + cfg.tau) / cfg.dt) + 1
        motion_bytes = 24 * sc.nodes * ticks
        tracemalloc.start()
        try:
            sim = Simulation(sc)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del sim
        assert traced - motion_bytes < 0.5 * 2**20

    @pytest.mark.parametrize("channel", ["rural", "urban"])
    def test_finished_run_is_freed_without_a_collection(self, channel):
        # Events still pending at the end of the run hold bound methods of
        # the simulation; left on its heap they would make it cyclic
        # garbage that only a full collection frees, and so would a bound
        # method kept on the simulation or a node.  Under flooding the last
        # packet, emitted at 9.8 s, ends its first hop at 9.80048 s, and
        # its re-broadcasts are still on the air when the run ends.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for protocol in PROTOCOLS:
                gc.collect()
                sim = Simulation(quiet_flood_scenario(duration=9.8005, channel=channel,
                                                      protocol=protocol))
                sim.run()
                ref = weakref.ref(sim)
                del sim
                assert ref() is None, protocol
                assert gc.collect() == 0, protocol
        finally:
            if enabled:
                gc.enable()


class TestFloodConservation:
    @settings(max_examples=12, deadline=None)
    @given(
        channel=st.sampled_from(["rural", "urban"]),
        nodes=st.integers(3, 6),
        seed=st.integers(0, 2**31),
    )
    def test_conserves_packets_and_reruns_identically(self, channel, nodes, seed):
        sc = Scenario(
            nodes=nodes, box=Vec3(300, 300, 150), speed=90 / 3.6,
            duration=4.0, warmup=1.0, cbr_rate=112000, protocol="flood",
            channel=channel, seed=seed,
        )
        m = run(sc)
        assert m.sent == m.delivered + sum(m.drops.values())
        assert m.sent > 0
        assert run(sc) == m


class TestRunInvariants:
    """The documented invariants of a run, over random scenarios.  "Rural
    PDR <= bound" compares two aggregates of the run: the delivered share of
    its measured packets against the share of its measured emissions whose
    sender was joined to the receiver in the disk graph.  It is not a bound
    per packet: a copy held in a queue, or a retry across a tick, can
    arrive after the topology has joined, so a packet emitted while no path
    existed can still be delivered."""

    @settings(max_examples=40, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        channel=st.sampled_from(["rural", "urban"]),
        nodes=st.integers(3, 8),
        speed_kmh=st.floats(0.0, 150.0),
        duration=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**31),
    )
    def test_documented_invariants_hold(self, protocol, channel, nodes, speed_kmh,
                                        duration, seed):
        sc = Scenario(
            nodes=nodes, box=Vec3(300, 300, 150), speed=speed_kmh / 3.6,
            duration=duration, warmup=duration / 4, cbr_rate=112000,
            protocol=protocol, channel=channel, seed=seed,
        )
        sim = Simulation(sc)
        m = sim.run()
        assert m.sent > 0
        assert m.sent == m.delivered + sum(m.drops.values())
        if channel == "rural":
            assert m.pdr <= m.optimal_bound
        assert run(sc) == m
        gamma0 = sc.routing.gamma0
        for node in sim.nodes:
            table = node.routing.table
            for dest in table.destinations():
                assert all(q <= gamma0 for q in table.row(dest).values())


class TestMotionTable:
    """The motion table of a run against a public replay of each node with
    `step_random_waypoint`, bit for bit.  Boxes a few r_w wide make nodes
    reach a waypoint every few ticks, so their queues draw many waypoints
    on demand inside the run and its look-ahead, down to a width of
    1.5 r_w, whose diagonal is 2.25 r_w; in the first example each node
    passes 27 to 35 waypoints in 65 ticks."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_every_node_moves_on_every_tick_of_a_reference_run(self, seed):
        # The reference box, speed and length, with r_w >= speed * dt, so a
        # node that has a waypoint to steer for moves on every tick.
        sc = Scenario(seed=seed)
        cfg = sc.mobility
        assert cfg.r_w >= sc.speed * cfg.dt
        ticks = int(sc.duration / cfg.dt + 1e-9) + int(cfg.tau / cfg.dt + 1e-9)
        for i in range(sc.nodes):
            state = make_random_waypoint_state(
                sc.box, sc.speed, sc.duration, Random(stable_seed(seed, "mobility", i)), cfg,
            )
            p = state.position
            x, y, z, k = p.x, p.y, p.z, state.cursor
            for tick in range(1, ticks + 1):
                before = x, y, z
                x, y, z, k = motion_step(x, y, z, k, state.waypoints, sc.speed, cfg.dt, cfg.r_w)
                assert (x, y, z) != before, f"node {i} stops at tick {tick}"

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.one_of(st.floats(1.5, 4.0), st.floats(4.0, 40.0)),
        speed=st.one_of(st.just(0.0), st.floats(0.5, 40.0)),
        dt=st.floats(0.05, 0.5),
        r_w=st.floats(1.0, 20.0),
        tau=st.floats(0.0, 3.0),
        duration=st.floats(0.5, 4.0),
        seed=st.integers(0, 2**31),
    )
    @example(width=3.0, speed=30.0, dt=0.1, r_w=10.0, tau=2.5, duration=4.0, seed=1)
    @example(width=4.0, speed=40.0, dt=0.2, r_w=2.0, tau=3.0, duration=4.0, seed=7)
    def test_trace_and_self_prediction_equal_replay(self, width, speed, dt, r_w, tau,
                                                     duration, seed):
        box = Vec3(width * r_w, width * r_w, width * r_w / 2)
        cfg = MobilityConfig(dt=dt, tau=tau, r_w=r_w)
        sc = Scenario(
            nodes=3, box=box, speed=speed, duration=duration, warmup=0.0,
            cbr_rate=56.0, mobility=cfg, seed=seed,
        )
        sim = Simulation(sc)
        sim.run()
        trace = sim.trace
        for i, node in enumerate(sim.nodes):
            state = make_random_waypoint_state(
                box, speed, duration, Random(stable_seed(seed, "mobility", i)), cfg,
            )
            replay = [state.position]
            for _ in range(len(trace) - 1):
                state = step_random_waypoint(state, cfg)
                replay.append(state.position)
            # repr tells every float apart bit for bit, -0.0 from 0.0 too.
            assert repr([positions[i] for _, positions in trace]) == repr(replay)
            assert repr(node.routing.self_prediction) == repr(predict_position(state, cfg))
