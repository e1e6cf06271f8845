import math
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from parrot_net.channel import budget_for_radius, compute_r_tx
from parrot_net.errors import ConfigError
from parrot_net.kinematics import MobilityConfig, Vec3
from parrot_net.simulator import (
    DROP_CAUSES,
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
        sim._enqueue(sim.nodes[0], frame(0))
        sim._enqueue(sim.nodes[1], frame(1))
        receptions = sim.nodes[2].inflight
        assert len(receptions) == 2
        assert all(rec.corrupted for rec in receptions)

    def test_half_duplex_receiver_misses_while_talking(self):
        sc = quiet_flood_scenario()
        sim = Simulation(sc)
        sim._enqueue(sim.nodes[0], Frame(0, None, "data", None, 5000))
        # Node 0 is mid-transmission; a frame arriving at it is corrupted.
        sim._enqueue(sim.nodes[1], Frame(1, None, "data", None, 100))
        at_zero = [rec for rec in sim.nodes[0].inflight]
        assert len(at_zero) == 1 and at_zero[0].corrupted

    def test_retry_then_success_latency(self):
        # Script the channel: the first three attempts of every unicast data
        # frame fail, the fourth succeeds.
        sc = Scenario(
            nodes=2, box=Vec3(20, 20, 10), speed=0.0, duration=6.0,
            warmup=1.0, cbr_rate=56000, seed=2,
        )

        class Scripted(Simulation):
            def hears(self, frame, receiver):
                if frame.kind == "data" and frame.attempts < 3:
                    return False
                return super().hears(frame, receiver)

        m = Scripted(sc).run()
        airtime = (sc.payload + sc.header_overhead) * 8 / sc.link_rate
        expected = 4 * airtime + 3 * sc.retry_backoff
        assert m.pdr == 1.0
        assert all(abs(lat - expected) < 1e-9 for lat in m.latencies)

    def test_retries_exhausted_drops_channel(self):
        sc = Scenario(
            nodes=2, box=Vec3(20, 20, 10), speed=0.0, duration=6.0,
            warmup=1.0, cbr_rate=56000, seed=2,
        )

        class Deaf(Simulation):
            def hears(self, frame, receiver):
                if frame.kind == "data":
                    return False
                return super().hears(frame, receiver)

        m = Deaf(sc).run()
        assert m.delivered == 0
        assert m.drops["channel"] == m.sent

    def test_urban_retry_reuses_frame_fading_gain(self):
        # Static urban pair with r_TX at the pair's distance, so fresh gains
        # give both verdicts.  Spawn positions do not depend on the budget.
        sc = Scenario(nodes=2, box=Vec3(200, 200, 100), speed=0.0,
                      duration=1.0, warmup=0.0, channel="urban", seed=6)
        a, b = Simulation(sc).nodes
        distance = a.position.distance_to(b.position)
        sim = Simulation(replace(sc, budget=budget_for_radius(distance)))
        sender, receiver = sim.nodes
        verdicts = []
        for _ in range(60):
            frame = Frame(sender.id, receiver.id, "data", None, 100)
            before = sim.rng_channel.getstate()
            first = sim.hears(frame, receiver)
            drawn = sim.rng_channel.getstate()
            assert drawn != before, "a new frame draws a fresh gain"
            for _ in range(sc.retry_limit):
                frame.attempts += 1
                assert sim.hears(frame, receiver) == first
                assert sim.rng_channel.getstate() == drawn, "a retry draws no gain"
            verdicts.append(first)
        assert True in verdicts and False in verdicts

    def test_queue_overflow_drops(self):
        sc = quiet_flood_scenario()
        sim = Simulation(sc)
        node = sim.nodes[0]
        for _ in range(sc.queue_limit + 5):
            sim._enqueue(node, Frame(0, None, "chirp", b"x" * 40, 68))
        # One frame is on the air, the queue is full, the rest were refused.
        assert len(node.queue) == sc.queue_limit


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

    def test_latencies_only_for_measured_packets(self):
        sc = quiet_flood_scenario()
        m = run(sc)
        measured = [t for t in m.latencies]
        assert len(measured) == m.delivered
