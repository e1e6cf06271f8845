"""Acceptance gate: one test per criterion, one PASS line each.

Simulation campaigns run at desk scale (shrunk duration/box/traffic, 25
seeded runs) because absolute reference figures depend on a full 802.11g
stack and an unstated link budget; these tests pin the directional claims
and the exact component-level contracts instead.
"""

import math
import struct
from dataclasses import replace
from random import Random

import numpy as np
import pytest

import parrot_net as pn
from parrot_net.campaign import campaign, emit_csv, mean_ci, parse_config, run_campaign
from parrot_net.chirp import decode_chirp, encode_chirp
from parrot_net.kinematics import MobilityConfig, Vec3
from parrot_net.routing import Forward, RoutingParams, RoutingState, compute_let
from parrot_net.simulator import Scenario, stable_seed

RUNS = 25


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


# -- shared synthetic chirp-flood harness -------------------------------------

def static_states(node_ids, params):
    states = {}
    for i in node_ids:
        state = RoutingState(i, RoutingParams(**vars(params)), now=0.0, tau=2.5, r_tx=150.0)
        state.update_self(Vec3(0, 0, 0), Vec3(0, 0, 0))
        states[i] = state
    return states


def flood_all(states, adjacency, now, reverse_order=False):
    """One chirp round: every node originates, copies flood breadth-first.
    `reverse_order` flips the forwarding fanout so backup entries see both
    arrival orders across rounds, as jittered radios produce."""
    for state in states.values():
        state.expire(now)
    for origin in sorted(states):
        chirp = states[origin].make_chirp(now)
        fanout = sorted(adjacency[origin], reverse=reverse_order)
        queue = [(j, chirp, origin) for j in fanout]
        while queue:
            node, incoming, forwarder = queue.pop(0)
            action = states[node].handle_chirp(incoming, forwarder, now)
            if isinstance(action, Forward):
                followers = sorted(adjacency[node], reverse=reverse_order)
                queue.extend(
                    (nxt, action.chirp, node) for nxt in followers if nxt != forwarder
                )


def follow_route(states, start, dest, max_hops):
    """Walk argmax next hops; returns ('delivered'|'loop'|'no-route'|'budget',
    path)."""
    path = [start]
    node = start
    for _ in range(max_hops):
        if node == dest:
            return "delivered", path
        nxt = states[node].select_next_hop(dest)
        if nxt is None:
            return "no-route", path
        if nxt in path and nxt != dest:
            return "loop", path + [nxt]
        path.append(nxt)
        node = nxt
    return "budget" if path[-1] != dest else "delivered", path


def random_connected_graph(n, rng):
    """Random tree plus extra edges: connected by construction."""
    adjacency = {i: set() for i in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
    extras = rng.randrange(0, n)
    for _ in range(extras):
        a, b = rng.sample(range(n), 2)
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


# -- criteria ------------------------------------------------------------------

def test_criterion_1_chirp_codec_round_trip():
    rng = Random(0xC0DEC)

    def f32(x):
        return struct.unpack(">f", struct.pack(">f", x))[0]

    golden = bytes.fromhex(
        "000000013f800000000000000000000000000000000000000000"
        "00003f8000003f80000000010010"
    )
    chirp = decode_chirp(golden)
    assert encode_chirp(chirp) == golden
    assert chirp.originator == 1 and chirp.seq == 1 and chirp.ttl == 16

    for _ in range(10_000):
        c = pn.Chirp(
            originator=rng.randrange(2**32),
            position=Vec3(f32(rng.uniform(-1e5, 1e5)), f32(rng.uniform(-1e5, 1e5)),
                          f32(rng.uniform(-1e5, 1e5))),
            predicted_position=Vec3(f32(rng.uniform(-1e5, 1e5)),
                                    f32(rng.uniform(-1e5, 1e5)),
                                    f32(rng.uniform(-1e5, 1e5))),
            reward=f32(rng.random()),
            cohesion=f32(rng.random()),
            seq=rng.randrange(2**16),
            ttl=rng.randrange(2**16),
        )
        frame = encode_chirp(c)
        assert len(frame) == 40
        assert decode_chirp(frame) == c
    report(1, "10,000 random chirps round-trip bit-exactly at 40 bytes; golden frame matches")


def test_criterion_2_let_matches_brute_force():
    rng = Random(0x1E7)
    step = 1e-3
    horizon = 120.0
    grid = np.arange(0.0, horizon, step)
    for _ in range(1000):
        dp = Vec3(rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(-150, 150))
        dv = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-15, 15))
        r = rng.uniform(50, 250)
        analytic = compute_let(dp, dv, r)
        dist_sq = ((dp.x + grid * dv.x) ** 2 + (dp.y + grid * dv.y) ** 2
                   + (dp.z + grid * dv.z) ** 2)
        outside = np.nonzero(dist_sq > r * r)[0]
        if outside.size == 0:
            # Never exits within the horizon: analytic must agree (inf or
            # beyond the scanned window).
            assert analytic >= horizon - step
        else:
            oracle = float(grid[outside[0]])
            assert abs(analytic - oracle) <= 1.5 * step, (dp, dv, r, analytic, oracle)
    report(2, "analytic link-expiry time matches 1 ms brute force on 1,000 triples")


def test_criterion_3_q_fixed_point_on_chain():
    hops = 5
    params = RoutingParams(alpha=0.5, gamma0=0.8)
    states = static_states(range(hops + 1), params)
    chain = {i: {j for j in (i - 1, i + 1) if 0 <= j <= hops} for i in range(hops + 1)}
    origin = 0
    rounds = 0
    for round_index in range(60):
        now = 0.5 * (round_index + 1)
        for state in states.values():
            state.expire(now)
        chirp = states[origin].make_chirp(now)
        queue = [(j, chirp, origin) for j in sorted(chain[origin])]
        while queue:
            node, incoming, forwarder = queue.pop(0)
            action = states[node].handle_chirp(incoming, forwarder, now)
            if isinstance(action, Forward):
                queue.extend((nxt, action.chirp, node)
                             for nxt in sorted(chain[node]) if nxt != forwarder)
        rounds += 1
        if all(
            abs(states[h].table.get(origin, h - 1) - 0.8**h) < 1e-6
            for h in range(1, hops + 1)
        ):
            break
    for h in range(1, hops + 1):
        q = states[h].table.get(origin, h - 1)
        assert abs(q - 0.8**h) < 1e-6, (h, q)
    assert rounds <= 60
    report(3, f"chain Q converged to 0.8^h (h=1..5) within {rounds} chirp rounds")


def flood_from(states, adjacency, origin, now, blocked=frozenset()):
    """Flood one origination; (sender, receiver) pairs in `blocked` model
    per-link broadcast loss for that round."""
    chirp = states[origin].make_chirp(now)
    queue = [(j, chirp, origin) for j in sorted(adjacency[origin])
             if (origin, j) not in blocked]
    while queue:
        node, incoming, forwarder = queue.pop(0)
        action = states[node].handle_chirp(incoming, forwarder, now)
        if isinstance(action, Forward):
            queue.extend(
                (nxt, action.chirp, node)
                for nxt in sorted(adjacency[node])
                if nxt != forwarder and (node, nxt) not in blocked
            )


def converge_lossy_triangle(gamma0):
    """Triangle 0-1-2 with the destination 3 hanging off node 2.  The link
    from 2 alternates which triangle corner misses its broadcast, so both
    corners keep a fresh entry via each other as well as via 2."""
    adjacency = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
    states = static_states(adjacency.keys(), RoutingParams(alpha=0.5, gamma0=gamma0))
    for round_index in range(500):
        now = 0.5 * (round_index + 1)
        for state in states.values():
            state.expire(now)
        blocked = {(2, 0)} if round_index % 2 == 0 else {(2, 1)}
        flood_from(states, adjacency, 3, now, blocked=blocked)
    return states


def test_criterion_4_loop_freedom():
    rng = Random(0x100F)
    graphs = [random_connected_graph(rng.randrange(4, 16), rng) for _ in range(200)]

    for adjacency in graphs:
        params = RoutingParams(alpha=0.5, gamma0=0.8)
        states = static_states(adjacency.keys(), params)
        for round_index in range(24):
            flood_all(states, adjacency, 0.5 * (round_index + 1),
                      reverse_order=round_index % 2 == 1)
        n = len(adjacency)
        for dest in adjacency:
            for start in adjacency:
                if start == dest:
                    continue
                outcome, path = follow_route(states, start, dest, max_hops=n + 1)
                assert outcome != "loop", (adjacency, dest, path)
                assert outcome != "budget", (adjacency, dest, path)

    # Without the per-hop damping (gamma0 = 1) the corner entries converge
    # to exactly 1.0, the argmax ties break to the lower id on both corners,
    # and the route chases its own tail; gamma0 = 0.8 keeps the two-hop
    # entry strictly below the one-hop entry under the same loss pattern.
    lossy = converge_lossy_triangle(gamma0=1.0)
    outcome, path = follow_route(lossy, 0, 3, max_hops=8)
    assert outcome in ("loop", "budget"), (outcome, path)
    damped = converge_lossy_triangle(gamma0=0.8)
    assert follow_route(damped, 0, 3, max_hops=8)[0] == "delivered"
    assert follow_route(damped, 1, 3, max_hops=8)[0] == "delivered"
    report(4, "200 random graphs acyclic at gamma0=0.8; constructed loop at gamma0=1.0 "
              f"(path {path})")


def test_criterion_5_prediction_accuracy_direction():
    speed = 50 / 3.6
    cfg = MobilityConfig(tau=2.5)
    errors = pn.prediction_accuracy_study(speed, cfg, duration=60.0, trials=10)
    e_naive = speed * cfg.tau
    assert abs(e_naive - 34.722) < 1e-2
    assert errors["waypoint"] < errors["slope"] < e_naive
    assert errors["waypoint"] < 5.0
    # The waypoint figure is 0 by construction: the predictor replays the
    # motion it is scored against, so it checks replay consistency.
    report(5, f"waypoint {errors['waypoint']:.3f} m (replay consistency, 0 by construction) "
              f"< slope {errors['slope']:.3f} m < v*tau {e_naive:.2f} m")


# Desk-scale campaign shared by the tau-benefit and protocol-ordering
# criteria: 10 nodes, rural disk channel, random waypoint.
CAMPAIGN_BOX = Vec3(375.0, 375.0, 187.5)
CAMPAIGN_SPEED_KMH = 90.0
CAMPAIGN_DURATION = 150.0
CAMPAIGN_SEED_TAG = "acceptance-67"


def campaign_scenario(**overrides):
    base = Scenario(
        nodes=10,
        box=CAMPAIGN_BOX,
        speed=CAMPAIGN_SPEED_KMH / 3.6,
        duration=CAMPAIGN_DURATION,
        warmup=30.0,
        cbr_rate=224_000,
        protocol="parrot",
        channel="rural",
    )
    return replace(base, **overrides)


def run_arm(scenario, tag):
    return campaign([replace(scenario, seed=stable_seed(CAMPAIGN_SEED_TAG, tag, r))
                     for r in range(RUNS)])


@pytest.fixture(scope="module")
def parrot_arm():
    return run_arm(campaign_scenario(), "arm")


def test_criterion_6_tau_benefit(parrot_arm):
    zero = campaign_scenario(
        mobility=MobilityConfig(tau=0.0),
    )
    no_prediction = run_arm(zero, "arm")
    with_mean, with_ci = mean_ci([m.pdr for m in parrot_arm])
    zero_mean, zero_ci = mean_ci([m.pdr for m in no_prediction])
    assert with_mean > zero_mean
    assert with_mean - with_ci > zero_mean + zero_ci, (
        f"CIs overlap: tau2.5 {with_mean:.3f}±{with_ci:.3f} vs "
        f"tau0 {zero_mean:.3f}±{zero_ci:.3f}"
    )
    report(6, f"PDR tau=2.5 {with_mean:.3f}±{with_ci:.3f} > tau=0 "
              f"{zero_mean:.3f}±{zero_ci:.3f}, CIs disjoint")


def test_criterion_7_protocol_ordering(parrot_arm):
    greedy = run_arm(campaign_scenario(protocol="greedy"), "arm")
    parrot_mean, _ = mean_ci([m.pdr for m in parrot_arm])
    greedy_mean, _ = mean_ci([m.pdr for m in greedy])
    assert parrot_mean > greedy_mean
    for m in parrot_arm:
        assert m.pdr <= m.optimal_bound + 1e-12
    report(7, f"parrot {parrot_mean:.3f} > greedy {greedy_mean:.3f}; "
              f"bound dominated on all {RUNS} runs")


def test_criterion_8_alpha_plateau():
    # Measured under urban fading: alpha 0.05 / 0.5 / 1.0 gave PDR
    # 0.509 / 0.569 / 0.583, so alpha = 1.0 is not punished at this desk
    # scale; the plateau check passes only because 1.0 may exceed 0.5 by
    # up to one CI.
    base = Scenario(
        nodes=10, box=Vec3(350.0, 350.0, 175.0), speed=90 / 3.6,
        duration=80.0, warmup=20.0, cbr_rate=112_000, channel="urban",
    )
    alphas = (0.05, 0.5, 1.0)
    runs = campaign([replace(base, routing=RoutingParams(alpha=alpha),
                             seed=stable_seed("acceptance-8", r))
                     for alpha in alphas for r in range(RUNS)])
    means = {}
    cis = {}
    for i, alpha in enumerate(alphas):
        ms = runs[i * RUNS:(i + 1) * RUNS]
        means[alpha], cis[alpha] = mean_ci([m.pdr for m in ms])
    assert means[0.5] >= means[0.05] - cis[0.05]
    assert means[0.5] >= means[1.0] - cis[1.0]
    assert means[0.5] > means[0.05], "interior point should beat the sluggish end"
    report(8, "alpha plateau: " + ", ".join(
        f"{a}: {means[a]:.3f}±{cis[a]:.3f}" for a in (0.05, 0.5, 1.0)
    ))


def test_criterion_9_determinism_and_conservation(tmp_path):
    overrides = [
        "nodes=6", "box_x=300", "box_y=300", "box_z=150", "duration=20",
        "warmup=5", "bitrate=112000", "speed_kmh=70", "runs=3",
        "sweep=tau", "sweep_values=0,2.5", "seed=77",
    ]
    cfg = parse_config(None, overrides)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    results_a = run_campaign(cfg)
    results_b = run_campaign(cfg)
    emit_csv(results_a, str(first))
    emit_csv(results_b, str(second))
    assert first.read_bytes() == second.read_bytes()
    for point in results_a:
        for m in point.metrics:
            assert m.sent == m.delivered + sum(m.drops.values())
            assert m.sent > 0
    report(9, "re-run produced byte-identical CSV; sent = delivered + drops on every run")


def test_criterion_10_urban_fading_sanity():
    rng = Random(0xFAD3)
    gains = [pn.nakagami_gain(2.0, rng) for _ in range(100_000)]
    gain_mean = sum(gains) / len(gains)
    assert abs(gain_mean - 1.0) < 0.01

    base = Scenario(
        nodes=10, box=Vec3(300.0, 300.0, 150.0), speed=90 / 3.6,
        duration=80.0, warmup=20.0, cbr_rate=112_000,
    )
    runs = campaign([replace(base, channel=channel, seed=stable_seed("acceptance-10", r))
                     for channel in ("rural", "urban") for r in range(12)])
    rural, urban = runs[:12], runs[12:]
    rural_mean, _ = mean_ci([m.pdr for m in rural])
    urban_mean, _ = mean_ci([m.pdr for m in urban])
    assert urban_mean <= rural_mean
    report(10, f"nakagami gain mean {gain_mean:.4f}; urban PDR {urban_mean:.3f} "
               f"<= rural {rural_mean:.3f} at matched geometry")
