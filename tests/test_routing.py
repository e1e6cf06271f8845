import copy
import math
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrot_net.chirp import Chirp, seq_newer
from parrot_net.errors import ConfigError
from parrot_net.kinematics import Vec3
from parrot_net.routing import (
    DISCARD_SELF,
    DISCARD_STALE,
    DISCARD_TTL,
    Discard,
    Forward,
    NeighborRecord,
    QTable,
    RoutingParams,
    RoutingState,
    compute_let,
)

from test_public_surface import assert_called_or_listed


def make_state(node_id=1, now=0.0, tau=2.5, r_tx=150.0, **params):
    state = RoutingState(node_id, RoutingParams(**params), now=now, tau=tau, r_tx=r_tx)
    state.update_self(Vec3(0, 0, 0), Vec3(0, 0, 0))
    return state


def static_record(position, cohesion=1.0, now=0.0):
    """A stationary in-range neighbor: prediction equals position."""
    return NeighborRecord(
        last_heard=now, position=position, predicted_position=position, cohesion=cohesion,
    )


def chirp_from(origin, seq, *, reward=1.0, cohesion=1.0, ttl=16,
               position=Vec3(0, 0, 0), predicted=None):
    return Chirp(
        originator=origin,
        position=position,
        predicted_position=predicted if predicted is not None else position,
        reward=reward,
        cohesion=cohesion,
        seq=seq,
        ttl=ttl,
    )


class TestQUpdate:
    def test_single_step_from_zero(self):
        q = QTable().update(7, 2, alpha=0.5, discount=0.8, reward=1.0, now=0.0)
        assert abs(q - 0.4) < 1e-12

    def test_alpha_one_jumps_to_target(self):
        table = QTable()
        table.update(7, 2, alpha=1.0, discount=0.6, reward=0.5, now=0.0)
        assert abs(table.get(7, 2) - 0.3) < 1e-12

    def test_geometric_fixed_point(self):
        table = QTable()
        values = []
        for _ in range(25):
            values.append(table.update(7, 2, alpha=0.5, discount=0.8, reward=1.0, now=0.0))
        assert abs(values[0] - 0.4) < 1e-12
        assert abs(values[1] - 0.6) < 1e-12
        assert abs(values[2] - 0.7) < 1e-12
        assert abs(values[-1] - 0.8) < 1e-6


# SEQs near 0, near half the 16-bit space and near its top, so that
# repeats, wraparound and the half-space edge all come up, and any SEQ.
seqs = st.one_of(st.integers(0, 4), st.integers(2**15 - 4, 2**15 + 4),
                 st.integers(2**16 - 4, 2**16 - 1), st.integers(0, 2**16 - 1))


class TestNoteFreshSeq:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), seqs), max_size=40))
    @example([(0, 3), (0, 3)])                  # a repeat
    @example([(0, 0), (0, 2**15)])              # ahead by exactly half
    @example([(0, 2**16 - 1), (0, 0)])          # wraparound
    def test_is_seq_newer_than_the_last_accepted(self, chirps):
        # `note_fresh_seq` inlines `seq_newer`; both must give one verdict.
        table = QTable()
        accepted = {}
        for dest, seq in chirps:
            fresh = dest not in accepted or seq_newer(seq, accepted[dest])
            assert table.note_fresh_seq(dest, seq) == fresh
            if fresh:
                accepted[dest] = seq


class TestComputeLet:
    def test_closing_then_leaving(self):
        assert abs(compute_let(Vec3(100, 0, 0), Vec3(-10, 0, 0), 120.0) - 22.0) < 1e-9

    def test_receding_already_out(self):
        assert compute_let(Vec3(200, 0, 0), Vec3(10, 0, 0), 100.0) == 0.0

    def test_not_yet_in_range(self):
        assert compute_let(Vec3(200, 0, 0), Vec3(-10, 0, 0), 100.0) == 0.0

    def test_static_in_range_is_forever(self):
        assert compute_let(Vec3(50, 0, 0), Vec3(0, 0, 0), 150.0) == math.inf

    def test_static_out_of_range_is_zero(self):
        assert compute_let(Vec3(500, 0, 0), Vec3(0, 0, 0), 150.0) == 0.0

    def test_perpetual_miss_negative_discriminant(self):
        # Passes by at 200 m minimum distance with a 100 m radius.
        assert compute_let(Vec3(200, -500, 0), Vec3(0, 10, 0), 100.0) == 0.0

    def test_brute_force_oracle(self):
        rng = Random(202)
        step = 1e-3
        horizon = 120.0
        checked = 0
        for _ in range(300):
            dp = Vec3(rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(-150, 150))
            dv = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-15, 15))
            r = rng.uniform(50, 250)
            analytic = compute_let(dp, dv, r)
            oracle = brute_force_exit_time(dp, dv, r, step, horizon)
            if oracle is None:
                assert analytic >= horizon - step
            else:
                assert abs(analytic - oracle) <= 1.5 * step
            checked += 1
        assert checked == 300


def dot(a, b):
    """The dot product of two Vec3s, summed x, y, z."""
    return a.x * b.x + a.y * b.y + a.z * b.z


def vec3_let(delta_p, delta_v, r_tx):
    """`compute_let` written on Vec3 arithmetic: the reference that the
    library's float core must match bit for bit."""
    a = dot(delta_v, delta_v)
    c = dot(delta_p, delta_p) - r_tx * r_tx
    if a == 0.0:
        return math.inf if c <= 0.0 else 0.0
    b = 2.0 * dot(delta_p, delta_v)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return 0.0 if c > 0.0 else math.inf
    root = math.sqrt(disc)
    t2 = (-b + root) / (2.0 * a)
    if t2 <= 0.0:
        return 0.0
    t1 = (-b - root) / (2.0 * a)
    if t1 > 0.0:
        return 0.0
    return t2


def vec3_phi_let(state, record):
    """`RoutingState.phi_let` with dp and dv formed as Vec3s."""
    tau = state.tau
    if tau <= 0.0:
        return 1.0
    delta_p = record.position - state.self_position
    delta_v = (
        (record.predicted_position - record.position)
        - (state.self_prediction - state.self_position)
    ) * (1.0 / tau)
    let = vec3_let(delta_p, delta_v, state.r_tx)
    if let >= tau:
        return 1.0
    return math.sqrt(let / tau)


def vectors(bound):
    """Vec3s with full-mantissa components in [-bound, bound], so that every
    rounding step of the formula counts, or the zero vector, so that the
    degenerate cases (a == 0, equal points) come up."""
    coords = st.integers(-2**52, 2**52).map(lambda k: k * bound / 2**52)
    return st.one_of(st.just(Vec3()), st.builds(Vec3, coords, coords, coords))


# Offsets and radii of the size a run sees, so that most links are live
# and the LET takes its full quadratic path.
points, steps, radii = vectors(100.0), vectors(60.0), st.floats(50.0, 300.0)


class TestLetFloatCore:
    @settings(max_examples=500, deadline=None)
    @given(dp=points, dv=vectors(30.0), r_tx=radii)
    @example(dp=Vec3(50, 0, 0), dv=Vec3(), r_tx=150.0)  # a == 0
    @example(dp=Vec3(200, -500, 0), dv=Vec3(0, 10, 0), r_tx=100.0)  # disc < 0
    def test_compute_let_matches_vec3_formula(self, dp, dv, r_tx):
        assert compute_let(dp, dv, r_tx) == vec3_let(dp, dv, r_tx)

    @settings(max_examples=500, deadline=None)
    @given(
        own=points, own_step=steps, position=points, step=steps,
        tau=st.one_of(st.just(0.0), st.floats(0.05, 10.0)), r_tx=radii,
    )
    @example(own=Vec3(), own_step=Vec3(), position=Vec3(50, 0, 0),
             step=Vec3(), tau=2.5, r_tx=150.0)  # a == 0
    @example(own=Vec3(), own_step=Vec3(), position=Vec3(200, -500, 0),
             step=Vec3(0, 25, 0), tau=2.5, r_tx=100.0)  # disc < 0
    @example(own=Vec3(), own_step=Vec3(10, 0, 0), position=Vec3(50, 0, 0),
             step=Vec3(-50, 0, 0), tau=0.0, r_tx=150.0)  # tau == 0
    def test_phi_let_matches_vec3_formula(self, own, own_step, position, step,
                                          tau, r_tx):
        state = make_state(tau=tau, r_tx=r_tx)
        state.update_self(own, own + own_step)
        record = NeighborRecord(last_heard=0.0, position=position,
                                predicted_position=position + step, cohesion=1.0)
        assert state.phi_let(record) == vec3_phi_let(state, record)


def brute_force_exit_time(dp, dv, r, step, horizon):
    """First time the pair distance exceeds r, scanned at `step` resolution.
    None when it never exceeds r within the horizon."""
    t = 0.0
    while t <= horizon:
        x = dp.x + t * dv.x
        y = dp.y + t * dv.y
        z = dp.z + t * dv.z
        if x * x + y * y + z * z > r * r:
            return t
        t += step
    return None


class TestPhiLet:
    def test_long_lived_link_is_neutral(self):
        state = make_state(tau=2.5, r_tx=150.0)
        rec = static_record(Vec3(50, 0, 0))
        assert state.phi_let(rec) == 1.0

    def test_expiring_link_square_root_ramp(self):
        state = make_state(tau=2.5, r_tx=150.0)
        # Neighbor at 134 m drifting away at 10 m/s: exits at t = 1.6 s.
        rec = NeighborRecord(
            last_heard=0.0, position=Vec3(134, 0, 0),
            predicted_position=Vec3(134 + 25, 0, 0), cohesion=1.0,
        )
        assert abs(state.phi_let(rec) - math.sqrt(1.6 / 2.5)) < 1e-9
        assert abs(state.phi_let(rec) - 0.8) < 1e-9

    def test_dead_link_is_zero(self):
        state = make_state(tau=2.5, r_tx=150.0)
        rec = static_record(Vec3(500, 0, 0))
        assert state.phi_let(rec) == 0.0

    def test_zero_horizon_is_neutral(self):
        state = make_state(tau=0.0)
        rec = static_record(Vec3(500, 0, 0))
        assert state.phi_let(rec) == 1.0


class TestPhiCoh:
    def test_partial_overlap(self):
        state = make_state()
        state.neighbors = {1: static_record(Vec3()), 2: static_record(Vec3()),
                           3: static_record(Vec3())}
        state.cohesion_snapshot = frozenset({1, 2, 4})
        assert abs(state.phi_coh() - math.sqrt(0.5)) < 1e-9
        assert abs(state.phi_coh() - 0.70711) < 1e-5

    def test_identical_sets(self):
        state = make_state()
        state.neighbors = {1: static_record(Vec3()), 2: static_record(Vec3())}
        state.cohesion_snapshot = frozenset({1, 2})
        assert state.phi_coh() == 1.0

    def test_disjoint_sets(self):
        state = make_state()
        state.neighbors = {1: static_record(Vec3())}
        state.cohesion_snapshot = frozenset({9})
        assert state.phi_coh() == 0.0

    def test_empty_sets_convention(self):
        state = make_state()
        assert state.phi_coh() == 1.0

    def test_snapshot_refresh_cadence(self):
        state = make_state(cohesion_window=0.5, now=0.0)
        state.neighbors = {4: static_record(Vec3())}
        state.expire(0.3)
        assert state.cohesion_snapshot == frozenset()  # window not yet elapsed
        state.expire(0.6)
        assert state.cohesion_snapshot == frozenset({4})


class TestGamma:
    def test_identity_factors(self):
        state = make_state(gamma0=0.8, tau=2.5, r_tx=150.0)
        state.neighbors[2] = static_record(Vec3(50, 0, 0), cohesion=1.0)
        assert abs(state.gamma(2) - 0.8) < 1e-12

    def test_factor_product(self):
        state = make_state(gamma0=0.8, tau=2.5, r_tx=150.0)
        state.neighbors[2] = NeighborRecord(
            last_heard=0.0, position=Vec3(134, 0, 0),
            predicted_position=Vec3(159, 0, 0), cohesion=0.70711,
        )
        assert abs(state.gamma(2) - 0.45255) < 1e-4

    def test_expired_link_annihilates(self):
        state = make_state(gamma0=0.8, tau=2.5, r_tx=150.0)
        state.neighbors[2] = static_record(Vec3(400, 0, 0))
        assert state.gamma(2) == 0.0

    def test_unknown_neighbor_raises(self):
        state = make_state()
        with pytest.raises(KeyError):
            state.gamma(99)


class TestMakeChirp:
    def test_first_chirp(self):
        state = make_state(node_id=5)
        chirp = state.make_chirp()
        assert chirp.seq == 1
        assert chirp.reward == 1.0
        assert chirp.originator == 5
        assert chirp.ttl == state.params.initial_ttl

    def test_isolated_node_cohesion(self):
        state = make_state()
        assert state.make_chirp().cohesion == 1.0

    def test_seq_strictly_increments(self):
        state = make_state()
        seqs = [state.make_chirp().seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_carries_own_mobility_info(self):
        state = make_state()
        state.update_self(Vec3(10, 20, 30), Vec3(11, 21, 31))
        chirp = state.make_chirp()
        assert chirp.position == Vec3(10, 20, 30)
        assert chirp.predicted_position == Vec3(11, 21, 31)


class TestHandleChirp:
    def test_stale_seq_discarded(self):
        state = make_state(node_id=1)
        first = state.handle_chirp(chirp_from(9, seq=4), forwarder=9, now=0.0)
        assert isinstance(first, Forward)
        again = state.handle_chirp(chirp_from(9, seq=4), forwarder=9, now=0.1)
        assert again == Discard(DISCARD_STALE)

    def test_self_origin_discarded(self):
        state = make_state(node_id=1)
        action = state.handle_chirp(chirp_from(1, seq=3), forwarder=2, now=0.0)
        assert action == Discard(DISCARD_SELF)

    def test_ttl_expiry_still_updates_table(self):
        state = make_state(node_id=1, alpha=0.5, gamma0=0.8)
        action = state.handle_chirp(chirp_from(9, seq=1, ttl=1), forwarder=9, now=0.0)
        assert action == Discard(DISCARD_TTL)
        assert state.table.get(9, 9) > 0.0

    def test_forward_rewrites_mobility_reward_and_ttl(self):
        state = make_state(node_id=1)
        state.update_self(Vec3(5, 5, 5), Vec3(6, 6, 6))
        action = state.handle_chirp(
            chirp_from(9, seq=1, ttl=16, position=Vec3(50, 0, 0)), forwarder=9, now=0.0
        )
        assert isinstance(action, Forward)
        fwd = action.chirp
        assert fwd.ttl == 15
        assert fwd.position == Vec3(5, 5, 5)
        assert fwd.predicted_position == Vec3(6, 6, 6)
        assert fwd.originator == 9
        assert fwd.seq == 1
        # Reward re-stamped as the best local Q toward the originator.
        assert abs(fwd.reward - state.table.get(9, 9)) < 1e-12

    def test_records_are_updated_in_place(self):
        state = make_state()
        state.handle_chirp(chirp_from(3, 1, position=Vec3(10, 0, 0)), 2, 0.0)
        record = state.neighbors[2]
        state.handle_chirp(chirp_from(4, 1, position=Vec3(20, 0, 0), cohesion=0.5), 2, 0.4)
        assert state.neighbors[2] is record
        assert (record.last_heard, record.position, record.cohesion) == (0.4, Vec3(20, 0, 0), 0.5)

    def test_deterministic(self):
        def play():
            state = make_state(node_id=1)
            actions = [
                state.handle_chirp(chirp_from(9, seq=1), 9, 0.0),
                state.handle_chirp(chirp_from(8, seq=1), 8, 0.1),
                state.handle_chirp(chirp_from(9, seq=2), 8, 0.2),
            ]
            return actions, state.table.row(9), state.table.row(8)

        assert play() == play()


def make_static_states(n, params=None):
    """n routing states for a synthetic flood harness.  All nodes share one
    position so the geometric factors stay neutral and only the logical
    adjacency determines who hears whom."""
    params = params or RoutingParams()
    states = {}
    for i in range(n):
        state = RoutingState(i, RoutingParams(**vars(params)), now=0.0, tau=2.5, r_tx=150.0)
        state.update_self(Vec3(0, 0, 0), Vec3(0, 0, 0))
        states[i] = state
    return states


class TestFigureWalkthrough:
    """Six node topology: D--C--B--A and D--F--E--A; chirps from D reach A
    via both B and E across rounds, so A holds exactly those two entries."""

    D, C, F, B, E, A = 0, 1, 2, 3, 4, 5

    def adjacency(self):
        return {
            self.D: {self.C, self.F},
            self.C: {self.D, self.B},
            self.F: {self.D, self.E},
            self.B: {self.C, self.A},
            self.E: {self.F, self.A},
            self.A: {self.B, self.E},
        }

    def test_reverse_path_entries_at_a(self):
        states = make_static_states(6)
        adj = self.adjacency()
        # Alternate which branch arrives first, as jittered forwarding does.
        for round_index in range(6):
            now = 0.5 * (round_index + 1)
            for state in states.values():
                state.expire(now)
            order = [self.C, self.F] if round_index % 2 == 0 else [self.F, self.C]
            chirp = states[self.D].make_chirp()
            queue = [(j, chirp, self.D) for j in order]
            while queue:
                node, c, fwd = queue.pop(0)
                action = states[node].handle_chirp(c, fwd, now)
                if isinstance(action, Forward):
                    followers = sorted(adj[node]) if round_index % 2 == 0 else sorted(adj[node], reverse=True)
                    queue.extend((nxt, action.chirp, node) for nxt in followers)
        row = states[self.A].table.row(self.D)
        assert set(row) == {self.B, self.E}
        assert all(q > 0 for q in row.values())
        # One hop neighbors of D hold the direct entry Q(D, D).
        assert states[self.C].table.get(self.D, self.D) > 0
        assert states[self.F].table.get(self.D, self.D) > 0


class TestSelectNextHop:
    def test_argmax(self):
        state = make_state(node_id=0)
        state.neighbors = {2: static_record(Vec3()), 4: static_record(Vec3())}
        state.table.update(9, 2, 1.0, 0.6, 1.0, 0.0)
        state.table.update(9, 4, 1.0, 0.4, 1.0, 0.0)
        assert state.select_next_hop(9) == 2

    def test_empty_table_gives_none(self):
        state = make_state()
        assert state.select_next_hop(42) is None

    def test_tie_breaks_to_lowest_id(self):
        state = make_state(node_id=0)
        state.neighbors = {7: static_record(Vec3()), 3: static_record(Vec3())}
        state.table.update(9, 7, 1.0, 0.5, 1.0, 0.0)
        state.table.update(9, 3, 1.0, 0.5, 1.0, 0.0)
        assert state.select_next_hop(9) == 3

    def test_q_floor_is_no_route(self):
        state = make_state(node_id=0)
        state.neighbors = {2: static_record(Vec3())}
        state.table.update(9, 2, 1.0, 1e-6, 1.0, 0.0)
        assert state.select_next_hop(9) is None

    def test_dead_neighbor_not_considered(self):
        state = make_state(node_id=0)
        state.neighbors = {2: static_record(Vec3())}
        state.table.update(9, 2, 1.0, 0.6, 1.0, 0.0)
        state.table.update(9, 5, 1.0, 0.9, 1.0, 0.0)  # 5 is not a live neighbor
        assert state.select_next_hop(9) == 2


class TestExpire:
    def test_silent_neighbor_evicted(self):
        state = make_state(neighbor_timeout=1.5)
        state.neighbors[2] = static_record(Vec3(), now=0.0)
        state.expire(1.4)
        assert 2 in state.neighbors
        state.expire(1.6)
        assert 2 not in state.neighbors

    def test_fresh_records_untouched(self):
        state = make_state(neighbor_timeout=1.5, entry_timeout=3.0)
        state.neighbors[2] = static_record(Vec3(), now=1.0)
        state.table.update(9, 2, 1.0, 0.5, 1.0, 1.0)
        state.expire(2.0)
        assert 2 in state.neighbors
        assert state.table.get(9, 2) > 0

    def test_self_healing_falls_back_to_runner_up(self):
        state = make_state(node_id=0, neighbor_timeout=1.5)
        state.neighbors[1] = static_record(Vec3(), now=0.0)
        state.neighbors[2] = static_record(Vec3(), now=1.0)
        state.table.update(9, 1, 1.0, 0.8, 1.0, 0.0)
        state.table.update(9, 2, 1.0, 0.5, 1.0, 1.0)
        assert state.select_next_hop(9) == 1
        state.expire(1.6)  # neighbor 1 silent for 1.6 s > timeout
        assert state.select_next_hop(9) == 2

    def test_stale_q_entries_evicted(self):
        state = make_state(entry_timeout=3.0)
        state.table.update(9, 2, 1.0, 0.5, 1.0, 0.0)
        state.table.evict(3.1, state.params.entry_timeout)
        assert state.table.get(9, 2) == 0.0


class FullScanQTable(QTable):
    """Scans every entry on every `evict`: the reference for the eviction
    bound of `QTable`."""

    def evict(self, now, timeout):
        for dest in list(self._rows):
            row = self._rows[dest]
            for j in [j for j, e in row.items() if now - e.updated > timeout]:
                del row[j]
            if not row:
                del self._rows[dest]


def table_contents(table):
    return [(dest, list(table.row(dest).items())) for dest in table.destinations()]


class TestEvictionBound:
    @settings(max_examples=200, deadline=None)
    @given(
        # Round times make entries that sit exactly at the timeout likely.
        timeout=st.one_of(st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.1, 5.0)),
        ops=st.lists(
            st.tuples(
                st.one_of(                              # time step, may go back
                    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                    st.floats(-0.5, 2.0),
                ),
                st.one_of(st.none(), st.tuples(         # None: evict
                    st.integers(0, 3),                  # destination
                    st.integers(0, 3),                  # neighbor
                    st.floats(0.0, 1.0),                # discount
                )),
            ),
            max_size=60,
        ),
    )
    def test_matches_full_scan(self, timeout, ops):
        bounded, full = QTable(), FullScanQTable()
        now = 0.0
        for step, update in ops:
            now += step
            for table in (bounded, full):
                if update is None:
                    table.evict(now, timeout)
                else:
                    dest, neighbor, discount = update
                    table.update(dest, neighbor, 0.5, discount, 1.0, now)
            assert table_contents(bounded) == table_contents(full)


class FullScanNeighbors(RoutingState):
    """Scans every neighbor on every `expire`: the reference for the
    neighbor bound of `RoutingState`."""

    def expire(self, now):
        timeout = self.params.neighbor_timeout
        for j in [j for j, rec in self.neighbors.items() if now - rec.last_heard > timeout]:
            del self.neighbors[j]
        self.table.evict(now, self.params.entry_timeout)
        if now - self.cohesion_time >= self.params.cohesion_window:
            self.cohesion_snapshot = frozenset(self.neighbors)
            self.cohesion_time = now


class TestNeighborExpiryBound:
    @settings(max_examples=200, deadline=None)
    @given(
        # Round times make records that sit exactly at the timeout likely.
        timeout=st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.1, 3.0)),
        ops=st.lists(
            st.tuples(
                st.one_of(                              # time step; 0.0 stalls
                    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]),
                    st.floats(0.0, 2.0),
                ),
                st.one_of(st.none(), st.tuples(         # None: expire
                    st.integers(2, 5),                  # originator
                    st.integers(2, 5),                  # forwarder
                )),
            ),
            max_size=60,
        ),
    )
    def test_matches_full_scan(self, timeout, ops):
        params = RoutingParams(neighbor_timeout=timeout, entry_timeout=2 * timeout)
        bounded = RoutingState(1, params, tau=2.5, r_tx=150.0)
        full = FullScanNeighbors(1, params, tau=2.5, r_tx=150.0)
        now = 0.0
        for seq, (step, chirp) in enumerate(ops, start=1):
            now += step
            for state in (bounded, full):
                if chirp is None:
                    state.expire(now)
                else:
                    origin, forwarder = chirp
                    state.handle_chirp(chirp_from(origin, seq, position=Vec3(40 * forwarder, 0, 0)),
                                       forwarder, now)
            assert list(bounded.neighbors.items()) == list(full.neighbors.items())
            assert table_contents(bounded.table) == table_contents(full.table)


class TestBoundedness:
    @given(st.lists(
        st.tuples(
            st.integers(2, 6),          # originator
            st.integers(0, 3),          # forwarder index
            st.floats(0.0, 1.0),        # reward
            st.floats(0.0, 1.0),        # cohesion
        ),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=100, deadline=None)
    def test_q_stays_within_gamma0(self, events):
        state = make_state(node_id=1, gamma0=0.8)
        seq = {}
        now = 0.0
        for origin, fwd_idx, reward, cohesion in events:
            forwarder = 2 + fwd_idx
            seq[origin] = seq.get(origin, 0) + 1
            chirp = chirp_from(
                origin, seq[origin], reward=reward, cohesion=cohesion,
                position=Vec3(10, 0, 0),
            )
            if origin != 1:
                state.handle_chirp(chirp, forwarder, now)
            now += 0.1
        for dest in state.table.destinations():
            for q in state.table.row(dest).values():
                assert -1e-12 <= q <= 0.8 + 1e-12

    def test_phi_bounds(self):
        state = make_state()
        rng = Random(5)
        for _ in range(500):
            rec = NeighborRecord(
                last_heard=0.0,
                position=Vec3(rng.uniform(-300, 300), rng.uniform(-300, 300), 0),
                predicted_position=Vec3(rng.uniform(-300, 300), rng.uniform(-300, 300), 0),
                cohesion=rng.random(),
            )
            phi = state.phi_let(rec)
            assert 0.0 <= phi <= 1.0
            state.neighbors = {2: rec}
            assert 0.0 <= state.phi_coh() <= 1.0
            state.neighbors[2] = rec
            assert 0.0 <= state.gamma(2) <= state.params.gamma0 + 1e-12


class TestParams:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            RoutingParams(alpha=0.0).validate()
        with pytest.raises(ValueError):
            RoutingParams(alpha=1.5).validate()

    def test_gamma0_allows_one_for_degradation_experiment(self):
        RoutingParams(gamma0=1.0).validate()
        with pytest.raises(ValueError):
            RoutingParams(gamma0=1.0001).validate()

    @pytest.mark.parametrize("field, value", [
        ("chirp_interval", math.nan),
        ("entry_timeout", math.inf),
        ("alpha", math.nan),
        ("cohesion_window", -math.inf),
    ])
    def test_non_finite_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            RoutingParams(**{field: value}).validate()


class TestMethodsARunCalls:
    def test_every_public_method_is_called_or_a_seam(self):
        # The routing share of the one public-surface guard: the methods of
        # `QTable` and `RoutingState`, the routing oracle and the seams.
        assert_called_or_listed("routing.")
