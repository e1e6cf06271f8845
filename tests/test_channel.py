import gc
import math
import os
import signal
from array import array
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from parrot_net.channel import (
    RURAL,
    URBAN,
    LinkBudget,
    Medium,
    budget_for_radius,
    compute_r_tx,
    default_budget,
    faded_reception,
    mean_rx_power,
    nakagami_gain,
    nakagami_sampler,
    receive,
    reference_loss_db,
)
from parrot_net.errors import ConfigError
from parrot_net.kinematics import MobilityConfig, MotionTable, Vec3, make_random_waypoint_state
from parrot_net.simulator import Frame, Scenario, run

from conftest import no_child_left


class TestMeanRxPower:
    def test_reference_point(self):
        budget = default_budget()
        expected = budget.tx_power_dbm - reference_loss_db(budget)
        assert abs(mean_rx_power(budget, budget.d0) - expected) < 1e-12

    def test_doubling_distance_costs_8_28_db(self):
        budget = default_budget()
        drop = mean_rx_power(budget, 50.0) - mean_rx_power(budget, 100.0)
        assert abs(drop - 10 * 2.75 * math.log10(2)) < 1e-9
        assert abs(drop - 8.278) < 1e-3

    def test_zero_distance_clamped_to_d0(self):
        budget = default_budget()
        assert mean_rx_power(budget, 0.0) == mean_rx_power(budget, budget.d0)

    def test_sensitivity_met_exactly_at_r_tx(self):
        budget = default_budget()
        r = compute_r_tx(budget)
        assert abs(mean_rx_power(budget, r) - budget.sensitivity_dbm) < 1e-9


class TestComputeRtx:
    def test_for_radius_inversion(self):
        budget = budget_for_radius(150.0)
        assert abs(compute_r_tx(budget) - 150.0) < 1e-9

    def test_bisection_oracle(self):
        budget = budget_for_radius(137.5)
        lo, hi = budget.d0, 1e5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mean_rx_power(budget, mid) >= budget.sensitivity_dbm:
                lo = mid
            else:
                hi = mid
        assert abs(compute_r_tx(budget) - lo) < 1e-6

    def test_power_increase_doubles_radius(self):
        budget = budget_for_radius(100.0)
        boosted = LinkBudget(
            tx_power_dbm=budget.tx_power_dbm + 10 * 2.75 * math.log10(2),
            frequency_hz=budget.frequency_hz,
            path_loss_exponent=budget.path_loss_exponent,
            d0=budget.d0,
            sensitivity_dbm=budget.sensitivity_dbm,
        )
        assert abs(compute_r_tx(boosted) - 200.0) < 1e-6

    def test_steeper_exponent_shrinks_radius(self):
        base = budget_for_radius(150.0)
        radii = []
        for eta in (2.0, 2.75, 3.5):
            b = LinkBudget(base.tx_power_dbm, base.frequency_hz, eta, base.d0,
                           base.sensitivity_dbm)
            radii.append(compute_r_tx(b))
        assert radii[0] > radii[1] > radii[2]

    def test_unreachable_sensitivity_rejected(self):
        budget = LinkBudget(
            tx_power_dbm=0.0, frequency_hz=2.4e9, path_loss_exponent=2.75,
            d0=1.0, sensitivity_dbm=10.0,
        )
        with pytest.raises(ConfigError):
            compute_r_tx(budget)


class TestRuralReception:
    def test_inside_disk_always_received(self):
        budget = default_budget()
        rng = Random(0)
        r = compute_r_tx(budget)
        assert all(receive(budget, RURAL, 0.5 * r, rng) for _ in range(100))

    def test_outside_disk_never_received(self):
        budget = default_budget()
        rng = Random(0)
        r = compute_r_tx(budget)
        assert not any(receive(budget, RURAL, 1.01 * r, rng) for _ in range(100))

    def test_draws_nothing_from_generator(self):
        budget = default_budget()
        rng = Random(7)
        before = rng.getstate()
        receive(budget, RURAL, 80.0, rng)
        assert rng.getstate() == before


class TestUrbanReception:
    def test_nakagami_mean_is_one(self):
        rng = Random(42)
        gains = [nakagami_gain(2.0, rng) for _ in range(100_000)]
        assert abs(sum(gains) / len(gains) - 1.0) < 0.01

    def test_reception_rate_at_radius(self):
        # At exactly r_TX the mean power equals the sensitivity, so reception
        # needs fading gain >= 1:  P[g >= 1] for Gamma(shape 2, mean 1).
        budget = default_budget()
        r = compute_r_tx(budget)
        expected = float(stats.gamma.sf(1.0, a=2, scale=0.5))
        assert abs(expected - 3 * math.exp(-2)) < 1e-12  # closed form check
        rng = Random(123)
        n = 100_000
        hits = sum(receive(budget, URBAN, r, rng) for _ in range(n))
        assert abs(hits / n - expected) < 0.01

    def test_monotone_in_distance(self):
        budget = default_budget()
        n = 20_000
        rates = []
        for distance in (50.0, 100.0, 150.0, 200.0, 300.0):
            rng = Random(9)  # fixed seed batch per distance
            rates.append(sum(receive(budget, URBAN, distance, rng) for _ in range(n)) / n)
        for near, far in zip(rates, rates[1:]):
            assert far <= near + 0.01

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            receive(default_budget(), "orbital", 10.0, Random(0))


class TestNakagamiSampler:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replays_nakagami_gain_exactly(self, m, seed):
        # Same gains, bit for bit, and the generator left in the same state,
        # on Cheng's branch (m > 1) and on the fallback (m <= 1).
        expected_rng, rng = Random(seed), Random(seed)
        expected = [nakagami_gain(m, expected_rng) for _ in range(10_000)]
        draw = nakagami_sampler(m, rng)
        assert [draw() for _ in range(10_000)] == expected
        assert rng.getstate() == expected_rng.getstate()


def test_budget_validation():
    with pytest.raises(ConfigError):
        LinkBudget(20.0, 2.4e9, 0.0, 1.0, -80.0).validate()
    with pytest.raises(ConfigError):
        LinkBudget(20.0, 2.4e9, 2.75, 0.0, -80.0).validate()
    with pytest.raises(ConfigError):
        LinkBudget(20.0, 2.4e9, 2.75, 1.0, -80.0, nakagami_m=0.4).validate()
    with pytest.raises(ConfigError):
        budget_for_radius(0.5)


@pytest.mark.parametrize("field, value", [
    ("nakagami_m", math.nan),
    ("sensitivity_dbm", -math.inf),
    ("tx_power_dbm", math.nan),
    ("frequency_hz", math.inf),
])
def test_budget_non_finite_rejected_naming_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        replace(default_budget(), **{field: value}).validate()


def motion(seed: int, n: int, ticks: int) -> MotionTable:
    """The motion of n nodes over ticks 0 to `ticks` in a 300 m cube, so a
    150 m radius splits the links, at 60 m per tick, so they change."""
    cfg = MobilityConfig(dt=1.0, tau=0.0)
    return MotionTable([make_random_waypoint_state(Vec3(300.0, 300.0, 300.0), 60.0, 0.0,
                                                   Random(seed * 100 + i), cfg)
                        for i in range(n)], cfg, ticks)


def link(table: MotionTable, k: int, s: int, o: int) -> float:
    row = table.row(k)
    return row[s].distance_to(row[o])


class TestMedium:
    """`Medium` driven over a motion table alone; station i is the integer i."""

    n = 8
    budget = budget_for_radius(150.0)

    def medium(self, model, table, seed=0):
        rng = Random(seed)
        return Medium(self.budget, model, rng, table, list(range(self.n))), rng

    def expected_row(self, model, table, k, s):
        others = [o for o in range(self.n) if o != s]
        if model == URBAN:
            return [mean_rx_power(self.budget, link(table, k, s, o)) for o in others]
        # Rural draws nothing, so `receive` needs no generator.
        return [o for o in others if receive(self.budget, RURAL, link(table, k, s, o), None)]

    @pytest.mark.parametrize("seed", range(5))
    def test_rural_row_lists_stations_within_r_tx_in_node_order(self, seed):
        table = motion(seed, self.n, 0)
        medium, rng = self.medium(RURAL, table)
        state = rng.getstate()
        heard = 0
        for s in range(self.n):
            expected = self.expected_row(RURAL, table, 0, s)
            assert medium.row(s) == expected
            assert medium.hears(Frame(s, None, "chirp", b"", 68)) == expected
            heard += len(expected)
        assert 0 < heard < self.n * (self.n - 1)
        assert rng.getstate() == state

    @pytest.mark.parametrize("seed", range(5))
    def test_urban_verdicts_are_faded_reception_of_drawn_gains(self, seed):
        table = motion(seed, self.n, 0)
        medium, _ = self.medium(URBAN, table, seed)
        reference = Random(seed)
        heard = 0
        for s in (3, 0, 7, 3, 5, 1, 1, 6):  # each a new frame
            expected = [
                o for o in range(self.n)
                if o != s and faded_reception(self.budget, link(table, 0, s, o),
                                              nakagami_gain(self.budget.nakagami_m, reference))
            ]
            assert medium.hears(Frame(s, None, "data", None, 100)) == expected
            heard += len(expected)
        assert 0 < heard < 8 * (self.n - 1)

    def test_retry_reuses_the_frames_gains_and_draws_nothing(self):
        table = motion(3, self.n, 1)
        medium, rng = self.medium(URBAN, table, 3)
        frame = Frame(2, 5, "data", None, 100)
        first = medium.hears(frame)
        gains, state = list(frame.fading), rng.getstate()
        assert len(gains) == self.n - 1
        assert medium.hears(frame) == first
        # A retry that straddles a tick keeps its gains at the new mean power.
        medium.tick(1)
        others = [o for o in range(self.n) if o != 2]
        expected = [o for o, power, db in zip(others, self.expected_row(URBAN, table, 1, 2),
                                              gains)
                    if power + db >= self.budget.sensitivity_dbm]
        assert medium.hears(frame) == expected
        assert frame.fading == gains and rng.getstate() == state

    @pytest.mark.parametrize("model", [RURAL, URBAN])
    def test_tick_rebuilds_the_rows(self, model):
        table = motion(4, self.n, 2)
        medium, _ = self.medium(model, table)
        rows = {}
        for k in (0, 2, 1, 2):
            medium.tick(k)
            rows[k] = [medium.row(s) for s in range(self.n)]
            assert repr(rows[k]) == repr([self.expected_row(model, table, k, s)
                                          for s in range(self.n)])
        assert rows[0] != rows[1] != rows[2]

    @given(st.sampled_from([RURAL, URBAN]), st.integers(0, 999), st.integers(0, 2),
           st.permutations(range(n)))
    @settings(max_examples=60)
    def test_row_built_after_its_partners_equals_one_built_fresh(self, model, seed, k, order):
        table = motion(seed, self.n, 2)
        medium, _ = self.medium(model, table)
        medium.tick(k)
        for s in order:
            fresh, _ = self.medium(model, table)
            fresh.tick(k)
            assert repr(medium.row(s)) == repr(fresh.row(s))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            Medium(self.budget, "orbital", Random(0), motion(0, 2, 0), [0, 1])


def child_running() -> bool:
    """Whether a child of this process is still running."""
    try:
        return os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        return False


class TestGainHelper:
    """The stream of urban gains that a `Medium` reads from its helper."""

    n = 8  # 7 gains per frame, so chunks of 1024 gains end inside frames
    urban = Scenario(nodes=6, box=Vec3(300, 300, 150), duration=20.0, warmup=5.0,
                     channel=URBAN, seed=4)

    def fadings(self, m, frames):
        """The gains of `frames` new frames, and whether a helper ran."""
        budget = budget_for_radius(150.0, nakagami_m=m)
        medium = Medium(budget, URBAN, Random(11), motion(5, self.n, 0), list(range(self.n)))
        gains = []
        try:
            for k in range(frames):
                frame = Frame(k % self.n, None, "data", None, 100)
                medium.hears(frame)
                gains += frame.fading
            return gains, child_running()
        finally:
            medium.close()

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.7])
    def test_helper_and_in_process_streams_are_bit_identical(self, m, monkeypatch):
        # 500 frames of 7 gains cross three chunk boundaries, each inside a
        # frame; m <= 1 draws through gammavariate, m > 1 through the replay.
        forked, helper_ran = self.fadings(m, 500)
        monkeypatch.delattr(os, "fork")
        in_process, child_ran = self.fadings(m, 500)
        reference = Random(11)
        expected = [10.0 * math.log10(nakagami_gain(m, reference)) for _ in range(7 * 500)]
        assert helper_ran and not child_ran
        assert (array("d", forked).tobytes() == array("d", in_process).tobytes()
                == array("d", expected).tobytes())

    def test_urban_run_is_the_same_without_a_helper(self, forks, monkeypatch):
        # The golden digests cover m = 2 only.
        sc = replace(self.urban, budget=budget_for_radius(nakagami_m=3.7))
        forked = run(sc)
        assert len(forks) == 1 and forked.delivered > 0
        monkeypatch.delattr(os, "fork")
        assert run(sc) == forked

    def test_rural_run_and_drawless_medium_fork_nothing(self, forks):
        run(replace(self.urban, channel=RURAL))
        medium = Medium(default_budget(), URBAN, Random(0), motion(0, self.n, 0),
                        list(range(self.n)))
        medium.row(0)
        medium.close()
        assert forks == []

    @pytest.mark.skipif(not os.path.isdir("/proc") or not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable cores")
    def test_helper_keeps_off_the_cpu_of_its_run(self, forks):
        # With several usable CPUs the helper gives up the one its run is
        # on; with one, it shares it.
        cpus = os.sched_getaffinity(0)
        helper_cpus = []
        for allowed in (cpus, {min(cpus)}):
            os.sched_setaffinity(0, allowed)
            try:
                medium = Medium(default_budget(), URBAN, Random(0), motion(0, self.n, 0),
                                list(range(self.n)))
                medium.hears(Frame(0, None, "data", None, 100))  # waits for a chunk
                helper_cpus.append(os.sched_getaffinity(forks[-1]))
                medium.close()
            finally:
                os.sched_setaffinity(0, cpus)
        spread, pinned = helper_cpus
        assert spread < cpus and len(spread) == len(cpus) - 1
        assert pinned == {min(cpus)}

    def test_a_finished_run_leaves_no_helper(self, forks):
        run(self.urban)
        assert len(forks) == 1
        no_child_left()

    def test_a_failed_run_leaves_no_helper(self, forks, monkeypatch):
        hears = Medium.hears
        frames = []

        def failing(medium, frame):
            frames.append(frame)
            if len(frames) > 50:
                raise RuntimeError("scripted channel failure")
            return hears(medium, frame)

        monkeypatch.setattr(Medium, "hears", failing)
        with pytest.raises(RuntimeError, match="scripted"):
            run(self.urban)
        assert len(forks) == 1
        no_child_left()

    def test_a_dropped_medium_leaves_no_helper(self, forks):
        medium = Medium(default_budget(), URBAN, Random(0), motion(0, self.n, 0),
                        list(range(self.n)))
        medium.hears(Frame(0, None, "data", None, 100))
        assert len(forks) == 1 and child_running()
        del medium
        gc.collect()
        no_child_left()

    def test_a_killed_helper_fails_the_run(self, forks):
        # Killed after the first frame, the helper leaves the whole chunks
        # it wrote; the medium reads them out and then raises, where a frame
        # would otherwise take fewer gains than it has receivers.
        medium = Medium(default_budget(), URBAN, Random(11), motion(5, self.n, 0),
                        list(range(self.n)))
        taken = []
        try:
            with pytest.raises(EOFError):
                for k in range(20 * 1024):  # more gains than a pipe holds
                    frame = Frame(k % self.n, None, "data", None, 100)
                    medium.hears(frame)
                    taken.append(len(frame.fading))
                    if k == 0:
                        os.kill(forks[-1], signal.SIGKILL)
        finally:
            medium.close()
        # The run failed just as the helper's whole chunks of 1024 gains ran
        # out: what was left of them is less than one frame's gains.
        assert len(forks) == 1 and set(taken) == {self.n - 1}
        assert -len(taken) * (self.n - 1) % 1024 < self.n - 1
        no_child_left()
