import math
from dataclasses import replace
from random import Random

import pytest
from scipy import stats

from parrot_net.channel import (
    RURAL,
    URBAN,
    LinkBudget,
    budget_for_radius,
    compute_r_tx,
    default_budget,
    mean_rx_power,
    nakagami_gain,
    nakagami_sampler,
    receive,
    reference_loss_db,
)
from parrot_net.errors import ConfigError


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
