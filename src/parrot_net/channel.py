"""Radio reception models.

Rural reception is the deterministic disk of radius r_TX derived from a
log-distance link budget; urban reception multiplies the mean power by a
Nakagami-m fading gain drawn per frame and receiver.  A unicast retry is the
same frame: it reuses the gain that its frame drew at that receiver, and
every new frame draws afresh (the simulator keeps the gains on the frame, in
dB, and draws them through `nakagami_sampler`).  The same r_TX feeds the
link-expiry metric, keeping the rural channel and the LET model mutually
consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from random import Random
from typing import Callable

from .errors import ConfigError, require_finite

_LIGHT_SPEED = 299_792_458.0

RURAL = "rural"
URBAN = "urban"
CHANNEL_MODELS = (RURAL, URBAN)


@dataclass(frozen=True, slots=True)
class LinkBudget:
    tx_power_dbm: float
    frequency_hz: float
    path_loss_exponent: float
    d0: float
    sensitivity_dbm: float
    nakagami_m: float = 2.0

    def validate(self) -> None:
        require_finite(self)
        if self.path_loss_exponent <= 0:
            raise ConfigError("path loss exponent must be > 0")
        if self.d0 <= 0:
            raise ConfigError("reference distance d0 must be > 0")
        if self.frequency_hz <= 0:
            raise ConfigError("carrier frequency must be > 0")
        if self.nakagami_m < 0.5:
            raise ConfigError("nakagami_m must be >= 0.5")


@lru_cache(maxsize=64)
def reference_loss_db(budget: LinkBudget) -> float:
    """Free-space loss at the reference distance d0."""
    return 20.0 * math.log10(4.0 * math.pi * budget.d0 * budget.frequency_hz / _LIGHT_SPEED)


def path_loss_law(budget: LinkBudget) -> Callable[[float], float]:
    """Mean received power in dBm as a function of distance under the
    log-distance law of `budget`, with its constants worked out once;
    distances below d0 are clamped to d0."""
    head = budget.tx_power_dbm - reference_loss_db(budget)
    slope = 10.0 * budget.path_loss_exponent
    d0 = budget.d0
    log10 = math.log10

    def mean_power(distance: float) -> float:
        return head - slope * log10((d0 if d0 > distance else distance) / d0)

    return mean_power


def mean_rx_power(budget: LinkBudget, distance: float) -> float:
    """Mean received power in dBm at `distance`; see `path_loss_law`."""
    return path_loss_law(budget)(distance)


@lru_cache(maxsize=64)
def compute_r_tx(budget: LinkBudget) -> float:
    """Deterministic communication radius: where mean power meets the
    receiver sensitivity.  Closed-form inverse of the log-distance law."""
    budget.validate()
    margin = budget.tx_power_dbm - reference_loss_db(budget) - budget.sensitivity_dbm
    if margin <= 0:
        raise ConfigError(
            f"sensitivity {budget.sensitivity_dbm} dBm unreachable at d0 "
            f"(margin {margin:.2f} dB)"
        )
    return budget.d0 * 10.0 ** (margin / (10.0 * budget.path_loss_exponent))


def budget_for_radius(
    r_tx: float,
    tx_power_dbm: float = 20.0,
    frequency_hz: float = 2.4e9,
    path_loss_exponent: float = 2.75,
    d0: float = 1.0,
    nakagami_m: float = 2.0,
) -> LinkBudget:
    """Build a budget whose sensitivity yields exactly the requested radius."""
    if r_tx <= d0:
        raise ConfigError(f"r_tx {r_tx} must exceed d0 {d0}")
    probe = LinkBudget(tx_power_dbm, frequency_hz, path_loss_exponent, d0, 0.0, nakagami_m)
    probe.validate()
    sensitivity = mean_rx_power(probe, r_tx)
    return LinkBudget(tx_power_dbm, frequency_hz, path_loss_exponent, d0, sensitivity, nakagami_m)


def default_budget() -> LinkBudget:
    """Default link budget: 150 m radius in the 500 m reference scenario."""
    return budget_for_radius(150.0)


def nakagami_gain(m: float, rng: Random) -> float:
    """Nakagami-m power gain: Gamma with shape m and mean 1."""
    return rng.gammavariate(m, 1.0 / m)


_LOG4 = math.log(4.0)
_SG_MAGICCONST = 1.0 + math.log(4.5)


def nakagami_sampler(m: float, rng: Random) -> Callable[[], float]:
    """A draw of `nakagami_gain(m, rng)` with the per-call set-up done once.

    For m > 1 this replays `Random.gammavariate`'s rejection loop (Cheng's
    algorithm) with its constants worked out here, so it returns the same
    gains and consumes `rng` exactly as `nakagami_gain` would; for m <= 1
    gammavariate takes other branches, and the draw defers to it.
    """
    beta = 1.0 / m
    if m <= 1.0:
        return partial(rng.gammavariate, m, beta)
    random, log, exp = rng.random, math.log, math.exp
    ainv = math.sqrt(2.0 * m - 1.0)
    bbb = m - _LOG4
    ccc = m + ainv

    def draw() -> float:
        while True:
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = log(u1 / (1.0 - u1)) / ainv
            x = m * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                return x * beta

    return draw


def faded_reception(budget: LinkBudget, distance: float, gain: float) -> bool:
    """Urban verdict for a given fading power gain: the faded power at the
    given distance meets the receiver sensitivity."""
    return mean_rx_power(budget, distance) + 10.0 * math.log10(gain) >= budget.sensitivity_dbm


def receive(budget: LinkBudget, model: str, distance: float, rng: Random) -> bool:
    """Frame reception verdict at the given distance.

    Rural is the exact indicator of the r_TX disk and draws nothing from the
    generator.  Urban draws one fading gain per call (block fading at frame
    granularity), so a call stands for a new frame.  A retry of a frame
    already heard once is not a new frame: it reuses that frame's gain at the
    receiver through `faded_reception`, with the mean power taken at the
    current distance.
    """
    if model == RURAL:
        return distance <= compute_r_tx(budget)
    if model == URBAN:
        return faded_reception(budget, distance, nakagami_gain(budget.nakagami_m, rng))
    raise ConfigError(f"unknown channel model '{model}'")
