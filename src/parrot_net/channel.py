"""Radio reception models.

Rural reception is the deterministic disk of radius r_TX derived from a
log-distance link budget; urban reception multiplies the mean power by a
Nakagami-m fading gain drawn per frame and receiver.  A unicast retry is the
same frame: it reuses the gain that its frame drew at that receiver, and
every new frame draws afresh.  The same r_TX feeds the link-expiry metric,
keeping the rural channel and the LET model mutually consistent.  `Medium`
is the fast form of `receive` for a run: one verdict per transmission.

A run's gains depend on nothing but its seed and `nakagami_m`, so an urban
`Medium` reads them as one iterator of gains in dB, drawn ahead on another
core: from its first frame until it is closed, one helper process, forked
through `_procs`, runs `nakagami_sampler` over its copy of the run's
generator and writes the gains through a pipe, and each new frame takes the
next n - 1 of them.  They are bit-identical to gains drawn in process,
which is where they are drawn where `os.fork` does not exist.  Where Linux
tells which CPU the run is on, the helper keeps off it if another usable
CPU is left.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from random import Random
from typing import BinaryIO, Callable, Iterator, Sequence

from . import _procs
from .errors import ConfigError, require, require_fields
from .kinematics import MotionTable, distance

_LIGHT_SPEED = 299_792_458.0

RURAL = "rural"
URBAN = "urban"
CHANNEL_MODELS = (RURAL, URBAN)

# Radius of the default budget: 150 m in the 500 m reference scenario.
DEFAULT_R_TX = 150.0


@dataclass(frozen=True, slots=True)
class LinkBudget:
    tx_power_dbm: float
    frequency_hz: float
    path_loss_exponent: float
    d0: float
    sensitivity_dbm: float
    nakagami_m: float = 2.0

    def validate(self) -> None:
        require_fields(self)
        require(self.path_loss_exponent > 0, "path_loss_exponent", self.path_loss_exponent,
                "be > 0")
        require(self.d0 > 0, "d0", self.d0, "be > 0")
        require(self.frequency_hz > 0, "frequency_hz", self.frequency_hz, "be > 0")
        # reference_loss_db takes the log of this ratio.
        ratio = 4.0 * math.pi * self.d0 * self.frequency_hz / _LIGHT_SPEED
        require(0.0 < ratio < math.inf, "frequency_hz", self.frequency_hz,
                f"give a finite loss at d0 {self.d0!r}", "d0")
        require(self.nakagami_m >= 0.5, "nakagami_m", self.nakagami_m, "be >= 0.5")


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
    r_tx: float = DEFAULT_R_TX,
    tx_power_dbm: float = 20.0,
    frequency_hz: float = 2.4e9,
    path_loss_exponent: float = 2.75,
    d0: float = 1.0,
    nakagami_m: float = 2.0,
) -> LinkBudget:
    """Build a budget whose sensitivity yields exactly the requested radius."""
    require(r_tx > d0, "r_tx", r_tx, f"exceed d0 {d0!r}", "d0")
    probe = LinkBudget(tx_power_dbm, frequency_hz, path_loss_exponent, d0, 0.0, nakagami_m)
    probe.validate()
    sensitivity = mean_rx_power(probe, r_tx)
    # A loss that rounds away at d0 leaves compute_r_tx no margin to invert.
    require(-math.inf < sensitivity < mean_rx_power(probe, d0), "r_tx", r_tx,
            f"lose a finite power against d0 under path_loss_exponent "
            f"{path_loss_exponent!r}", "path_loss_exponent")
    return LinkBudget(tx_power_dbm, frequency_hz, path_loss_exponent, d0, sensitivity, nakagami_m)


def default_budget() -> LinkBudget:
    """Default link budget, of radius `DEFAULT_R_TX`."""
    return budget_for_radius()


def nakagami_gain(m: float, rng: Random) -> float:
    """Nakagami-m power gain: Gamma with shape m and mean 1.  An oracle:
    `TestMedium` ties `Medium` to it, and `perfbench/` binds the name."""
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


# Gains per chunk of the stream: 8 KiB, an eighth of a Linux pipe's
# capacity, so the helper runs at most nine chunks ahead of the run.
_CHUNK = 1024


def _gain_chunks(m: float, rng: Random) -> Callable[[], array]:
    """A function that returns the next `_CHUNK` gains of `nakagami_sampler(m,
    rng)` at each call, in dB (`10 log10` of the power gain)."""
    draw, log10 = nakagami_sampler(m, rng), math.log10
    return lambda: array("d", [10.0 * log10(draw()) for _ in range(_CHUNK)])


def _feed(out: BinaryIO, chunk: Callable[[], array]) -> None:
    """The body of a gain helper: keep off its run's CPU, then write chunks
    to `out` until the reader is gone."""
    _procs.leave_cpu_of(os.getppid())
    while True:
        out.write(chunk())
        out.flush()


def _read_chunk(pipe) -> array:
    """The next chunk of a gain helper's stream."""
    chunk = array("d")
    chunk.fromfile(pipe, _CHUNK)
    return chunk


def faded_reception(budget: LinkBudget, distance: float, gain: float) -> bool:
    """Urban verdict for a given fading power gain: the faded power at the
    given distance meets the receiver sensitivity.  An oracle: `TestMedium`
    ties `Medium` to it, and `perfbench/` binds the name."""
    return mean_rx_power(budget, distance) + 10.0 * math.log10(gain) >= budget.sensitivity_dbm


def receive(budget: LinkBudget, model: str, distance: float, rng: Random) -> bool:
    """Frame reception verdict at the given distance.

    Rural is the exact indicator of the r_TX disk and draws nothing from the
    generator.  Urban draws one fading gain per call (block fading at frame
    granularity), so a call stands for a new frame.  A retry of a frame
    already heard once is not a new frame: it reuses that frame's gain at the
    receiver through `faded_reception`, with the mean power taken at the
    current distance.  An oracle: a run asks `Medium` instead, `TestMedium`
    ties `Medium` to this, and `perfbench/` binds the name.
    """
    if model == RURAL:
        return distance <= compute_r_tx(budget)
    if model == URBAN:
        return faded_reception(budget, distance, nakagami_gain(budget.nakagami_m, rng))
    raise ConfigError(f"unknown channel model '{model}'")


class Medium:
    """The channel of one run over the motion `table`, whose node i is
    `stations[i]`; `tick(k)` moves it to tick k.  Urban gains come from
    one iterator over the gains that a helper process draws from `rng`,
    forked at the first new frame and ended by `close()` (or when the
    medium is collected)."""

    def __init__(self, budget: LinkBudget, model: str, rng: Random, table: MotionTable,
                 stations: Sequence) -> None:
        if model not in CHANNEL_MODELS:
            raise ConfigError(f"unknown channel model '{model}'")
        self.urban = model == URBAN
        self.r_tx = compute_r_tx(budget)
        self.sensitivity_dbm = budget.sensitivity_dbm
        self._mean_power = path_loss_law(budget)
        self._nakagami_m, self._rng = budget.nakagami_m, rng
        # The stream of gains in dB, started at the first new frame.
        self._gains: Iterator[float] | None = None
        self._helper: _procs.Child | None = None
        self._table = table
        self._n = len(stations)
        self._others = [[o for o in stations if o is not s] for s in stations]
        self.tick(0)

    def tick(self, k: int) -> None:
        self._base = self._table.base(k)
        self._rows: list[list | None] = [None] * self._n
        self._links: list[list[float] | None] = [None] * self._n

    def row(self, s: int) -> list:
        """Sender s's links at the current tick, built once per tick: rural
        lists the stations within r_TX, urban the mean power in dBm at every
        other station, in node order.  The link values (distances or powers)
        are kept in `_links`; a partner's row built earlier in the tick gives
        its value, since `distance` is symmetric bit for bit."""
        row = self._rows[s]
        if row is None:
            coords, base, links = self._table.coords, self._base, self._links
            urban, mean_power, r_tx = self.urban, self._mean_power, self.r_tx
            j = base + 3 * s
            x, y, z = coords[j], coords[j + 1], coords[j + 2]
            values = []
            for o in chain(range(s), range(s + 1, self._n)):
                partner = links[o]
                if partner is not None:
                    # s sits at index s - 1 of o's others when s > o.
                    values.append(partner[s - (s > o)])
                    continue
                j = base + 3 * o
                d = distance(x, y, z, coords[j], coords[j + 1], coords[j + 2])
                values.append(mean_power(d) if urban else d)
            links[s] = values
            row = values if urban else [o for o, d in zip(self._others[s], values) if d <= r_tx]
            self._rows[s] = row
        return row

    def hears(self, frame) -> list:
        """The stations that hear `frame` (its `sender` and `fading`) now,
        in node order.  Urban: `faded_reception` per station, with the gains
        in dB taken from the stream on the frame's first verdict (the next
        n - 1) and kept on the frame, so a retry reuses them at the mean
        power of the current tick."""
        s = frame.sender
        row = self._rows[s] or self.row(s)
        if not self.urban:
            return row
        fading = frame.fading
        if fading is None:
            gains = self._gains or self._start()
            fading = frame.fading = list(islice(gains, len(row)))
        sensitivity = self.sensitivity_dbm
        return [
            other for other, power, db in zip(self._others[s], row, fading)
            if power + db >= sensitivity
        ]

    def _start(self) -> Iterator[float]:
        """Fork the gain helper and return the stream of gains it writes;
        where `os.fork` does not exist, draw the chunks in process."""
        chunk = _gain_chunks(self._nakagami_m, self._rng)
        if hasattr(os, "fork"):
            self._helper = _procs.Child(partial(_feed, chunk=chunk))
            chunk = partial(_read_chunk, self._helper.reader)
        self._gains = chain.from_iterable(iter(chunk, None))
        return self._gains

    def close(self) -> None:
        """End the gain helper, if one was forked."""
        if self._helper is not None:
            self._helper.end()
