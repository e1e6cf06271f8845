"""Per-node routing brain: Q-table, chirp state machine, and route metrics.

Every node keeps one RoutingState.  Received chirps update a neighbor table
and the Q-value toward the chirp's originator; the learning discount per
neighbor combines a constant base factor with a link-expiry factor and the
neighbor's advertised cohesion.  Forwarding picks the live neighbor with the
highest Q for the destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chirp import Chirp, seq_newer
from .errors import ConfigError, require_finite
from .kinematics import Vec3

# Q values at or below this level are treated as "no route".
Q_FLOOR = 1e-4

DISCARD_STALE = "stale"
DISCARD_SELF = "self-origin"
DISCARD_TTL = "ttl-expired"
DISCARD_MALFORMED = "malformed"


@dataclass(frozen=True, slots=True)
class Discard:
    reason: str


@dataclass(frozen=True, slots=True)
class Forward:
    chirp: Chirp


ChirpAction = Discard | Forward

# The verdicts are frozen values, so one instance per reason serves every
# discard.
_MALFORMED = Discard(DISCARD_MALFORMED)
_SELF = Discard(DISCARD_SELF)
_STALE = Discard(DISCARD_STALE)
_TTL = Discard(DISCARD_TTL)


@dataclass
class RoutingParams:
    """Protocol parameters; defaults follow the evaluated configuration."""

    alpha: float = 0.5
    gamma0: float = 0.8
    chirp_interval: float = 0.5
    neighbor_timeout: float = 1.5  # three lost chirps before link death
    entry_timeout: float = 3.0
    cohesion_window: float = 0.5
    initial_ttl: int = 16

    def validate(self) -> None:
        require_finite(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha {self.alpha} outside (0, 1]")
        # gamma0 == 1 is allowed for the loop-freedom degradation experiment.
        if not 0.0 < self.gamma0 <= 1.0:
            raise ConfigError(f"gamma0 {self.gamma0} outside (0, 1]")
        if self.chirp_interval <= 0.0:
            raise ConfigError("chirp_interval must be > 0")
        if self.neighbor_timeout <= 0.0 or self.entry_timeout <= 0.0:
            raise ConfigError("timeouts must be > 0")
        if self.cohesion_window <= 0.0:
            raise ConfigError("cohesion_window must be > 0")
        if not 1 <= self.initial_ttl < (1 << 16):
            raise ConfigError(f"initial_ttl {self.initial_ttl} out of range")


@dataclass
class NeighborRecord:
    """What the last chirp heard directly from a neighbor told us."""

    node: int
    last_heard: float
    position: Vec3
    predicted_position: Vec3
    cohesion: float


@dataclass
class _QEntry:
    q: float
    updated: float


class QTable:
    """Q(d, j) per destination and one-hop neighbor, plus the freshest SEQ
    seen per destination."""

    def __init__(self) -> None:
        self._rows: dict[int, dict[int, _QEntry]] = {}
        self._seq: dict[int, int] = {}
        # A lower bound on the `updated` time of every entry, so that
        # `evict` scans only when some entry can have timed out.
        self._oldest = -math.inf

    def seq_fresh(self, dest: int, seq: int) -> bool:
        stored = self._seq.get(dest)
        return stored is None or seq_newer(seq, stored)

    def note_seq(self, dest: int, seq: int) -> None:
        self._seq[dest] = seq

    def get(self, dest: int, neighbor: int) -> float:
        row = self._rows.get(dest)
        if row is None:
            return 0.0
        entry = row.get(neighbor)
        return entry.q if entry is not None else 0.0

    def update(self, dest: int, neighbor: int, alpha: float, discount: float,
               reward: float, now: float) -> float:
        row = self._rows.setdefault(dest, {})
        entry = row.get(neighbor)
        q = entry.q if entry is not None else 0.0
        q = q + alpha * (discount * reward - q)
        row[neighbor] = _QEntry(q, now)
        if now < self._oldest:
            self._oldest = now
        return q

    def best(self, dest: int, live: dict[int, NeighborRecord] | set[int]) -> float:
        """Largest Q(dest, j) over live neighbors (0.0 when none)."""
        row = self._rows.get(dest)
        if not row:
            return 0.0
        best = 0.0
        for j, entry in row.items():
            if j in live and entry.q > best:
                best = entry.q
        return best

    def evict(self, now: float, timeout: float) -> None:
        """Delete the entries last updated more than `timeout` before `now`,
        and the rows left empty."""
        if now - self._oldest <= timeout:
            return
        oldest = now
        for dest in list(self._rows):
            row = self._rows[dest]
            for j in [j for j, e in row.items() if now - e.updated > timeout]:
                del row[j]
            if row:
                oldest = min(oldest, min(e.updated for e in row.values()))
            else:
                del self._rows[dest]
        self._oldest = oldest

    def destinations(self) -> list[int]:
        return list(self._rows)

    def row(self, dest: int) -> dict[int, float]:
        return {j: e.q for j, e in self._rows.get(dest, {}).items()}


@dataclass
class CohesionHistory:
    """Two neighbor-set snapshots one cohesion window apart."""

    snapshot: frozenset[int] = frozenset()
    snapshot_time: float = 0.0

    def refresh(self, now: float, current: frozenset[int], window: float) -> None:
        if now - self.snapshot_time >= window:
            self.snapshot = current
            self.snapshot_time = now


def compute_let(delta_p: Vec3, delta_v: Vec3, r_tx: float) -> float:
    """Link expiry time: when the relative trajectory |dp + t*dv| crosses r_tx.

    Solving the quadratic gives roots t1 <= t2; the link is live until t2
    when t1 <= 0 < t2, already dead when both roots are non-positive, and
    not yet available when both are positive.  Equal velocities or no real
    roots degenerate to forever-in-range (inf) or forever-out (0).
    """
    return _let(delta_p.x, delta_p.y, delta_p.z, delta_v.x, delta_v.y, delta_v.z, r_tx)


def _let(px: float, py: float, pz: float, vx: float, vy: float, vz: float,
         r_tx: float) -> float:
    """`compute_let` on the components of dp and dv."""
    a = vx * vx + vy * vy + vz * vz
    c = (px * px + py * py + pz * pz) - r_tx * r_tx
    if a == 0.0:
        return math.inf if c <= 0.0 else 0.0
    b = 2.0 * (px * vx + py * vy + pz * vz)
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


class RoutingState:
    """Single-owner routing state of one node.  The link-expiry factor uses
    the prediction horizon `tau` and the radio range `r_tx`."""

    def __init__(self, node_id: int, params: RoutingParams, now: float = 0.0, *,
                 tau: float, r_tx: float):
        params.validate()
        self.node_id = node_id
        self.params = params
        self.tau = tau
        self.r_tx = r_tx
        self.table = QTable()
        self.neighbors: dict[int, NeighborRecord] = {}
        self.cohesion = CohesionHistory(frozenset(), now)
        self.self_position = Vec3()
        self.self_prediction = Vec3()
        self._own_seq = 0

    def update_self(self, position: Vec3, predicted: Vec3) -> None:
        self.self_position = position
        self.self_prediction = predicted

    # -- chirp production ---------------------------------------------------

    def make_chirp(self, now: float) -> Chirp:
        """Originate a chirp: full reward, own mobility info, fresh SEQ."""
        self._own_seq = (self._own_seq + 1) % (1 << 16)
        return Chirp(
            originator=self.node_id,
            position=self.self_position,
            predicted_position=self.self_prediction,
            reward=1.0,
            cohesion=self.phi_coh(now),
            seq=self._own_seq,
            ttl=self.params.initial_ttl,
        )

    # -- chirp consumption --------------------------------------------------

    def handle_chirp(self, chirp: Chirp, forwarder: int | None, now: float) -> ChirpAction:
        """Process a chirp received via `forwarder`.

        Stale and self-originated chirps are discarded outright.  Otherwise
        the forwarder's neighbor record and the Q entry toward the originator
        are updated, and the chirp is rewritten for re-broadcast: own
        mobility info, own cohesion, best local Q as the new reward, TTL
        down by one.  A TTL that reaches zero stops the forwarding but not
        the local handling.
        """
        if forwarder is None:
            return _MALFORMED
        if chirp.originator == self.node_id:
            return _SELF
        dest = chirp.originator
        if not self.table.seq_fresh(dest, chirp.seq):
            return _STALE
        self.table.note_seq(dest, chirp.seq)

        self.neighbors[forwarder] = NeighborRecord(
            node=forwarder,
            last_heard=now,
            position=chirp.position,
            predicted_position=chirp.predicted_position,
            cohesion=chirp.cohesion,
        )
        discount = self.gamma(forwarder, now)
        self.table.update(dest, forwarder, self.params.alpha, discount, chirp.reward, now)

        ttl = chirp.ttl - 1
        if ttl <= 0:
            return _TTL
        return Forward(Chirp(
            originator=dest,
            position=self.self_position,
            predicted_position=self.self_prediction,
            reward=self.table.best(dest, self.neighbors),
            cohesion=self.phi_coh(now),
            seq=chirp.seq,
            ttl=ttl,
        ))

    # -- metrics ------------------------------------------------------------

    def q_update(self, dest: int, neighbor: int, reward: float, discount: float,
                 now: float = 0.0) -> float:
        """One learning step toward `dest` via `neighbor`; returns new Q."""
        return self.table.update(dest, neighbor, self.params.alpha, discount, reward, now)

    def gamma(self, neighbor: int, now: float) -> float:
        """Variable discount factor for a neighbor; KeyError when unknown."""
        record = self.neighbors[neighbor]
        return self.params.gamma0 * self.phi_let(record, now) * record.cohesion

    def phi_let(self, record: NeighborRecord, now: float) -> float:
        """Link-expiry factor in [0, 1].

        Relative velocity comes from the exchanged self-predictions (the
        chirp carries positions only): dv = ((pj~ - pj) - (pi~ - pi)) / tau.
        A zero horizon disables prediction and neutralizes the factor.
        """
        tau = self.tau
        if tau <= 0.0:
            return 1.0
        # The Vec3 arithmetic of dp and dv, one component at a time.
        p, q = record.position, record.predicted_position
        s, t = self.self_position, self.self_prediction
        k = 1.0 / tau
        let = _let(
            p.x - s.x, p.y - s.y, p.z - s.z,
            ((q.x - p.x) - (t.x - s.x)) * k,
            ((q.y - p.y) - (t.y - s.y)) * k,
            ((q.z - p.z) - (t.z - s.z)) * k,
            self.r_tx,
        )
        if let >= tau:
            return 1.0
        return math.sqrt(let / tau)

    def phi_coh(self, now: float) -> float:
        """Neighbor-set stability in [0, 1] from the symmetric difference of
        the live set and the last snapshot.  Two empty sets score 1.0."""
        current = frozenset(self.neighbors)
        snapshot = self.cohesion.snapshot
        if not current and not snapshot:
            return 1.0
        union = len(current | snapshot)
        sym = len(current ^ snapshot)
        return math.sqrt(1.0 - sym / union)

    # -- forwarding ---------------------------------------------------------

    def select_next_hop(self, dest: int) -> int | None:
        """Live neighbor with maximal Q toward dest; ties go to the lowest
        id; None when nothing is above the no-route floor."""
        best = None
        best_q = Q_FLOOR
        for j in sorted(self.neighbors):
            q = self.table.get(dest, j)
            if q > best_q:
                best, best_q = j, q
        return best

    # -- housekeeping ---------------------------------------------------------

    def expire(self, now: float) -> None:
        """Evict silent neighbors and stale Q entries, then roll the cohesion
        snapshot forward when its window has elapsed."""
        timeout = self.params.neighbor_timeout
        for j in [j for j, rec in self.neighbors.items() if now - rec.last_heard > timeout]:
            del self.neighbors[j]
        self.table.evict(now, self.params.entry_timeout)
        self.cohesion.refresh(now, frozenset(self.neighbors), self.params.cohesion_window)
