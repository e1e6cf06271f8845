"""Per-node routing brain: Q-table, chirp state machine, and route metrics.

Every node keeps one RoutingState.  Received chirps update a neighbor table
and the Q-value toward the chirp's originator; the learning discount per
neighbor combines a constant base factor with a link-expiry factor and the
neighbor's advertised cohesion.  Forwarding picks the live neighbor with the
highest Q for the destination.

Neighbor records and Q entries are updated in place, so `neighbors[j]` and
a Q entry keep their identity from one chirp to the next and only the
chirp's first contact with a neighbor or destination builds new state.
Timeouts are checked behind a lower bound on the last-heard times of the
records and one on the update times of the Q entries: each scan runs only
when some record or entry can have timed out.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .chirp import _SEQ_HALF, _SEQ_MOD, Chirp
from .errors import require, require_fields
from .kinematics import Vec3, slot_init

# Q values at or below this level are treated as "no route".
Q_FLOOR = 1e-4

DISCARD_STALE = "stale"
DISCARD_SELF = "self-origin"
DISCARD_TTL = "ttl-expired"
DISCARD_MALFORMED = "malformed"


@slot_init
@dataclass(frozen=True, slots=True)
class Discard:
    reason: str


@slot_init
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
        require_fields(self)
        require(0.0 < self.alpha <= 1.0, "alpha", self.alpha, "lie in (0, 1]")
        # gamma0 == 1 is allowed for the loop-freedom degradation experiment.
        require(0.0 < self.gamma0 <= 1.0, "gamma0", self.gamma0, "lie in (0, 1]")
        for name in ("chirp_interval", "neighbor_timeout", "entry_timeout", "cohesion_window"):
            require(getattr(self, name) > 0.0, name, getattr(self, name), "be > 0")
        # The chirp carries the TTL in 16 bits.
        require(1 <= self.initial_ttl < (1 << 16), "initial_ttl", self.initial_ttl,
                "lie in [1, 65535]")


@dataclass(slots=True)
class NeighborRecord:
    """What the last chirp heard directly from a neighbor told us; each
    later chirp from the neighbor overwrites the same record."""

    node: int
    last_heard: float
    position: Vec3
    predicted_position: Vec3
    cohesion: float


@dataclass(slots=True)
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

    def note_fresh_seq(self, dest: int, seq: int) -> bool:
        """Keep `seq` as the freshest SEQ toward `dest` and return True,
        unless it is not newer (`chirp.seq_newer`) than the one kept."""
        stored = self._seq.get(dest)
        if stored is not None and not 0 < (seq - stored) % _SEQ_MOD < _SEQ_HALF:
            return False
        self._seq[dest] = seq
        return True

    def get(self, dest: int, neighbor: int) -> float:
        row = self._rows.get(dest)
        if row is None:
            return 0.0
        entry = row.get(neighbor)
        return entry.q if entry is not None else 0.0

    def update(self, dest: int, neighbor: int, alpha: float, discount: float,
               reward: float, now: float) -> float:
        """One learning step of Q(dest, neighbor), from 0.0 for a new
        entry; an existing entry is updated in place."""
        row = self._rows.get(dest)
        if row is None:
            row = self._rows[dest] = {}
        entry = row.get(neighbor)
        if entry is None:
            q = 0.0 + alpha * (discount * reward - 0.0)
            row[neighbor] = _QEntry(q, now)
        else:
            q = entry.q + alpha * (discount * reward - entry.q)
            entry.q = q
            entry.updated = now
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

    def best_neighbor(self, dest: int, live: dict[int, NeighborRecord] | set[int]) -> int | None:
        """The live neighbor with the largest Q(dest, j) above the no-route
        floor, ties to the lowest id; None when there is none."""
        row = self._rows.get(dest)
        if not row:
            return None
        best = None
        best_q = Q_FLOOR
        for j, entry in row.items():
            q = entry.q
            if (q > best_q or q == best_q and best is not None and j < best) and j in live:
                best, best_q = j, q
        return best

    def evict(self, now: float, timeout: float) -> None:
        """Delete the entries last updated more than `timeout` before `now`,
        and the rows left empty.  The pass that deletes also finds the new
        lower bound of the update times."""
        if now - self._oldest <= timeout:
            return
        oldest = now
        rows = self._rows
        for dest in list(rows):
            row = rows[dest]
            dead = []
            for j, entry in row.items():
                updated = entry.updated
                if now - updated > timeout:
                    dead.append(j)
                elif updated < oldest:
                    oldest = updated
            if len(dead) == len(row):
                del rows[dest]
            else:
                for j in dead:
                    del row[j]
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

    def refresh(self, now: float, current: Iterable[int], window: float) -> None:
        """Take `current` as the new snapshot once `window` has elapsed."""
        if now - self.snapshot_time >= window:
            self.snapshot = frozenset(current)
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
        # A lower bound on the `last_heard` time of every record, so that
        # `expire` scans only when some neighbor can have timed out.
        self._quiet_since = -math.inf
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
        are updated in place (built on first contact), and the chirp is
        rewritten for re-broadcast: own mobility info, own cohesion, best
        local Q as the new reward, TTL down by one.  A TTL that reaches zero
        stops the forwarding but not the local handling.
        """
        if forwarder is None:
            return _MALFORMED
        if chirp.originator == self.node_id:
            return _SELF
        dest = chirp.originator
        if not self.table.note_fresh_seq(dest, chirp.seq):
            return _STALE

        record = self.neighbors.get(forwarder)
        if record is None:
            record = self.neighbors[forwarder] = NeighborRecord(
                forwarder, now, chirp.position, chirp.predicted_position, chirp.cohesion)
        else:
            record.last_heard = now
            record.position = chirp.position
            record.predicted_position = chirp.predicted_position
            record.cohesion = chirp.cohesion
        if now < self._quiet_since:
            self._quiet_since = now
        # gamma(forwarder, now), from the record in hand.
        discount = self.params.gamma0 * self.phi_let(record, now) * record.cohesion
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
        the live set and the last snapshot.  Two empty sets score 1.0.
        Both sizes follow from the size of the intersection."""
        snapshot = self.cohesion.snapshot
        neighbors = self.neighbors
        if not neighbors and not snapshot:
            return 1.0
        common = len(snapshot.intersection(neighbors))
        union = len(neighbors) + len(snapshot) - common
        sym = union - common
        return math.sqrt(1.0 - sym / union)

    # -- forwarding ---------------------------------------------------------

    def select_next_hop(self, dest: int) -> int | None:
        """Live neighbor with maximal Q toward dest; ties go to the lowest
        id; None when nothing is above the no-route floor."""
        return self.table.best_neighbor(dest, self.neighbors)

    # -- housekeeping ---------------------------------------------------------

    def expire(self, now: float) -> None:
        """Evict silent neighbors and stale Q entries, then roll the cohesion
        snapshot forward when its window has elapsed.

        Neighbors are scanned only when the lower bound on their last-heard
        times says one can have timed out, and that scan renews the bound.
        The bound follows the records that `handle_chirp` writes; a record
        put into `neighbors` by hand is seen once a scan runs.
        """
        timeout = self.params.neighbor_timeout
        if now - self._quiet_since > timeout:
            quiet_since = now
            neighbors = self.neighbors
            dead = []
            for j, record in neighbors.items():
                heard = record.last_heard
                if now - heard > timeout:
                    dead.append(j)
                elif heard < quiet_since:
                    quiet_since = heard
            for j in dead:
                del neighbors[j]
            self._quiet_since = quiet_since
        self.table.evict(now, self.params.entry_timeout)
        self.cohesion.refresh(now, self.neighbors, self.params.cohesion_window)
