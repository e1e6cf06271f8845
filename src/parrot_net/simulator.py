"""Deterministic event-driven network simulation.

Binds random waypoint mobility, the reception models, an idealized shared-
medium MAC, CBR traffic, and the routing protocols (predictive Q-routing,
greedy geographic, flooding).  A run is a pure function of its scenario,
seed included: periodic events are pre-scheduled in time order and all
randomness flows through generators derived from the scenario seed with a
stable hash, so re-runs are bit-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable

from . import channel as radio
from .channel import LinkBudget, default_budget
from .chirp import CHIRP_SIZE, Chirp, decode_chirp, encode_chirp
from .errors import ConfigError
from .kinematics import (
    KinematicState,
    MobilityConfig,
    Vec3,
    make_random_waypoint_state,
    predict_position,
    step_random_waypoint,
)
from .routing import Forward, RoutingParams, RoutingState

PROTOCOLS = ("parrot", "greedy", "flood")

DROP_NO_ROUTE = "no-route"
DROP_TTL = "ttl"
DROP_COLLISION = "collision"
DROP_CHANNEL = "channel"
DROP_QUEUE = "queue"
DROP_CAUSES = (DROP_NO_ROUTE, DROP_TTL, DROP_COLLISION, DROP_CHANNEL, DROP_QUEUE)


def stable_seed(*parts) -> int:
    """Derive a reproducible 63-bit seed from arbitrary parts.

    Python's builtin hash() is process-randomized for strings, so seeds are
    derived from a cryptographic digest instead.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass
class Scenario:
    """Everything one simulation run depends on."""

    nodes: int = 10
    box: Vec3 = field(default_factory=lambda: Vec3(500.0, 500.0, 250.0))
    speed: float = 50.0 / 3.6  # m/s
    duration: float = 900.0
    warmup: float = 30.0  # seconds excluded from PDR / latency measurement
    cbr_rate: float = 2e6  # bit/s
    payload: int = 1400  # bytes per application packet
    protocol: str = "parrot"
    channel: str = radio.RURAL
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    routing: RoutingParams = field(default_factory=RoutingParams)
    budget: LinkBudget = field(default_factory=default_budget)
    seed: int = 1
    link_rate: float = 24e6  # bit/s nominal MAC rate
    header_overhead: int = 28  # bytes charged per frame (IP + UDP)
    queue_limit: int = 100
    retry_limit: int = 3
    retry_backoff: float = 1e-3
    hop_budget: int = 32
    forward_jitter: float = 5e-3  # chirp re-broadcast desync, seconds
    trace_path: str | None = None

    def validate(self) -> None:
        if self.nodes < 2:
            raise ConfigError(f"need at least 2 nodes, got {self.nodes}")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if not 0 <= self.warmup < self.duration:
            raise ConfigError("warmup must lie inside the run duration")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol '{self.protocol}'")
        if self.channel not in radio.CHANNEL_MODELS:
            raise ConfigError(f"unknown channel '{self.channel}'")
        if self.cbr_rate <= 0 or self.payload <= 0:
            raise ConfigError("traffic rate and payload must be > 0")
        if self.link_rate <= 0:
            raise ConfigError("link rate must be > 0")
        if self.speed < 0:
            raise ConfigError("speed must be >= 0")
        if self.hop_budget < 1:
            raise ConfigError("hop budget must be >= 1")
        self.routing.validate()
        self.budget.validate()


@dataclass(frozen=True, slots=True)
class DataPacket:
    pid: int
    src: int
    dst: int
    emit_time: float
    hops_left: int
    measured: bool


@dataclass
class Frame:
    """Link-layer frame; link_dest None means broadcast.

    A unicast retry re-sends the same Frame, so `fading` (urban power gain
    per receiver id) carries over from one attempt to the next.
    """

    sender: int
    link_dest: int | None
    kind: str  # "chirp" | "data"
    payload: object  # bytes for chirps, DataPacket for data
    size: int  # bytes incl. header overhead
    attempts: int = 0
    fading: dict[int, float] = field(default_factory=dict)


@dataclass
class _Reception:
    frame: Frame
    node: "_Node"
    corrupted: bool = False


@dataclass
class RunMetrics:
    """Outcome of one seeded run."""

    sent: int
    delivered: int
    pdr: float
    latencies: list[float]
    chirp_frames: int
    chirp_bytes: int
    drops: dict[str, int]
    optimal_bound: float

    @property
    def latency_mean(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else math.nan


class _PacketState:
    __slots__ = ("measured", "delivered", "fail")

    def __init__(self, measured: bool):
        self.measured = measured
        self.delivered = False
        self.fail: str | None = None


class _Node:
    def __init__(self, node_id: int, position: Vec3, routing: RoutingState):
        self.id = node_id
        self.position = position  # at the latest mobility tick
        self.routing = routing
        self.queue: deque[Frame] = deque()
        self.transmitting: Frame | None = None
        self.inflight: list[_Reception] = []
        self.seen_flood: set[int] = set()


def greedy_next_hop(
    neighbor_positions: dict[int, Vec3],
    self_position: Vec3,
    dest_position: Vec3,
) -> int | None:
    """Neighbor strictly closer to the destination than we are, minimal
    distance, lowest id on ties; None at a local minimum."""
    best = None
    best_d = self_position.distance_to(dest_position)
    for j in sorted(neighbor_positions):
        d = neighbor_positions[j].distance_to(dest_position)
        if d < best_d:
            best, best_d = j, d
    return best


def optimal_pdr_bound(
    trace: list[tuple[float, tuple[Vec3, ...]]],
    r_tx: float,
    emission_times: list[float],
    sender: int,
    receiver: int,
) -> float:
    """Topology-only disk reachability of the emitted packets.

    For each emission time, take the latest trace snapshot and test
    sender-receiver reachability in the disk graph of radius r_tx by
    breadth-first search, once per snapshot that some emission falls in.
    Load-related loss is invisible to this figure.
    It is a PDR upper bound under the rural disk channel; under urban
    fading, where a frame can cross more than r_tx, it is a
    disk-connectivity reference and PDR may exceed it.
    """
    if not emission_times:
        return 0.0
    times = [t for t, _ in trace]
    per_snapshot = Counter(max(bisect_right(times, emit) - 1, 0) for emit in emission_times)
    reachable = sum(
        count for idx, count in per_snapshot.items()
        if _reaches(trace[idx][1], r_tx, sender, receiver)
    )
    return reachable / len(emission_times)


def _reaches(positions: tuple[Vec3, ...], r_tx: float, src: int, dst: int) -> bool:
    n = len(positions)
    seen = {src}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        if u == dst:
            return True
        pu = positions[u]
        for v in range(n):
            if v not in seen and pu.distance_to(positions[v]) <= r_tx:
                seen.add(v)
                frontier.append(v)
    return False


class Simulation:
    """One seeded run.  Use run(scenario) unless internals are needed."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

        self.r_tx = radio.compute_r_tx(scenario.budget)

        self.rng_channel = Random(stable_seed(scenario.seed, "channel"))
        self.rng_mac = Random(stable_seed(scenario.seed, "mac"))
        rng_traffic = Random(stable_seed(scenario.seed, "traffic"))

        cfg = scenario.mobility
        self._n_ticks = int(scenario.duration / cfg.dt + 1e-9)
        # Ticks in the self-prediction horizon, as the waypoint predictor
        # counts its virtual steps.
        self._lead = int(cfg.tau / cfg.dt + 1e-9)
        states = [
            make_random_waypoint_state(
                scenario.box, scenario.speed, scenario.duration,
                Random(stable_seed(scenario.seed, "mobility", i)), cfg,
            )
            for i in range(scenario.nodes)
        ]
        self._build_motion(states)
        self._tick_index = 0
        self.nodes: list[_Node] = []
        for i in range(scenario.nodes):
            position = self._position(0, i)
            routing = RoutingState(i, scenario.routing, now=0.0, tau=cfg.tau, r_tx=self.r_tx)
            routing.update_self(position, self._self_prediction(i, 0))
            self.nodes.append(_Node(i, position, routing))
        # Link rows of the current tick, per sender; see _link_row.
        self._rows: list[dict[_Node, float] | None] = [None] * scenario.nodes

        self.sender, self.receiver = rng_traffic.sample(range(scenario.nodes), 2)

        # Metrics and bookkeeping.
        self.emission_times: list[float] = []
        self.packets: dict[int, _PacketState] = {}
        self.latencies: list[float] = []
        self._next_pid = 0
        self.chirp_frames = 0

        self._preschedule()

    # -- motion ---------------------------------------------------------------

    def _build_motion(self, states: list[KinematicState]) -> None:
        """Step every node once per tick up to duration + tau.

        `_motion` holds the coordinates of every node at every tick, read
        through `_position(k, i)`; plain floats take about a fifth of the
        memory of `Vec3`s.  The waypoint predictor replays this very motion
        law, so the self-prediction at tick k is the position at k + `_lead`.
        `_exhausted[i]` is the first tick at which node i has no waypoint
        left (past the table if none), from where prediction falls back to
        the slope of its position history.
        """
        cfg = self.sc.mobility
        n_steps = self._n_ticks + self._lead
        self._motion = array("d")
        self._exhausted = [n_steps + 1] * len(states)
        for k in range(n_steps + 1):
            if k:
                states = [step_random_waypoint(s, cfg) for s in states]
            for i, s in enumerate(states):
                p = s.position
                self._motion.extend((p.x, p.y, p.z))
                if k < self._exhausted[i] and s.remaining_waypoints() == 0:
                    self._exhausted[i] = k

    def _position(self, k: int, i: int) -> Vec3:
        j = 3 * (k * self.sc.nodes + i)
        m = self._motion
        return Vec3(m[j], m[j + 1], m[j + 2])

    def _self_prediction(self, i: int, k: int) -> Vec3:
        if k < self._exhausted[i]:
            return self._position(k + self._lead, i)
        # The state predict_position would see: the history ring of the
        # last h positions and an empty waypoint queue.
        cfg = self.sc.mobility
        history = tuple(self._position(j, i) for j in range(max(0, k - cfg.h + 1), k + 1))
        return predict_position(KinematicState(history[-1], self.sc.speed, history=history), cfg)

    @property
    def trace(self) -> list[tuple[float, tuple[Vec3, ...]]]:
        """(time, positions) of every mobility tick run so far, t = 0 first."""
        dt = self.sc.mobility.dt
        return [
            (k * dt, tuple(self._position(k, i) for i in range(self.sc.nodes)))
            for k in range(self._tick_index + 1)
        ]

    def _write_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for t, positions in self.trace:
                for i, pos in enumerate(positions):
                    out.write(f"{t:.6f},{i},{pos.x:.6f},{pos.y:.6f},{pos.z:.6f}\n")

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def _preschedule(self) -> None:
        sc = self.sc
        # Mobility ticks first: they receive the lowest tiebreakers, so at
        # coinciding timestamps positions update before anything else fires.
        for k in range(1, self._n_ticks + 1):
            self._schedule(k * sc.mobility.dt, self._tick)
        for node in self.nodes:
            offset = self.rng_mac.uniform(0.0, sc.routing.chirp_interval)
            k = 0
            while (t := offset + k * sc.routing.chirp_interval) < sc.duration:
                self._schedule(t, self._make_emit_chirp(node))
                k += 1
        interval = sc.payload * 8 / sc.cbr_rate
        k = 1
        while (t := k * interval) < sc.duration:
            self._schedule(t, self._emit_packet)
            k += 1

    def _make_emit_chirp(self, node: _Node) -> Callable[[], None]:
        return lambda: self._emit_chirp(node)

    # -- event handlers -----------------------------------------------------

    def _tick(self) -> None:
        self._tick_index += 1
        k = self._tick_index
        for node in self.nodes:
            node.position = self._position(k, node.id)
            node.routing.update_self(node.position, self._self_prediction(node.id, k))
            node.routing.expire(self.now)
        self._rows = [None] * len(self.nodes)

    def _emit_chirp(self, node: _Node) -> None:
        chirp = node.routing.make_chirp(self.now)
        self._enqueue(node, Frame(
            sender=node.id,
            link_dest=None,
            kind="chirp",
            payload=encode_chirp(chirp),
            size=CHIRP_SIZE + self.sc.header_overhead,
        ))

    def _emit_packet(self) -> None:
        measured = self.now >= self.sc.warmup
        pkt = DataPacket(
            pid=self._next_pid,
            src=self.sender,
            dst=self.receiver,
            emit_time=self.now,
            hops_left=self.sc.hop_budget,
            measured=measured,
        )
        self._next_pid += 1
        self.packets[pkt.pid] = _PacketState(measured)
        if measured:
            self.emission_times.append(self.now)
        self._forward_data(self.nodes[pkt.src], pkt)

    # -- routing dispatch -----------------------------------------------------

    def _forward_data(self, node: _Node, pkt: DataPacket) -> None:
        if pkt.hops_left <= 0:
            self._note_fail(pkt, DROP_TTL)
            return
        proto = self.sc.protocol
        if proto == "flood":
            if pkt.pid in node.seen_flood:
                return
            node.seen_flood.add(pkt.pid)
            self._enqueue_data(node, None, pkt)
        elif proto == "greedy":
            positions = {j: rec.position for j, rec in node.routing.neighbors.items()}
            # Destination position is an oracle lookup from the live state.
            dest_pos = self.nodes[pkt.dst].position
            hop = greedy_next_hop(positions, node.position, dest_pos)
            if hop is None:
                self._note_fail(pkt, DROP_NO_ROUTE)
            else:
                self._enqueue_data(node, hop, pkt)
        else:
            hop = node.routing.select_next_hop(pkt.dst)
            if hop is None:
                self._note_fail(pkt, DROP_NO_ROUTE)
            else:
                self._enqueue_data(node, hop, pkt)

    def _enqueue_data(self, node: _Node, link_dest: int | None, pkt: DataPacket) -> None:
        self._enqueue(node, Frame(
            sender=node.id,
            link_dest=link_dest,
            kind="data",
            payload=replace(pkt, hops_left=pkt.hops_left - 1),
            size=self.sc.payload + self.sc.header_overhead,
        ))

    # -- MAC ------------------------------------------------------------------

    def _enqueue(self, node: _Node, frame: Frame) -> None:
        if len(node.queue) >= self.sc.queue_limit:
            if frame.kind == "data":
                self._note_fail(frame.payload, DROP_QUEUE)
            return
        node.queue.append(frame)
        self._kick(node)

    def _requeue_front(self, node: _Node, frame: Frame) -> None:
        if len(node.queue) >= self.sc.queue_limit:
            self._note_fail(frame.payload, DROP_QUEUE)
            return
        node.queue.appendleft(frame)
        self._kick(node)

    def _kick(self, node: _Node) -> None:
        if node.transmitting is not None or not node.queue:
            return
        frame = node.queue.popleft()
        node.transmitting = frame
        if frame.kind == "chirp":
            self.chirp_frames += 1
        # Half duplex: starting to talk corrupts anything being received here.
        for rec in node.inflight:
            rec.corrupted = True
        receptions: list[_Reception] = []
        for other in self._link_row(node):
            if not self.hears(frame, other):
                continue
            rec = _Reception(frame, other)
            if other.transmitting is not None or other.inflight:
                for ongoing in other.inflight:
                    ongoing.corrupted = True
                rec.corrupted = True
            other.inflight.append(rec)
            receptions.append(rec)
        airtime = frame.size * 8 / self.sc.link_rate
        self._schedule(self.now + airtime, lambda: self._tx_end(node, frame, receptions))

    def _link_row(self, sender: _Node) -> dict[_Node, float]:
        """The links of `sender` at the current tick, built on its first
        frame after the tick, in node order: rural maps each receiver
        within r_TX to its distance, urban maps every other node to its
        mean received power in dBm."""
        row = self._rows[sender.id]
        if row is None:
            row = self._rows[sender.id] = {}
            urban = self.sc.channel == radio.URBAN
            for other in self.nodes:
                if other is sender:
                    continue
                distance = sender.position.distance_to(other.position)
                if urban:
                    row[other] = radio.mean_rx_power(self.sc.budget, distance)
                elif distance <= self.r_tx:
                    row[other] = distance
        return row

    def hears(self, frame: Frame, receiver: _Node) -> bool:
        """Channel verdict for `frame` at `receiver` at the current tick.

        The MAC asks it for each receiver in the sender's link row; it is
        the seam through which a test scripts the channel.  Rural: the
        receiver lies within r_TX.  Urban: block fading per (frame,
        receiver), so a unicast retry reuses the gain its frame drew at
        this receiver and every new frame draws afresh; the mean power is
        that of the current tick, since a retry can straddle a tick.
        """
        link = self._link_row(self.nodes[frame.sender]).get(receiver)
        if link is None:
            return False
        if self.sc.channel != radio.URBAN:
            return True
        fading = frame.fading
        gain = fading.get(receiver.id)
        if gain is None:
            gain = fading[receiver.id] = radio.nakagami_gain(
                self.sc.budget.nakagami_m, self.rng_channel
            )
        # radio.faded_reception, with the mean power taken from the row.
        return link + 10.0 * math.log10(gain) >= self.sc.budget.sensitivity_dbm

    def _tx_end(self, node: _Node, frame: Frame, receptions: list[_Reception]) -> None:
        node.transmitting = None
        # Finalize the whole transmission before dispatching deliveries: a
        # delivery may start a new transmission at this same instant, which
        # must not retroactively corrupt receptions that already ended.
        target_rec = None
        any_clean = False
        any_corrupt = False
        for rec in receptions:
            rec.node.inflight.remove(rec)
            if frame.link_dest is not None and rec.node.id == frame.link_dest:
                target_rec = rec
            if rec.corrupted:
                any_corrupt = True
            else:
                any_clean = True
        clean = [
            rec.node for rec in receptions
            if not rec.corrupted and (frame.link_dest is None or rec.node.id == frame.link_dest)
        ]
        if frame.kind == "chirp":
            if clean:
                chirp = decode_chirp(frame.payload)
                for receiver in clean:
                    self._deliver_chirp(receiver, frame.sender, chirp)
        else:
            pkt: DataPacket = frame.payload
            for receiver in clean:
                self._deliver_data(receiver, pkt)
            if frame.link_dest is not None:
                if target_rec is None or target_rec.corrupted:
                    self._retry_or_drop(node, frame, target_rec)
            elif not any_clean:
                # A flood branch that nobody heard cleanly dies here.
                self._note_fail(pkt, DROP_COLLISION if any_corrupt else DROP_CHANNEL)
        self._kick(node)

    def _retry_or_drop(self, node: _Node, frame: Frame, target_rec: _Reception | None) -> None:
        frame.attempts += 1
        if frame.attempts <= self.sc.retry_limit:
            self._schedule(
                self.now + self.sc.retry_backoff,
                lambda: self._requeue_front(node, frame),
            )
            return
        cause = DROP_COLLISION if target_rec is not None else DROP_CHANNEL
        self._note_fail(frame.payload, cause)

    # -- reception --------------------------------------------------------------

    def _deliver_data(self, receiver: _Node, pkt: DataPacket) -> None:
        if receiver.id == pkt.dst:
            state = self.packets[pkt.pid]
            if not state.delivered:
                state.delivered = True
                if state.measured:
                    self.latencies.append(self.now - pkt.emit_time)
            return
        self._forward_data(receiver, pkt)

    def _deliver_chirp(self, receiver: _Node, forwarder: int, chirp: Chirp) -> None:
        action = receiver.routing.handle_chirp(chirp, forwarder, self.now)
        if isinstance(action, Forward):
            out = Frame(
                sender=receiver.id,
                link_dest=None,
                kind="chirp",
                payload=encode_chirp(action.chirp),
                size=CHIRP_SIZE + self.sc.header_overhead,
            )
            delay = self.rng_mac.uniform(0.0, self.sc.forward_jitter)
            self._schedule(self.now + delay, lambda: self._enqueue(receiver, out))

    # -- accounting ---------------------------------------------------------------

    def _note_fail(self, pkt: DataPacket, cause: str) -> None:
        # Last recorded failure wins; a packet that was delivered anywhere
        # (flooding duplicates) stops collecting failure causes.
        state = self.packets[pkt.pid]
        if not state.delivered:
            state.fail = cause

    # -- run ------------------------------------------------------------------------

    def run(self) -> RunMetrics:
        sc = self.sc
        while self._heap:
            time, _, fn = heapq.heappop(self._heap)
            if time > sc.duration:
                break
            self.now = time
            fn()
        if sc.trace_path is not None:
            self._write_trace(sc.trace_path)
        return self.collect_metrics()

    def collect_metrics(self) -> RunMetrics:
        sent = 0
        delivered = 0
        drops = dict.fromkeys(DROP_CAUSES, 0)
        for state in self.packets.values():
            if not state.measured:
                continue
            sent += 1
            if state.delivered:
                delivered += 1
            else:
                # Packets still in flight at the end of the run carry no
                # recorded failure and are charged as unreachable.
                drops[state.fail or DROP_NO_ROUTE] += 1
        chirp_bytes = self.chirp_frames * (CHIRP_SIZE + self.sc.header_overhead)
        bound = optimal_pdr_bound(
            self.trace, self.r_tx, self.emission_times, self.sender, self.receiver
        )
        pdr = delivered / sent if sent > 0 else math.nan
        return RunMetrics(
            sent=sent,
            delivered=delivered,
            pdr=pdr,
            latencies=sorted(self.latencies),
            chirp_frames=self.chirp_frames,
            chirp_bytes=chirp_bytes,
            drops=drops,
            optimal_bound=bound,
        )


def run(scenario: Scenario) -> RunMetrics:
    """Execute one deterministic run and collect its metrics."""
    return Simulation(scenario).run()
