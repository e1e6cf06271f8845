"""Deterministic event-driven network simulation.

Holds the events, an idealized shared-medium MAC, CBR traffic, the routing
dispatch (predictive Q-routing, greedy geographic, flooding) and the
accounting.  The motion of a run is a `kinematics.MotionTable`, its channel
a `channel.Medium` over that table (`Simulation.medium`, the seam through
which a test scripts the channel), and the disk bound a search of one of
the table's ticks (`MotionTable.joined`).  A run is a pure
function of its scenario, seed included: events fire in time order with a
fixed tiebreak, and all randomness flows through generators derived from
the scenario seed with a stable hash, so re-runs are bit-identical.

An event is a heap entry (time, rank, fn, a, b) that fires as fn(a, b):
it carries its arguments, so scheduling one builds no closure.  Each
periodic source (the mobility ticks, each node's chirps, the CBR stream)
keeps one pending event, whose handler takes its index k and first pushes
event k + 1 of its source, and a packet lives only until its last copy
dies, so the event queue and the set of live packets do not grow with the
length of the run.
A packet is one object, shared by all of its copies; each data frame
carries it with the hop budget left to that copy.
Events at one timestamp fire by rank: the tick (rank 0) first, so that
positions update before anything else, then node i's chirp (rank 1 + i),
then the CBR emission (rank n + 1), then every other event in the order
it was scheduled (ranks from n + 2 on).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import channel as radio
from .channel import LinkBudget, default_budget
from .chirp import CHIRP_SIZE, Chirp, decode_chirp, encode_chirp
from .errors import require, require_fields, within
from .kinematics import (
    MobilityConfig,
    MotionTable,
    Vec3,
    disk_joined,
    make_random_waypoint_state,
)
# Bound for perfbench/tracer.py, which hooks the names here; the motion
# table steps through `kinematics.motion_step`.
from .kinematics import predict_position, step_random_waypoint  # noqa: F401
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
        require_fields(self)
        require_fields(self.box, "box.")
        require(self.nodes >= 2, "nodes", self.nodes, "be >= 2")
        for name in ("x", "y", "z"):
            require(getattr(self.box, name) > 0, f"box.{name}", getattr(self.box, name), "be > 0")
        r_w = self.mobility.r_w
        require(self.box.norm() > 2 * r_w, "box", self.box,
                f"have a diagonal above twice mobility.r_w {r_w!r}: every point of a "
                "narrower box lies within r_w of its centre, where a node would draw "
                "waypoints forever", "mobility.r_w")
        require(self.duration > 0, "duration", self.duration, "be > 0")
        require(0 <= self.warmup < self.duration, "warmup", self.warmup,
                f"lie in [0, duration {self.duration!r})", "duration")
        require(self.protocol in PROTOCOLS, "protocol", self.protocol, f"be one of {PROTOCOLS}")
        require(self.channel in radio.CHANNEL_MODELS, "channel", self.channel,
                f"be one of {radio.CHANNEL_MODELS}")
        for name in ("cbr_rate", "payload", "link_rate"):
            require(getattr(self, name) > 0, name, getattr(self, name), "be > 0")
        for name in ("hop_budget", "queue_limit"):
            require(getattr(self, name) >= 1, name, getattr(self, name), "be >= 1")
        # Each of the last three delays an event; a negative one would fire
        # it before the event that scheduled it.
        for name in ("speed", "retry_limit", "header_overhead", "retry_backoff",
                     "forward_jitter"):
            require(getattr(self, name) >= 0, name, getattr(self, name), "be >= 0")
        with within("routing."):
            self.routing.validate()
        with within("budget."):
            self.budget.validate()
        # A source with 2**53 events or more could never finish, and its
        # times would stop telling neighbouring indices apart.
        interval = self.routing.chirp_interval
        require(self.duration / interval < 2.0**53, "routing.chirp_interval", interval,
                f"leave fewer than 2**53 chirps in duration {self.duration!r}", "duration")
        require(self.duration * self.cbr_rate / (8 * self.payload) < 2.0**53, "cbr_rate",
                self.cbr_rate, f"send fewer than 2**53 packets in duration {self.duration!r}",
                "payload", "duration")


@dataclass(slots=True)
class Frame:
    """Link-layer frame; link_dest None means broadcast.

    `fading` is None until the frame's first urban verdict, which fills it
    with the fading gain in dB (`10 log10` of the power gain) at every
    other node, in node order.  A unicast retry re-sends the same Frame,
    so the gains carry over from one attempt to the next.
    """

    sender: int
    link_dest: int | None
    kind: str  # "chirp" | "data"
    payload: object  # bytes for chirps, the _Packet for data
    size: int  # bytes incl. header overhead
    attempts: int = 0
    fading: list[float] | None = None
    hops: int = 0  # the hop budget left to a data frame's copy


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


class _Packet:
    """One emitted data packet, shared by every copy of it."""

    __slots__ = ("emit_time", "measured", "delivered", "fail", "copies", "flooded")

    def __init__(self, emit_time: float, measured: bool):
        self.emit_time = emit_time
        self.measured = measured
        self.delivered = False
        self.fail: str | None = None
        self.copies = 1  # live copies: queued, on the air or awaiting a retry
        self.flooded: set[int] = set()  # the nodes that have flooded it on

    def outcome(self) -> str:
        """The packet's fate: delivered, else its last recorded failure;
        one that met none is charged as unreachable."""
        return "delivered" if self.delivered else self.fail or DROP_NO_ROUTE


class _Node:
    __slots__ = ("id", "routing", "queue", "transmitting", "busy", "clean")

    def __init__(self, node_id: int):
        self.id = node_id
        # Set by Simulation, once its channel gives r_TX; its `self_position`
        # is the node's position at the latest mobility tick.
        self.routing: RoutingState
        self.queue: deque[Frame] = deque()
        self.transmitting: Frame | None = None
        # Receptions on the air here, and the one frame among them still
        # heard cleanly, if any: two overlapping receptions corrupt each
        # other, and so does sending while receiving.
        self.busy = 0
        self.clean: Frame | None = None


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
    A run counts the same figure online, one search per tick at its
    measured emissions (`RunMetrics.optimal_bound`); this function is the
    post-hoc reference over a trace.
    It is a PDR upper bound under the rural disk channel; under urban
    fading, where a frame can cross more than r_tx, it is a
    disk-connectivity reference and PDR may exceed it.
    """
    if not emission_times:
        return 0.0
    times = [t for t, _ in trace]
    per_snapshot = Counter(max(bisect_right(times, emit) - 1, 0) for emit in emission_times)
    reachable = 0
    for idx, count in per_snapshot.items():
        positions = trace[idx][1]
        coords = [c for p in positions for c in (p.x, p.y, p.z)]
        if disk_joined(coords, 0, len(positions), r_tx, sender, receiver):
            reachable += count
    return reachable / len(emission_times)


class Simulation:
    """One seeded run.  Use run(scenario) unless internals are needed."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], object, object]] = []
        # The ranks of dynamic events, in the order they are scheduled; see
        # _start_streams.
        self._ranks = itertools.count(scenario.nodes + 2)

        self.rng_channel = Random(stable_seed(scenario.seed, "channel"))
        self.rng_mac = Random(stable_seed(scenario.seed, "mac"))
        rng_traffic = Random(stable_seed(scenario.seed, "traffic"))

        cfg = scenario.mobility
        self._n_ticks = cfg.ticks(scenario.duration)
        # Ticks in the self-prediction horizon, as the waypoint predictor
        # counts its virtual steps.
        self._lead = cfg.ticks(cfg.tau)
        # Up to duration + tau: the waypoint self-prediction at tick k
        # replays the same motion law, so it is the position at k + `_lead`.
        self.motion = MotionTable(
            [make_random_waypoint_state(scenario.box, scenario.speed, scenario.duration,
                                        Random(stable_seed(scenario.seed, "mobility", i)), cfg)
             for i in range(scenario.nodes)],
            cfg, self._n_ticks + self._lead)
        self._tick_index = 0
        self.nodes = [_Node(i) for i in range(scenario.nodes)]
        self.medium = radio.Medium(scenario.budget, scenario.channel, self.rng_channel,
                                   self.motion, self.nodes)
        # The channel's r_TX is also the link-expiry radius and the bound's.
        for node in self.nodes:
            node.routing = RoutingState(node.id, scenario.routing, now=0.0, tau=cfg.tau,
                                        r_tx=self.medium.r_tx)
        # The positions of the ticks from the current one to `_lead` ahead;
        # see _place.
        self._ahead = deque(self.motion.row(k) for k in range(self._lead + 1))
        self._place()

        self.sender, self.receiver = rng_traffic.sample(range(scenario.nodes), 2)
        self._data_size = scenario.payload + scenario.header_overhead
        self._chirp_size = CHIRP_SIZE + scenario.header_overhead

        # Metrics and bookkeeping.  `packets` holds the packets that still
        # have a live copy; `_outcomes` counts the measured ones that died,
        # by "delivered" or drop cause.
        self.packets: set[_Packet] = set()
        self._outcomes: Counter[str] = Counter()
        self.latencies: list[float] = []
        self._sent = 0
        self.chirp_frames = 0
        # The disk bound, counted at measured emissions: how many found the
        # sender joined to the receiver, and the current tick's verdict
        # once searched.
        self._reachable = 0
        self._reach: bool | None = None

        self._start_streams()

    # -- motion ---------------------------------------------------------------

    def _place(self) -> None:
        """Set every node's position and self-prediction to those of the
        current tick k.

        `_ahead` holds the position rows of ticks k to k + `_lead`, each
        built once, when its tick comes within the horizon: the row that
        gives the self-predictions at tick k gives the positions at
        k + `_lead`.
        """
        for node, position, predicted in zip(self.nodes, self._ahead[0], self._ahead[-1]):
            node.routing.update_self(position, predicted)

    @property
    def trace(self) -> list[tuple[float, tuple[Vec3, ...]]]:
        """(time, positions) of every mobility tick run so far, t = 0 first."""
        return self.motion.trace(self._tick_index)

    # -- scheduling ---------------------------------------------------------

    def _start_streams(self) -> None:
        """Schedule the first event of each periodic source.

        Event k of a source fires at offset + k * interval, where the
        offset is 0.0 for the ticks and the emissions.  A source has
        one pending event at a time, so a fixed rank per source breaks
        ties: the tick ranks 0, node i's chirp 1 + i and the CBR emission
        n + 1, so at a shared timestamp positions update first, then the
        chirps fire in node order, then the emission.  Dynamic events rank
        from n + 2 on, in the order they are scheduled.  Ticks stop at the
        motion table's last; chirps and emissions stop before `duration`.
        Each handler pushes its source's next event when it fires.
        """
        sc, heap = self.sc, self._heap
        self._chirp_interval = interval = sc.routing.chirp_interval
        self._chirp_offsets = [self.rng_mac.uniform(0.0, interval) for _ in self.nodes]
        self._cbr_interval = sc.payload * 8 / sc.cbr_rate
        # The first events: tick 1, chirp 0 and emission 1, whose times
        # offset + k * interval reduce to these bit for bit.
        if 1 <= self._n_ticks:
            heap.append((sc.mobility.dt, 0, self._tick, 1, None))
        for node, offset in zip(self.nodes, self._chirp_offsets):
            if offset < sc.duration:
                heap.append((offset, 1 + node.id, self._emit_chirp, node, 0))
        if self._cbr_interval < sc.duration:
            heap.append((self._cbr_interval, len(self.nodes) + 1, self._emit_packet, 1, None))
        heapq.heapify(heap)

    # -- event handlers -----------------------------------------------------

    def _tick(self, k: int, _: None) -> None:
        if k + 1 <= self._n_ticks:
            time = (k + 1) * self.sc.mobility.dt
            heapq.heappush(self._heap, (time, 0, self._tick, k + 1, None))
        self._tick_index = k
        ahead = self._ahead
        ahead.popleft()
        ahead.append(self.motion.row(k + self._lead))
        self._place()
        for node in self.nodes:
            node.routing.expire(self.now)
        self.medium.tick(k)
        self._reach = None

    def _emit_chirp(self, node: _Node, k: int) -> None:
        time = self._chirp_offsets[node.id] + (k + 1) * self._chirp_interval
        if time < self.sc.duration:
            heapq.heappush(self._heap, (time, 1 + node.id, self._emit_chirp, node, k + 1))
        chirp = node.routing.make_chirp(self.now)
        self.enqueue(node, Frame(node.id, None, "chirp", encode_chirp(chirp), self._chirp_size))

    def _emit_packet(self, k: int, _: None) -> None:
        time = (k + 1) * self._cbr_interval
        if time < self.sc.duration:
            heapq.heappush(self._heap, (time, len(self.nodes) + 1, self._emit_packet, k + 1, None))
        pkt = _Packet(self.now, self.now >= self.sc.warmup)
        self.packets.add(pkt)
        if pkt.measured:
            self._sent += 1
            # Ticks fire before emissions at equal timestamps, so the
            # current tick is the latest trace snapshot at this emission.
            if self._reach is None:
                self._reach = self.motion.joined(self._tick_index, self.medium.r_tx,
                                                 self.sender, self.receiver)
            self._reachable += self._reach
        self._forward_data(self.nodes[self.sender], pkt, self.sc.hop_budget)

    # -- routing dispatch -----------------------------------------------------

    def _forward_data(self, node: _Node, pkt: _Packet, hops: int) -> None:
        """Send a copy of `pkt` on from `node`, which holds it with `hops`
        hops of budget left."""
        if hops <= 0:
            self._note_fail(pkt, DROP_TTL)
            return
        proto = self.sc.protocol
        if proto == "flood":
            if node.id in pkt.flooded:
                self._drop_copy(pkt)
                return
            pkt.flooded.add(node.id)
            hop = None
        else:
            if proto == "greedy":
                positions = {j: rec.position for j, rec in node.routing.neighbors.items()}
                # Destination position is an oracle lookup from the live state.
                hop = greedy_next_hop(positions, node.routing.self_position,
                                      self.nodes[self.receiver].routing.self_position)
            else:
                hop = node.routing.select_next_hop(self.receiver)
            if hop is None:
                self._note_fail(pkt, DROP_NO_ROUTE)
                return
        self.enqueue(node, Frame(node.id, hop, "data", pkt, self._data_size, 0, None, hops - 1))

    # -- MAC ------------------------------------------------------------------

    def enqueue(self, node: _Node, frame: Frame) -> None:
        """The MAC entry point: queue `frame` at `node` and start sending
        it if the node is idle.  A full queue refuses the frame, and a
        refused data frame fails its packet."""
        if len(node.queue) >= self.sc.queue_limit:
            if frame.kind == "data":
                self._note_fail(frame.payload, DROP_QUEUE)
            return
        node.queue.append(frame)
        if node.transmitting is None:
            self._kick(node)

    def _requeue_front(self, node: _Node, frame: Frame) -> None:
        if len(node.queue) >= self.sc.queue_limit:
            self._note_fail(frame.payload, DROP_QUEUE)
            return
        node.queue.appendleft(frame)
        if node.transmitting is None:
            self._kick(node)

    def _kick(self, node: _Node) -> None:
        """Start sending the head of the idle `node`'s non-empty queue."""
        frame = node.queue.popleft()
        node.transmitting = frame
        if frame.kind == "chirp":
            self.chirp_frames += 1
        # Half duplex: starting to talk corrupts anything being received here.
        node.clean = None
        receivers = self.medium.hears(frame)
        for other in receivers:
            other.clean = None if other.transmitting is not None or other.busy else frame
            other.busy += 1
        airtime = frame.size * 8 / self.sc.link_rate
        heapq.heappush(self._heap, (self.now + airtime, next(self._ranks), self._tx_end, node,
                                    receivers))

    def _tx_end(self, node: _Node, receivers: list[_Node]) -> None:
        frame = node.transmitting
        node.transmitting = None
        # Finalize the whole transmission before dispatching deliveries: a
        # delivery may start a new transmission at this same instant, which
        # must not retroactively corrupt receptions that already ended.  A
        # frame is never on the air twice at once (a retry is queued after
        # this), so `clean is frame` identifies this reception.
        dest = frame.link_dest
        if dest is None:
            clean = []
            for other in receivers:
                other.busy -= 1
                if other.clean is frame:
                    other.clean = None
                    clean.append(other)
            if frame.kind == "chirp":
                if clean:
                    chirp = decode_chirp(frame.payload)
                    for receiver in clean:
                        action = receiver.routing.handle_chirp(chirp, frame.sender, self.now)
                        if isinstance(action, Forward):
                            self._forward_chirp(receiver, action.chirp)
            elif clean:
                # A broadcast heard cleanly by several nodes forks its copy,
                # and each fork keeps the frame's budget.
                pkt: _Packet = frame.payload
                pkt.copies += len(clean) - 1
                for receiver in clean:
                    self._deliver_data(receiver, pkt, frame.hops)
            else:
                # A flood branch that nobody heard cleanly dies here.
                self._note_fail(frame.payload, DROP_COLLISION if receivers else DROP_CHANNEL)
        else:
            # The target heard the frame cleanly, corrupted (a collision),
            # or not at all (the channel).
            target = None
            cause = DROP_CHANNEL
            for other in receivers:
                other.busy -= 1
                if other.clean is frame:
                    other.clean = None
                    if other.id == dest:
                        target = other
                elif other.id == dest:
                    cause = DROP_COLLISION
            if target is not None:
                self._deliver_data(target, frame.payload, frame.hops)
            else:
                self._retry_or_drop(node, frame, cause)
        if node.queue:
            self._kick(node)

    def _retry_or_drop(self, node: _Node, frame: Frame, cause: str) -> None:
        frame.attempts += 1
        if frame.attempts <= self.sc.retry_limit:
            heapq.heappush(self._heap, (self.now + self.sc.retry_backoff, next(self._ranks),
                                        self._requeue_front, node, frame))
            return
        self._note_fail(frame.payload, cause)

    # -- reception --------------------------------------------------------------

    def _deliver_data(self, receiver: _Node, pkt: _Packet, hops: int) -> None:
        if receiver.id == self.receiver:
            if not pkt.delivered:
                pkt.delivered = True
                if pkt.measured:
                    self.latencies.append(self.now - pkt.emit_time)
            self._drop_copy(pkt)
            return
        self._forward_data(receiver, pkt, hops)

    def _forward_chirp(self, node: _Node, chirp: Chirp) -> None:
        """Re-broadcast `chirp` from `node` after a random jitter."""
        out = Frame(node.id, None, "chirp", encode_chirp(chirp), self._chirp_size)
        delay = self.rng_mac.uniform(0.0, self.sc.forward_jitter)
        heapq.heappush(self._heap, (self.now + delay, next(self._ranks), self.enqueue, node, out))

    # -- accounting ---------------------------------------------------------------

    def _note_fail(self, pkt: _Packet, cause: str) -> None:
        # Last recorded failure wins; a packet that was delivered anywhere
        # (flooding duplicates) stops collecting failure causes.
        if not pkt.delivered:
            pkt.fail = cause
        self._drop_copy(pkt)

    def _drop_copy(self, pkt: _Packet) -> None:
        """A copy of `pkt` is gone; with its last, fold the packet into the
        outcome counts and forget it."""
        pkt.copies -= 1
        if pkt.copies:
            return
        self.packets.remove(pkt)
        if pkt.measured:
            self._outcomes[pkt.outcome()] += 1

    # -- run ------------------------------------------------------------------------

    def run(self) -> RunMetrics:
        sc = self.sc
        heap, pop, duration = self._heap, heapq.heappop, sc.duration
        try:
            while heap:
                time, _, fn, a, b = pop(heap)
                if time > duration:
                    break
                self.now = time
                fn(a, b)
        finally:
            self.medium.close()
        # The pending events hold bound methods of this simulation; drop
        # them so that a finished run is freed at once, not at the next
        # full collection.
        self._heap.clear()
        if sc.trace_path is not None:
            self.motion.write(sc.trace_path, self._tick_index)
        return self.collect_metrics()

    def collect_metrics(self) -> RunMetrics:
        # Packets still in flight at the end of the run are folded as they
        # stand: one that carries no recorded failure is charged as
        # unreachable.
        outcomes = self._outcomes + Counter(
            pkt.outcome() for pkt in self.packets if pkt.measured
        )
        sent = self._sent
        delivered = outcomes["delivered"]
        drops = {cause: outcomes[cause] for cause in DROP_CAUSES}
        chirp_bytes = self.chirp_frames * self._chirp_size
        bound = self._reachable / sent if sent > 0 else 0.0
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
