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

Each periodic source (the mobility ticks, each node's chirps, the CBR
stream) keeps one pending event and schedules its successor when it
fires, and a packet's state lives only until its last copy dies, so the
event queue and the packet book do not grow with the length of the run.
Events at one timestamp fire by rank: the tick (rank 0) first, so that
positions update before anything else, then node i's chirp (rank 1 + i),
then the CBR emission (rank n + 1), then every other event in the order
it was scheduled (ranks from n + 2 on).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Callable

from . import channel as radio
from .channel import LinkBudget, default_budget
from .chirp import CHIRP_SIZE, Chirp, decode_chirp, encode_chirp
from .errors import require, require_finite, within
from .kinematics import (
    MobilityConfig,
    MotionTable,
    Vec3,
    disk_joined,
    make_random_waypoint_state,
    slot_init,
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
        require_finite(self)
        require_finite(self.box, "box.")
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


@slot_init
@dataclass(frozen=True, slots=True)
class DataPacket:
    pid: int
    src: int
    dst: int
    emit_time: float
    hops_left: int
    measured: bool


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
    payload: object  # bytes for chirps, DataPacket for data
    size: int  # bytes incl. header overhead
    attempts: int = 0
    fading: list[float] | None = None


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
    __slots__ = ("measured", "delivered", "fail", "copies", "flooded")

    def __init__(self, measured: bool):
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
    __slots__ = ("id", "position", "routing", "queue", "transmitting", "busy", "clean")

    def __init__(self, node_id: int):
        self.id = node_id
        self.position = Vec3()  # at the latest mobility tick; see Simulation._place
        # Set by Simulation, once its channel gives r_TX.
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
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        # The rank of the next dynamic event; see _start_streams.
        self._next_rank = scenario.nodes + 2

        self.rng_channel = Random(stable_seed(scenario.seed, "channel"))
        self.rng_mac = Random(stable_seed(scenario.seed, "mac"))
        rng_traffic = Random(stable_seed(scenario.seed, "traffic"))

        cfg = scenario.mobility
        self._n_ticks = int(scenario.duration / cfg.dt + 1e-9)
        # Ticks in the self-prediction horizon, as the waypoint predictor
        # counts its virtual steps.
        self._lead = int(cfg.tau / cfg.dt + 1e-9)
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

        # Metrics and bookkeeping.  `packets` holds the packets that still
        # have a live copy; `_outcomes` counts the measured ones that died,
        # by "delivered" or drop cause.
        self.packets: dict[int, _PacketState] = {}
        self._outcomes: Counter[str] = Counter()
        self.latencies: list[float] = []
        self._next_pid = 0
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
            node.position = position
            node.routing.update_self(position, predicted)

    @property
    def trace(self) -> list[tuple[float, tuple[Vec3, ...]]]:
        """(time, positions) of every mobility tick run so far, t = 0 first."""
        return self.motion.trace(self._tick_index)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, self._next_rank, fn))
        self._next_rank += 1

    def _start_streams(self) -> None:
        """Schedule the first event of each periodic source.

        Event k of a source fires at offset + k * interval.  A source has
        one pending event at a time, so a fixed rank per source breaks
        ties: the tick ranks 0, node i's chirp 1 + i and the CBR emission
        n + 1, so at a shared timestamp positions update first, then the
        chirps fire in node order, then the emission.  Dynamic events rank
        from n + 2 on, in the order they are scheduled.  Ticks stop at the
        motion table's last; chirps and emissions stop before `duration`.
        """
        sc = self.sc
        interval = sc.routing.chirp_interval

        def before_end(k: int, time: float) -> bool:
            return time < sc.duration

        self._stream(self._tick, 0, 0.0, sc.mobility.dt, 1, lambda k, _: k <= self._n_ticks)
        for node in self.nodes:
            self._stream(partial(self._emit_chirp, node), 1 + node.id,
                         self.rng_mac.uniform(0.0, interval), interval, 0, before_end)
        self._stream(self._emit_packet, len(self.nodes) + 1, 0.0,
                     sc.payload * 8 / sc.cbr_rate, 1, before_end)

    def _stream(self, fire: Callable[[], None], rank: int, offset: float, interval: float,
                k: int, keep: Callable[[int, float], bool]) -> None:
        """Schedule event k of a periodic source at offset + k * interval
        if `keep(k, time)` holds; when it fires, it first schedules event
        k + 1."""
        time = offset + k * interval
        if keep(k, time):
            def event() -> None:
                self._stream(fire, rank, offset, interval, k + 1, keep)
                fire()
            heapq.heappush(self._heap, (time, rank, event))

    # -- event handlers -----------------------------------------------------

    def _tick(self) -> None:
        self._tick_index += 1
        ahead = self._ahead
        ahead.popleft()
        ahead.append(self.motion.row(self._tick_index + self._lead))
        self._place()
        for node in self.nodes:
            node.routing.expire(self.now)
        self.medium.tick(self._tick_index)
        self._reach = None

    def _emit_chirp(self, node: _Node) -> None:
        chirp = node.routing.make_chirp(self.now)
        self.enqueue(node, Frame(node.id, None, "chirp", encode_chirp(chirp),
                                 CHIRP_SIZE + self.sc.header_overhead))

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
            self._sent += 1
            # Ticks fire before emissions at equal timestamps, so the
            # current tick is the latest trace snapshot at this emission.
            if self._reach is None:
                self._reach = self.motion.joined(self._tick_index, self.medium.r_tx,
                                                 self.sender, self.receiver)
            self._reachable += self._reach
        self._forward_data(self.nodes[pkt.src], pkt)

    # -- routing dispatch -----------------------------------------------------

    def _forward_data(self, node: _Node, pkt: DataPacket) -> None:
        if pkt.hops_left <= 0:
            self._note_fail(pkt, DROP_TTL)
            return
        proto = self.sc.protocol
        if proto == "flood":
            flooded = self.packets[pkt.pid].flooded
            if node.id in flooded:
                self._drop_copy(pkt.pid)
                return
            flooded.add(node.id)
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
        self.enqueue(node, Frame(
            node.id, link_dest, "data",
            DataPacket(pkt.pid, pkt.src, pkt.dst, pkt.emit_time, pkt.hops_left - 1,
                       pkt.measured),
            self.sc.payload + self.sc.header_overhead,
        ))

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
        node.clean = None
        receivers = self.medium.hears(frame)
        for other in receivers:
            other.clean = None if other.transmitting is not None or other.busy else frame
            other.busy += 1
        airtime = frame.size * 8 / self.sc.link_rate
        self._schedule(self.now + airtime, partial(self._tx_end, node, frame, receivers))

    def _tx_end(self, node: _Node, frame: Frame, receivers: list[_Node]) -> None:
        node.transmitting = None
        # Finalize the whole transmission before dispatching deliveries: a
        # delivery may start a new transmission at this same instant, which
        # must not retroactively corrupt receptions that already ended.  A
        # frame is never on the air twice at once (a retry is queued after
        # this), so `clean is frame` identifies this reception.
        heard = []
        for other in receivers:
            other.busy -= 1
            if other.clean is frame:
                other.clean = None
                heard.append(other)
        dest = frame.link_dest
        clean = heard if dest is None else [other for other in heard if other.id == dest]
        if frame.kind == "chirp":
            if clean:
                chirp = decode_chirp(frame.payload)
                for receiver in clean:
                    action = receiver.routing.handle_chirp(chirp, frame.sender, self.now)
                    if isinstance(action, Forward):
                        self._forward_chirp(receiver, action.chirp)
        else:
            pkt: DataPacket = frame.payload
            if len(clean) > 1:
                # A broadcast heard cleanly by several nodes forks its copy.
                self.packets[pkt.pid].copies += len(clean) - 1
            for receiver in clean:
                self._deliver_data(receiver, pkt)
            if dest is not None:
                if not clean:
                    # A target that heard the frame corrupted lost it to a
                    # collision.
                    heard_corrupted = any(other.id == dest for other in receivers)
                    self._retry_or_drop(node, frame,
                                        DROP_COLLISION if heard_corrupted else DROP_CHANNEL)
            elif not clean:
                # A flood branch that nobody heard cleanly dies here.
                self._note_fail(pkt, DROP_COLLISION if receivers else DROP_CHANNEL)
        self._kick(node)

    def _retry_or_drop(self, node: _Node, frame: Frame, cause: str) -> None:
        frame.attempts += 1
        if frame.attempts <= self.sc.retry_limit:
            self._schedule(self.now + self.sc.retry_backoff,
                           partial(self._requeue_front, node, frame))
            return
        self._note_fail(frame.payload, cause)

    # -- reception --------------------------------------------------------------

    def _deliver_data(self, receiver: _Node, pkt: DataPacket) -> None:
        if receiver.id == pkt.dst:
            state = self.packets[pkt.pid]
            if not state.delivered:
                state.delivered = True
                if state.measured:
                    self.latencies.append(self.now - pkt.emit_time)
            self._drop_copy(pkt.pid)
            return
        self._forward_data(receiver, pkt)

    def _forward_chirp(self, node: _Node, chirp: Chirp) -> None:
        """Re-broadcast `chirp` from `node` after a random jitter."""
        out = Frame(node.id, None, "chirp", encode_chirp(chirp),
                    CHIRP_SIZE + self.sc.header_overhead)
        delay = self.rng_mac.uniform(0.0, self.sc.forward_jitter)
        self._schedule(self.now + delay, partial(self.enqueue, node, out))

    # -- accounting ---------------------------------------------------------------

    def _note_fail(self, pkt: DataPacket, cause: str) -> None:
        # Last recorded failure wins; a packet that was delivered anywhere
        # (flooding duplicates) stops collecting failure causes.
        state = self.packets[pkt.pid]
        if not state.delivered:
            state.fail = cause
        self._drop_copy(pkt.pid)

    def _drop_copy(self, pid: int) -> None:
        """A copy of packet `pid` is gone; with its last, fold the packet
        into the outcome counts and forget it."""
        state = self.packets[pid]
        state.copies -= 1
        if state.copies:
            return
        del self.packets[pid]
        if state.measured:
            self._outcomes[state.outcome()] += 1

    # -- run ------------------------------------------------------------------------

    def run(self) -> RunMetrics:
        sc = self.sc
        try:
            while self._heap:
                time, _, fn = heapq.heappop(self._heap)
                if time > sc.duration:
                    break
                self.now = time
                fn()
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
            state.outcome() for state in self.packets.values() if state.measured
        )
        sent = self._sent
        delivered = outcomes["delivered"]
        drops = {cause: outcomes[cause] for cause in DROP_CAUSES}
        chirp_bytes = self.chirp_frames * (CHIRP_SIZE + self.sc.header_overhead)
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
