"""Node motion state, position self-prediction, and random waypoint mobility.

Random waypoint queues are endless, drawn on demand.  Two predictors are
provided: a waypoint-aware one that virtually replays the discretized motion
law along the waypoint queue, and a slope predictor that extrapolates the
average velocity of a few recent positions.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import MISSING, dataclass, fields, replace
from random import Random
from typing import Sequence

from .errors import require, require_fields


def slot_init(cls: type) -> type:
    """Give a frozen slotted dataclass a cheaper `__init__`.

    The frozen dataclass `__init__` stores each field through
    `object.__setattr__`; this one, with the same signature and defaults,
    stores it through the field's slot descriptor, at about half the cost.
    The frozen `__setattr__` still guards every later assignment.  Apply it
    above `@dataclass(frozen=True, slots=True)`.  A class with
    `__post_init__`, a `default_factory` or an `init=False` field is
    refused, since this `__init__` would skip them.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} is not a frozen slotted dataclass")
    own = fields(cls)
    if hasattr(cls, "__post_init__") or any(
        f.default_factory is not MISSING or not f.init for f in own
    ):
        raise TypeError(
            f"{cls.__name__} needs the dataclass __init__: it has __post_init__, "
            "a default_factory or an init=False field"
        )
    generated = cls.__init__
    code = generated.__code__
    args = list(code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount])
    if code.co_kwonlyargcount:
        args.insert(code.co_argcount - 1, "*")
    names = [f.name for f in own]
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names) or "    pass\n"
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    exec(f"def __init__({', '.join(['self'] + args)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = generated.__defaults__
    init.__kwdefaults__ = generated.__kwdefaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = generated.__qualname__
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


def distance(x: float, y: float, z: float, u: float, v: float, w: float) -> float:
    """Euclidean distance from (x, y, z) to (u, v, w), symmetric bit for
    bit: swapping the points flips only the signs of the differences."""
    dx = x - u
    dy = y - v
    dz = z - w
    return math.sqrt(dx * dx + dy * dy + dz * dz)


@slot_init
@dataclass(frozen=True, slots=True)
class Vec3:
    """Point or velocity in 3-space (meters / meters per second)."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        return distance(self.x, self.y, self.z, other.x, other.y, other.z)


@dataclass(frozen=True, slots=True)
class MobilityConfig:
    """Mobility / prediction parameters.

    dt: mobility update interval in seconds.
    tau: prediction horizon in seconds.
    r_w: waypoint containment radius in meters.
    """

    dt: float = 0.1
    tau: float = 2.5
    r_w: float = 10.0

    def __post_init__(self) -> None:
        require_fields(self)
        require(self.dt > 0, "dt", self.dt, "be > 0")
        require(self.tau >= 0, "tau", self.tau, "be >= 0")
        require(self.r_w > 0, "r_w", self.r_w, "be > 0")

    def ticks(self, seconds: float) -> int:
        """Whole mobility ticks in `seconds`, forgiving the rounding error
        of a span that is a multiple of dt."""
        return int(seconds / self.dt + 1e-9)


@slot_init
@dataclass(frozen=True, slots=True)
class KinematicState:
    """Value-semantics motion state of one node.

    `waypoints` is an endless `WaypointQueue`, or a finite queue built by
    hand, after which the node stops; `cursor` indexes the waypoint steered
    for.
    """

    position: Vec3
    speed: float
    waypoints: Sequence[Vec3] = ()
    cursor: int = 0


class WaypointQueue(list):
    """The waypoints drawn so far, uniform in `box` from `rng`, which must
    draw nothing else.  The motion law draws the next one when the cursor
    reaches the end, so the queue never runs out; indexing costs a list's."""

    __slots__ = ("box", "rng")

    def __init__(self, box: Vec3, rng: Random) -> None:
        super().__init__()
        self.box, self.rng = box, rng
        self.draw()

    def draw(self) -> None:
        self.append(_uniform_point(self.box, self.rng))


def _contain(x: float, y: float, z: float, waypoints: Sequence[Vec3], k: int,
             r_w: float) -> int:
    # Containment is also checked before the first step so a node spawned
    # inside the waypoint sphere does not stall for one tick.
    n = len(waypoints)
    while k < n:
        w = waypoints[k]
        if distance(x, y, z, w.x, w.y, w.z) <= r_w:
            k += 1
            if k == n and isinstance(waypoints, WaypointQueue):
                waypoints.draw()
                n += 1
        else:
            break
    return k


def motion_step(x: float, y: float, z: float, k: int, waypoints: Sequence[Vec3],
                speed: float, dt: float, r_w: float) -> tuple[float, float, float, int]:
    """One mobility tick of the waypoint follower on bare floats.

    Takes and returns the position and the cursor, the index of the
    waypoint steered for.  The node moves speed * dt toward that waypoint,
    never past it, and a waypoint counts as reached once the node is within
    r_w of it.  A node with no speed holds position; so does one whose
    finite, hand-built queue is spent, while an endless `WaypointQueue`
    always has a waypoint ahead.
    This is the one motion law: `MotionTable`, `step_random_waypoint` and
    `predict_waypoint` all step through it.
    """
    k = _contain(x, y, z, waypoints, k, r_w)
    if k < len(waypoints) and speed > 0.0:
        w = waypoints[k]
        step = speed * dt
        gx = w.x - x
        gy = w.y - y
        gz = w.z - z
        dist = math.sqrt(gx * gx + gy * gy + gz * gz)
        if dist <= step:
            # Never overshoot the waypoint; inert whenever r_w >= speed * dt.
            x, y, z = w.x, w.y, w.z
        else:
            s = step / dist
            x = x + gx * s
            y = y + gy * s
            z = z + gz * s
        k = _contain(x, y, z, waypoints, k, r_w)
    return x, y, z, k


class MotionTable:
    """The position of every node at every tick from 0 to `ticks`, each row
    stepped from the previous one through `motion_step`, so it equals a
    `step_random_waypoint` replay bit for bit.  `coords` holds tick k's row
    from `base(k)` on, node i's x, y, z at `base(k) + 3 i`: plain floats
    take about a fifth of the memory of `Vec3`s."""

    def __init__(self, states: Sequence[KinematicState], cfg: MobilityConfig,
                 ticks: int) -> None:
        self.n, self.dt = len(states), cfg.dt
        dt, r_w = cfg.dt, cfg.r_w
        coords = self.coords = array("d")
        cursors = [s.cursor for s in states]
        for s in states:
            p = s.position
            coords.extend((p.x, p.y, p.z))
        j = 0
        for _ in range(ticks):
            for i, s in enumerate(states):
                x, y, z, cursors[i] = motion_step(coords[j], coords[j + 1], coords[j + 2],
                                                  cursors[i], s.waypoints, s.speed, dt, r_w)
                coords.extend((x, y, z))
                j += 3

    def base(self, k: int) -> int:
        """Where tick k's row starts in `coords`."""
        return 3 * self.n * k

    def row(self, k: int) -> list[Vec3]:
        """The positions of every node at tick k, in node order."""
        c = self.coords
        j = self.base(k)
        return [Vec3(c[i], c[i + 1], c[i + 2]) for i in range(j, j + 3 * self.n, 3)]

    def joined(self, k: int, r: float, src: int, dst: int) -> bool:
        """Whether `dst` is joined to `src` in the disk graph of radius r at
        tick k."""
        return disk_joined(self.coords, self.base(k), self.n, r, src, dst)

    def trace(self, last: int) -> list[tuple[float, tuple[Vec3, ...]]]:
        """(time, positions) of ticks 0 to `last`."""
        return [(k * self.dt, tuple(self.row(k))) for k in range(last + 1)]

    def write(self, path: str, last: int) -> None:
        """One `t,node,x,y,z` line per node per tick of `trace(last)`."""
        with open(path, "w", encoding="utf-8") as out:
            for k in range(last + 1):
                t = k * self.dt
                for i, p in enumerate(self.row(k)):
                    out.write(f"{t:.6f},{i},{p.x:.6f},{p.y:.6f},{p.z:.6f}\n")


def disk_joined(coords: Sequence[float], base: int, n: int, r: float, src: int,
                dst: int) -> bool:
    """Whether `dst` is joined to `src` in the disk graph of radius r over
    n positions, kept as x, y, z floats from `coords[base]` on."""
    seen = {src}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        if u == dst:
            return True
        j = base + 3 * u
        x, y, z = coords[j], coords[j + 1], coords[j + 2]
        for v in range(n):
            if v not in seen:
                j = base + 3 * v
                if distance(x, y, z, coords[j], coords[j + 1], coords[j + 2]) <= r:
                    seen.add(v)
                    frontier.append(v)
    return False


def predict_waypoint(state: KinematicState, cfg: MobilityConfig) -> Vec3:
    """Waypoint-aware self-prediction: replay the motion law for tau seconds.

    Runs floor(tau / dt) virtual steps of the waypoint follower without
    mutating `state`.  If the queue empties mid-prediction the virtual node
    holds position for the remaining steps.
    An oracle: a run reads its `MotionTable` instead, `TestMotionTable`
    compares the two, and `perfbench/` hooks it through `simulator`, which
    binds it as `predict_position`.
    """
    pos = state.position
    if state.speed * cfg.dt <= 0.0:
        return pos
    x, y, z, k = pos.x, pos.y, pos.z, state.cursor
    for _ in range(cfg.ticks(cfg.tau)):
        x, y, z, k = motion_step(x, y, z, k, state.waypoints, state.speed, cfg.dt, cfg.r_w)
    return Vec3(x, y, z)


def predict_slope(positions: Sequence[Vec3], cfg: MobilityConfig) -> Vec3:
    """Slope predictor: extrapolate the mean velocity of `positions`, at
    least one, sampled once per mobility tick, newest last, tau seconds on
    from the newest.  A single position is its own prediction.
    """
    if len(positions) < 2:
        return positions[-1]
    total = Vec3()
    for prev, cur in zip(positions, positions[1:]):
        total = total + (cur - prev) * (1.0 / cfg.dt)
    return positions[-1] + total * (cfg.tau / (len(positions) - 1))


def step_random_waypoint(state: KinematicState, cfg: MobilityConfig) -> KinematicState:
    """Advance the node by one mobility tick toward its current waypoint.

    Uses the exact step rule the waypoint predictor replays, so a spawned
    node, whose queue is endless, is predicted with zero error and holds
    position only at speed 0.  Returns a new state.
    An oracle: a run steps its `MotionTable` instead, `TestMotionTable`
    compares the two, and `perfbench/` binds the name.
    """
    p = state.position
    x, y, z, k = motion_step(p.x, p.y, p.z, state.cursor, state.waypoints,
                             state.speed, cfg.dt, cfg.r_w)
    return replace(state, position=Vec3(x, y, z), cursor=k)


def _uniform_point(bounds: Vec3, rng: Random) -> Vec3:
    return Vec3(
        rng.uniform(0.0, bounds.x),
        rng.uniform(0.0, bounds.y),
        rng.uniform(0.0, bounds.z),
    )


def make_random_waypoint_state(
    bounds: Vec3,
    speed: float,
    duration: float,
    rng: Random,
    cfg: MobilityConfig,
) -> KinematicState:
    """Spawn a node uniformly in the box, with an endless waypoint queue.

    The spawn is drawn from `rng` first; the `WaypointQueue` then draws
    each waypoint, uniform in the box, when the motion first reaches it, so
    `rng` must be the node's own.  `duration` is not read.  A box whose
    diagonal is at most 2 r_w is refused: every point of it lies within r_w
    of its centre, where a node would draw waypoints forever.  Just above
    that edge nodes draw many waypoints per tick (700 on average in a 12 m
    cube at r_w 10 m and 50 km/h).
    """
    if not (bounds.x > 0 and bounds.y > 0 and bounds.z > 0) or bounds.norm() <= 2.0 * cfg.r_w:
        raise ValueError(
            f"bounds must be positive with a diagonal above twice r_w {cfg.r_w}, or a "
            f"node at the centre would draw waypoints forever, got {bounds}"
        )
    spawn = _uniform_point(bounds, rng)
    return KinematicState(position=spawn, speed=speed, waypoints=WaypointQueue(bounds, rng))


def prediction_error(predicted: Vec3, actual: Vec3) -> float:
    """Euclidean prediction error in meters."""
    return predicted.distance_to(actual)
