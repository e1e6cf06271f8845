"""Node motion state, position self-prediction, and random waypoint mobility.

Two predictors are provided: a waypoint-aware one that virtually replays the
discretized motion law along the known waypoint queue, and a slope fallback
that extrapolates the average velocity of the recent position history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random


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
        return (self - other).norm()

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)


@dataclass(frozen=True, slots=True)
class MobilityConfig:
    """Mobility / prediction parameters.

    dt: mobility update interval in seconds.
    tau: prediction horizon in seconds.
    r_w: waypoint containment radius in meters.
    h: number of history samples kept for the slope predictor.
    """

    dt: float = 0.1
    tau: float = 2.5
    r_w: float = 10.0
    h: int = 5

    def __post_init__(self) -> None:
        for name in ("dt", "tau", "r_w"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.r_w <= 0:
            raise ValueError(f"r_w must be > 0, got {self.r_w}")
        if self.h < 2:
            raise ValueError(f"h must be >= 2, got {self.h}")


@dataclass(frozen=True, slots=True)
class KinematicState:
    """Value-semantics motion state of one node.

    `waypoints` is the full pre-generated queue for the run; `cursor` indexes
    the waypoint currently steered for.  `history` holds the last positions
    sampled once per mobility tick, newest last.
    """

    position: Vec3
    speed: float
    waypoints: tuple[Vec3, ...] = ()
    cursor: int = 0
    history: tuple[Vec3, ...] = ()

    def remaining_waypoints(self) -> int:
        return max(0, len(self.waypoints) - self.cursor)


def _advance_cursor(pos: Vec3, waypoints: tuple[Vec3, ...], k: int, r_w: float) -> int:
    # Containment is also checked before the first step so a node spawned
    # inside the waypoint sphere does not stall for one tick.
    while k < len(waypoints) and pos.distance_to(waypoints[k]) <= r_w:
        k += 1
    return k


def _step_towards(pos: Vec3, target: Vec3, step: float) -> Vec3:
    gap = target - pos
    dist = gap.norm()
    if dist <= step:
        # Never overshoot the waypoint; inert whenever r_w >= speed * dt.
        return target
    return pos + gap * (step / dist)


def predict_waypoint(state: KinematicState, cfg: MobilityConfig) -> Vec3:
    """Waypoint-aware self-prediction: replay the motion law for tau seconds.

    Runs floor(tau / dt) virtual steps of the waypoint follower without
    mutating `state`.  If the queue empties mid-prediction the virtual node
    holds position for the remaining steps.
    """
    pos = state.position
    step = state.speed * cfg.dt
    if step <= 0.0:
        return pos
    n = int(cfg.tau / cfg.dt + 1e-9)
    k = _advance_cursor(pos, state.waypoints, state.cursor, cfg.r_w)
    for _ in range(n):
        if k >= len(state.waypoints):
            break
        pos = _step_towards(pos, state.waypoints[k], step)
        k = _advance_cursor(pos, state.waypoints, k, cfg.r_w)
    return pos


def predict_slope(state: KinematicState, cfg: MobilityConfig) -> Vec3:
    """Slope fallback: extrapolate the mean velocity of the history ring.

    Falls back to the current position when fewer than two samples exist.
    """
    hist = state.history
    if len(hist) < 2:
        return state.position
    total = Vec3()
    for prev, cur in zip(hist, hist[1:]):
        total = total + (cur - prev) * (1.0 / cfg.dt)
    return state.position + total * (cfg.tau / (len(hist) - 1))


def predict_position(state: KinematicState, cfg: MobilityConfig) -> Vec3:
    """Preferred predictor: waypoint-aware when a trajectory is known."""
    if state.remaining_waypoints() > 0:
        return predict_waypoint(state, cfg)
    if len(state.history) >= 2:
        return predict_slope(state, cfg)
    return state.position


def step_random_waypoint(state: KinematicState, cfg: MobilityConfig) -> KinematicState:
    """Advance the node by one mobility tick toward its current waypoint.

    Uses the exact step rule the waypoint predictor replays, so prediction
    error is zero while the queue lasts.  A node with an exhausted queue is
    stationary.  Returns a new state; the history ring gains one sample.
    """
    pos = state.position
    k = _advance_cursor(pos, state.waypoints, state.cursor, cfg.r_w)
    if k < len(state.waypoints) and state.speed > 0.0:
        pos = _step_towards(pos, state.waypoints[k], state.speed * cfg.dt)
        k = _advance_cursor(pos, state.waypoints, k, cfg.r_w)
    hist = (state.history + (pos,))[-cfg.h:]
    return replace(state, position=pos, cursor=k, history=hist)


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
    """Spawn a node and draw its whole waypoint sequence up front.

    Waypoints are uniform in the box, drawn until their gaps less r_w per
    leg cover speed * duration + 2 r_w.  A leg's path can be nearly its full
    gap, so the queue can run out before `duration`.  From then on the node
    stops, and self-prediction falls back to the slope predictor.
    """
    if bounds.x <= 0 or bounds.y <= 0 or bounds.z <= 0:
        raise ValueError(f"bounds must be positive in all dimensions, got {bounds}")
    spawn = _uniform_point(bounds, rng)
    need = speed * duration + 2.0 * cfg.r_w
    waypoints: list[Vec3] = []
    covered = 0.0
    last = spawn
    while covered < need:
        nxt = _uniform_point(bounds, rng)
        covered += max(last.distance_to(nxt) - cfg.r_w, 0.0)
        waypoints.append(nxt)
        last = nxt
    return KinematicState(
        position=spawn,
        speed=speed,
        waypoints=tuple(waypoints),
        cursor=0,
        history=(spawn,),
    )


def prediction_error(predicted: Vec3, actual: Vec3) -> float:
    """Euclidean prediction error in meters."""
    return predicted.distance_to(actual)
