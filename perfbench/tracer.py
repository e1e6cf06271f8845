"""Layer tracing from outside the library, by wrapping public functions.

`parrot_net.simulator` binds the kinematics, chirp and bound functions by
name at import and reaches the channel through its module, so each wrapper
replaces the name where the caller looks it up.  Every wrapped call adds to
its layer's call count and self time (its duration minus that of the
wrapped calls it made).  Calls at run granularity (campaign, run, init, the
event loop, metric collection, the bound, CSV) are also kept as spans in
memory; `spans` is written out by the caller when the pass ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from parrot_net import campaign, channel, simulator
from parrot_net.routing import Discard, Forward, RoutingState

# (layer key, owner, attribute, span name or None)
HOOKS = (
    ("campaign", campaign, "run_campaign", "campaign"),
    ("campaign", campaign, "run", "run"),
    ("campaign", campaign, "emit_csv", "csv"),
    ("simulator.init", simulator.Simulation, "__init__", "init"),
    ("simulator.run", simulator.Simulation, "run", "event-loop"),
    ("simulator.collect", simulator.Simulation, "collect_metrics", "collect"),
    ("simulator.bound", simulator, "optimal_pdr_bound", "bound"),
    ("kinematics.step", simulator, "step_random_waypoint", None),
    ("kinematics.predict", simulator, "predict_position", None),
    ("chirp.decode", simulator, "decode_chirp", None),
    ("chirp.encode", simulator, "encode_chirp", None),
    ("channel.receive", channel, "receive", None),
    ("channel.faded", channel, "faded_reception", None),
    ("channel.nakagami", channel, "nakagami_gain", None),
    ("routing.handle_chirp", RoutingState, "handle_chirp", None),
    ("routing.expire", RoutingState, "expire", None),
    ("routing.select", RoutingState, "select_next_hop", None),
)


class Tracer:
    """Call counts, self times, outcome counts and run-level spans."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.outcomes: Counter[str] = Counter()
        self.spans: list[dict] = []
        self._child_time = [0.0]
        self._open_spans: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for key, owner, name, span in HOOKS:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(key, original, span))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, key, fn, span):
        clock = time.perf_counter
        child_time = self._child_time
        calls = self.calls
        self_s = self.self_s
        observe = {
            "routing.handle_chirp": self._observe_chirp,
            "routing.select": self._observe_select,
        }.get(key)

        def wrapper(*args, **kwargs):
            if span is not None:
                span_id = self._open_span(span)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = child_time.pop()
                child_time[-1] += elapsed
                self_s[key] += elapsed - nested
                calls[key] += 1
                if span is not None:
                    self._close_span(span_id)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _open_span(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": time.perf_counter(), "end": None})
        self._open_spans.append(span_id)
        return span_id

    def _close_span(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._open_spans.pop()

    def _observe_chirp(self, action) -> None:
        if isinstance(action, Forward):
            self.outcomes["forward"] += 1
        elif isinstance(action, Discard):
            self.outcomes[f"discard.{action.reason}"] += 1

    def _observe_select(self, hop) -> None:
        if hop is None:
            self.outcomes["select.none"] += 1

    def layer_metrics(self, chirp_frames: int) -> dict[str, float]:
        """Per-layer figures of one pass, keyed by their metric names."""
        c, s, o = self.calls, self.self_s, self.outcomes
        handled = c["routing.handle_chirp"]
        # A handled chirp is useful when it reached the Q update, i.e. was
        # not discarded as stale, self-originated or malformed.
        useless = o["discard.stale"] + o["discard.self-origin"] + o["discard.malformed"]
        return {
            "kinematics.predict.calls": c["kinematics.predict"],
            "kinematics.predict.self_s": s["kinematics.predict"],
            "kinematics.step.calls": c["kinematics.step"],
            "kinematics.step.self_s": s["kinematics.step"],
            "channel.receive.calls": c["channel.receive"],
            "channel.faded.calls": c["channel.faded"],
            "channel.nakagami.calls": c["channel.nakagami"],
            "channel.self_s": (s["channel.receive"] + s["channel.faded"]
                               + s["channel.nakagami"]),
            "chirp.decode.calls": c["chirp.decode"],
            "chirp.decode.self_s": s["chirp.decode"],
            "chirp.decode_per_frame": c["chirp.decode"] / chirp_frames,
            "chirp.encode.calls": c["chirp.encode"],
            "chirp.encode.self_s": s["chirp.encode"],
            "routing.handle_chirp.calls": handled,
            "routing.handle_chirp.self_s": s["routing.handle_chirp"],
            "routing.discard.stale": o["discard.stale"],
            "routing.discard.self-origin": o["discard.self-origin"],
            "routing.discard.ttl-expired": o["discard.ttl-expired"],
            "routing.forward.calls": o["forward"],
            "routing.useful_ratio": (handled - useless) / handled,
            "routing.expire.calls": c["routing.expire"],
            "routing.expire.self_s": s["routing.expire"],
            "routing.select.calls": c["routing.select"],
            "routing.select.none": o["select.none"],
            "routing.select.self_s": s["routing.select"],
            "simulator.init.self_s": s["simulator.init"],
            "simulator.run.self_s": s["simulator.run"],
            "simulator.collect.self_s": s["simulator.collect"],
            "simulator.bound.self_s": s["simulator.bound"],
            "campaign.self_s": s["campaign"],
        }
