"""Every public function, method and property of the library serves a run,
unless it is listed below as an oracle or a test seam and its docstring
says so.  `tests/test_routing.py` and `tests/test_channel.py` check their
module's share through `assert_called_or_listed`."""

import functools
import inspect
import os
import sys
import tempfile

import pytest

from parrot_net import campaign, channel, chirp, cli, errors, kinematics, routing, simulator
from parrot_net.kinematics import MobilityConfig, Vec3
from parrot_net.simulator import PROTOCOLS, Scenario, run

# Every module but the private `_procs`, which `TestGainHelper` and
# `TestParallelCells` cover.
MODULES = (kinematics, chirp, routing, channel, simulator, campaign, errors, cli)

# Public names that no run calls, each an oracle that a test ties to what a
# run does instead; each docstring says "An oracle".
ORACLES = {
    "channel.receive",                  # one frame's verdict, drawing its own gain
    "channel.faded_reception",          # the urban verdict for a given gain
    "channel.nakagami_gain",            # one gain, the draw that `_gain_chunks` makes
    "kinematics.predict_waypoint",      # a run reads its `MotionTable` tau ahead
    "kinematics.step_random_waypoint",  # a run steps its `MotionTable`
    "routing.compute_let",              # the Vec3 form of the float core `phi_let` calls
    "simulator.optimal_pdr_bound",      # the post-hoc bound that a run counts online
    "chirp.seq_newer",                  # the SEQ rule `QTable.note_fresh_seq` inlines
}

# Public names that no run calls, each a read-only view for tests; each
# docstring says "test seam".
SEAMS = {
    "routing.QTable.get",               # one Q entry
    "routing.QTable.row",               # a copy of one destination's Q values
    "routing.QTable.destinations",      # the destinations with a Q entry
    "kinematics.MotionTable.trace",     # the positions of ticks 0 to `last`
    "simulator.Simulation.trace",       # the positions of the ticks run so far
}

# Runs as each class it decorates is defined, before any profile starts.
AT_IMPORT = {"kinematics.slot_init"}


def public_functions() -> dict[str, object]:
    """Every public function, method and property getter of MODULES whose
    code lives in its module's own file, by dotted name.  That leaves out
    what a module imports and the methods that `dataclass` and `slot_init`
    generate."""
    found = {}
    for module in MODULES:
        prefix = module.__name__.rpartition(".")[2]
        members = list(vars(module).items())
        members += [(f"{name}.{attr}", member) for name, cls in members
                    if inspect.isclass(cls) for attr, member in vars(cls).items()]
        for name, obj in members:
            if isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if not inspect.isfunction(obj) or any(part.startswith("_")
                                                  for part in name.split(".")):
                continue
            fn = inspect.unwrap(obj)  # a `contextmanager`'s generator
            if fn.__code__.co_filename == module.__file__:
                found[f"{prefix}.{name}"] = fn
    return found


@functools.cache
def run_calls() -> frozenset:
    """The code objects that the library's entry points call: a run of every
    protocol under each channel, a traced two-value CLI campaign and the
    prediction study, profiled once per session."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # In process, so that the gain draws and the campaign cells are
    # profiled too.
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.delattr(os, "fork")
        sys.setprofile(profile)
        try:
            # A box small enough that packets arrive, so that the latency
            # figures are computed.
            for protocol in PROTOCOLS:
                for model in channel.CHANNEL_MODELS:
                    run(Scenario(nodes=4, box=Vec3(200, 200, 100), duration=3.0,
                                 warmup=1.0, cbr_rate=56000, protocol=protocol,
                                 channel=model, seed=3))
            code = cli.main(["run", "--runs", "2", "--trace", "--out", out] + [
                f"--set={kv}" for kv in ("nodes=4", "box_x=200", "box_y=200", "box_z=100",
                                         "duration=3", "warmup=1", "sweep=tau",
                                         "sweep_values=0,2.5")])
            campaign.prediction_accuracy_study(10.0, MobilityConfig(), duration=5.0,
                                               trials=1)
        finally:
            sys.setprofile(None)
    assert code == 0
    return frozenset(seen)


def assert_called_or_listed(prefix: str = "") -> None:
    """Fail on a public name starting with `prefix` that no run calls and
    that is not listed, on a listed one that is gone or that a run calls, and
    on a listed one whose docstring does not say why it is kept."""
    public = {name: fn for name, fn in public_functions().items()
              if name.startswith(prefix)}
    listed = {name for name in ORACLES | SEAMS | AT_IMPORT if name.startswith(prefix)}
    seen = run_calls()
    called = {name for name, fn in public.items() if fn.__code__ in seen}
    assert listed - set(public) == set(), "listed names that do not exist"
    assert called & listed == set(), "listed names that a run calls"
    assert set(public) - called - listed == set(), "public names that no run calls"
    for name in listed & ORACLES:
        assert "An oracle" in public[name].__doc__, name
    for name in listed & SEAMS:
        assert "test seam" in public[name].__doc__, name


def test_every_public_name_is_called_or_listed():
    assert_called_or_listed()
