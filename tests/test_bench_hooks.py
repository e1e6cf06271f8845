"""The benchmark's traced pass must keep working on the library.

`perfbench/tracer.py` replaces `owner.__dict__[name]` for every entry of
`HOOKS`, so a name the library no longer binds there raises `KeyError` in
`Tracer.install` and stops every traced benchmark pass.  A traced pass also
breaks when a campaign's runs leave the process that installed the tracer:
its per-layer figures then divide by a zero `routing.handle_chirp` count.
A name that stays bound but is no longer called reads 0 in its layer.
The benchmark modules are compiled from their sources; nothing under
`perfbench/` is written.
"""

import types
from collections import Counter
from pathlib import Path

from parrot_net import campaign, channel, kinematics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_hooked_name_is_bound_where_it_is_hooked():
    tracer = load("tracer")
    missing = [
        f"{key}: {getattr(owner, '__name__', owner)}.{name}"
        for key, owner, name, _ in tracer.HOOKS
        if name not in owner.__dict__
    ]
    assert tracer.HOOKS and not missing


# Hooked layers that every run calls.  The other six are already dead, and
# not asserted: `simulator.bound` (the bound is counted online through
# `kinematics.MotionTable.joined`), `kinematics.step`
# (`kinematics.MotionTable` steps through `motion_step`, so mobility time
# hides in `MotionTable.__init__`, inside `simulator.init.self_s`),
# `kinematics.predict` (self-predictions are read from the motion table,
# and no waypoint queue runs out) and `channel.receive`, `channel.faded`
# and `channel.nakagami` (an urban run's gains are drawn through
# `Random.gammavariate` in its gain helper process and read in
# `channel.Medium.hears`, so the verdicts' time hides there, inside
# `simulator.run.self_s`, and the draws' in the helper).
LIVE_HOOKS = (
    "chirp.decode", "chirp.encode", "routing.handle_chirp", "routing.expire",
    "routing.select", "simulator.init", "simulator.run", "simulator.collect", "campaign",
)


TINY_URBAN = [
    "protocol=parrot", "channel=urban", "nodes=3", "duration=2", "warmup=0.5",
    "bitrate=112000", "runs=1",
]

# The layer seams a benchmark can hook, each where its caller looks it up:
# the channel verdict and link rows, the motion law, the bound search.
SEAMS = (
    (channel.Medium, "hears"),
    (channel.Medium, "row"),
    (kinematics, "motion_step"),
    (kinematics, "disk_joined"),
)


def test_every_layer_seam_is_called_where_it_is_looked_up(monkeypatch):
    # A wrapper on a seam below `campaign.run` sees only the runs made in
    # this process, so the cells run here, one after another.
    monkeypatch.setattr(campaign, "usable_cores", lambda: 1)
    calls = Counter()
    for owner, name in SEAMS:
        def wrapper(*args, _fn=owner.__dict__[name], _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    campaign.run_campaign(campaign.parse_config(None, TINY_URBAN))
    dead = [name for _, name in SEAMS if not calls[name]]
    assert not dead, f"wrapped but never called: {dead}"


def test_traced_campaign_counts_its_layers_and_passes_the_checks(tmp_path):
    tracer_module, checks = load("tracer"), load("checks")
    # Several cells, and as many workers as cores: the tracer wraps
    # `campaign.run`, so every cell must still run in this process.
    cfg = campaign.parse_config(None, TINY_URBAN + ["runs=2", "sweep_values=0.3,0.7"])
    cells = len(cfg.sweep_values) * cfg.runs
    csv_path = tmp_path / "r.csv"
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # Through the module, as perfbench/worker.py calls them.
        results = campaign.run_campaign(cfg)
        campaign.emit_csv(results, str(csv_path))
    finally:
        tracer.uninstall()
    chirp_frames = sum(m.chirp_frames for point in results for m in point.metrics)
    layers = tracer.layer_metrics(chirp_frames)
    assert layers["routing.handle_chirp.calls"] > 0
    assert tracer.calls["simulator.run"] == cells
    dead = [key for key in LIVE_HOOKS if not tracer.calls[key]]
    assert not dead, f"hooked but never called: {dead}"
    checks.check_arm(cfg, results, csv_path.read_text(encoding="utf-8"), "tiny",
                     bound_check=True)
