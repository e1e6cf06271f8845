"""Campaign orchestration: config parsing, parameter sweeps, statistics, CSV.

A campaign runs one scenario across a sweep axis with several seeded runs
per point and aggregates mean values with 0.95 normal-approximation
confidence intervals.  Output is a pure function of the configuration, base
seed included: each run is a pure function of its `Scenario`, so the runs
may execute side by side in worker processes forked through `_procs`, one
per usable core, without changing a bit of it.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from random import Random
from typing import BinaryIO, Callable

from ._procs import Child, usable_cores
from .channel import budget_for_radius
from .errors import ConfigError, require, require_fields, within
from .kinematics import (
    MobilityConfig,
    MotionTable,
    Vec3,
    make_random_waypoint_state,
    predict_slope,
    prediction_error,
)
from . import simulator
from .simulator import DROP_CAUSES, RunMetrics, Scenario, run, stable_seed

# Columns are frozen; emit_csv and its golden-header test depend on the order.
CSV_COLUMNS = (
    "sweep_value",
    "runs",
    "pdr_mean",
    "pdr_ci95",
    "latency_mean_s",
    "latency_ci95_s",
    "latency_p99_s",
    "overhead_bytes",
    "optimal_bound_mean",
    "drops_no_route",
    "drops_ttl",
    "drops_collision",
    "drops_channel",
    "drops_queue",
)

SWEEPABLE = ("alpha", "gamma0", "tau", "nodes", "speed_kmh")

_KMH_PER_MPS = 3.6


@dataclass
class CampaignConfig:
    scenario: Scenario
    sweep: str = "alpha"
    sweep_values: list[float] = field(default_factory=list)
    runs: int = 25
    out_dir: str = "."
    trace: bool = False

    @property
    def base_seed(self) -> int:
        """The seed every run seed derives from: the scenario's."""
        return self.scenario.seed

    def validate(self) -> None:
        require_fields(self)
        require(self.runs >= 1, "runs", self.runs, "be >= 1")
        require(self.sweep in SWEEPABLE, "sweep", self.sweep, f"be one of {SWEEPABLE}")
        require(bool(self.sweep_values), "sweep_values", self.sweep_values, "not be empty")
        for value in self.sweep_values:
            try:
                apply_sweep(self.scenario, self.sweep, value).validate()
            except ValueError as exc:
                raise ConfigError(f"sweep_values {value:g} for sweep '{self.sweep}': {exc}",
                                  "sweep_values", "sweep") from None
        # A value is labelled by its CSV cell and by `:g` (the trace file
        # names and the CLI's summary lines); each label names one value.
        for labels in ([_format_cell("sweep_value", value) for value in self.sweep_values],
                       [f"{value:g}" for value in self.sweep_values]):
            clash = next((label for label in labels if labels.count(label) > 1), None)
            require(clash is None, "sweep_values", self.sweep_values,
                    "have distinct labels in the CSV (%.6f) and in trace file names "
                    f"and summary lines (:g), but two values read {clash}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_values(text: str) -> list[float]:
    return [_parse_float(part) for part in text.split(",") if part.strip()]


# key -> (parser, the field it sets).  Fields are named from the Scenario
# ("routing.alpha") or, for the campaign's own keys, from the
# CampaignConfig ("runs").  The link-budget keys set the arguments of
# `budget_for_radius` ("budget.r_tx") and `speed_kmh` sets `speed` in m/s.
# A key that is not given leaves its field at the dataclass default; the
# dataclasses check every range and type.
_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    "nodes": (int, "nodes"),
    "box_x": (_parse_float, "box.x"),
    "box_y": (_parse_float, "box.y"),
    "box_z": (_parse_float, "box.z"),
    "speed_kmh": (_parse_float, "speed"),
    "duration": (_parse_float, "duration"),
    "warmup": (_parse_float, "warmup"),
    "bitrate": (_parse_float, "cbr_rate"),
    "payload": (int, "payload"),
    "protocol": (str, "protocol"),
    "channel": (str, "channel"),
    "alpha": (_parse_float, "routing.alpha"),
    "gamma0": (_parse_float, "routing.gamma0"),
    "tau": (_parse_float, "mobility.tau"),
    "chirp_interval": (_parse_float, "routing.chirp_interval"),
    "dt": (_parse_float, "mobility.dt"),
    "r_w": (_parse_float, "mobility.r_w"),
    "neighbor_timeout": (_parse_float, "routing.neighbor_timeout"),
    "entry_timeout": (_parse_float, "routing.entry_timeout"),
    "cohesion_window": (_parse_float, "routing.cohesion_window"),
    "initial_ttl": (int, "routing.initial_ttl"),
    "r_tx": (_parse_float, "budget.r_tx"),
    "tx_power_dbm": (_parse_float, "budget.tx_power_dbm"),
    "frequency_hz": (_parse_float, "budget.frequency_hz"),
    "pathloss_exponent": (_parse_float, "budget.path_loss_exponent"),
    "nakagami_m": (_parse_float, "budget.nakagami_m"),
    "link_rate": (_parse_float, "link_rate"),
    "hop_budget": (int, "hop_budget"),
    "queue_limit": (int, "queue_limit"),
    "forward_jitter": (_parse_float, "forward_jitter"),
    "seed": (int, "seed"),
    "runs": (int, "runs"),
    "sweep": (str, "sweep"),
    "sweep_values": (_parse_values, "sweep_values"),
    "out": (str, "out_dir"),
    "trace": (_parse_bool, "trace"),
}

_CAMPAIGN_KEYS = ("runs", "sweep", "sweep_values", "out", "trace")


def _read_config_lines(path: str) -> list[tuple[str, str, str]]:
    entries = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries.append((key.strip(), value.strip(), f"{path}:{lineno}"))
    return entries


def parse_config(path: str | None = None, overrides: list[str] | None = None,
                 flags: dict[str, str] | None = None) -> CampaignConfig:
    """Build a CampaignConfig from a key = value file, override pairs and
    flags.

    Overrides ("key=value" strings, e.g. from repeated --set flags) win over
    file entries, and `flags` (key -> value text, from the command-line
    flag named after the key, such as `--runs`) win over both.  Every error
    names the keys it is about and where each was set: a file line,
    `--set #i` (the i-th override), `--<key>` for a flag, or `default`.
    """
    entries: list[tuple[str, str, str]] = []
    if path is not None:
        entries.extend(_read_config_lines(path))
    for i, pair in enumerate(overrides or [], start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{i}: expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        entries.append((key.strip(), value.strip(), f"--set #{i}"))
    entries.extend((key, value, f"--{key}") for key, value in (flags or {}).items())

    values: dict[str, object] = {}
    origins: dict[str, str] = {}
    for key, text, where in entries:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        try:
            values[key] = _KEYS[key][0](text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for '{key}': {exc}") from None
        origins[key] = where

    try:
        cfg = _build_campaign(values)
        cfg.scenario.validate()
        cfg.validate()
    except ConfigError as exc:
        keys = [key for f in exc.fields for key, (_, path) in _KEYS.items()
                if path == f or path.startswith(f + ".")]
        located = ", ".join(f"{origins.get(key, 'default')} '{key}'" for key in keys)
        raise ConfigError(f"{located}: {exc}", *exc.fields) from None
    return cfg


def _with_keys(scenario: Scenario, values: dict[str, object]) -> Scenario:
    """A copy of `scenario` with the fields set that the parsed Scenario keys
    in `values` set, `speed_kmh` converted to m/s.  The link-budget keys
    build a new budget through `budget_for_radius`."""
    parts: defaultdict[str, dict[str, object]] = defaultdict(dict)
    for key, value in values.items():
        part, _, name = _KEYS[key][1].rpartition(".")
        parts[part][name] = value
    top = parts.pop("", {})
    if "speed" in top:
        top["speed"] = top["speed"] / _KMH_PER_MPS
    budget = parts.pop("budget", None)
    for part, names in parts.items():
        with within(part + "."):
            top[part] = replace(getattr(scenario, part), **names)
    if budget is not None:
        with within("budget."):
            top["budget"] = budget_for_radius(**budget)
    return replace(scenario, **top)


def _build_campaign(values: dict[str, object]) -> CampaignConfig:
    """The campaign that the parsed keys in `values` set, every other field
    at its default."""
    scenario = _with_keys(Scenario(), {key: value for key, value in values.items()
                                       if key not in _CAMPAIGN_KEYS})
    cfg = CampaignConfig(scenario, **{_KEYS[key][1]: value for key, value in values.items()
                                      if key in _CAMPAIGN_KEYS})
    if "sweep_values" not in values and cfg.sweep in SWEEPABLE:
        # One point at the swept key's value, in the key's unit.
        current = values.get(cfg.sweep)
        if current is None:
            current = attrgetter(_KEYS[cfg.sweep][1])(scenario)
            if cfg.sweep == "speed_kmh":
                current *= _KMH_PER_MPS
        cfg.sweep_values = [float(current)]
    return cfg


def apply_sweep(scenario: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with the swept key `param` set to
    `value`, in the key's unit, as a file line or `--set` would set it."""
    require(param in SWEEPABLE, "sweep", param, f"be one of {SWEEPABLE}")
    if param == "nodes":
        require(float(value).is_integer(), "nodes", value, "be a whole number")
        value = int(value)
    return _with_keys(scenario, {param: value})


def derive_run_seed(base_seed: int, param: str, value: float, run_index: int) -> int:
    """Per-cell seed: base XOR stable point hash, reproducible cell by cell.
    The point hashes as a float, so 6, 6.0 and `np.float64(6)` are one point."""
    return (base_seed ^ stable_seed(param, float(value), run_index)) & (2**63 - 1)


@dataclass
class PointResult:
    param: str
    value: float
    metrics: list[RunMetrics]


def campaign(scenarios: list[Scenario]) -> list[RunMetrics]:
    """Run every scenario and return their metrics in the same order.

    The runs take place in forked workers, one per usable core (`taskset`
    narrows them) but no more than there are scenarios.  They stay in this
    process where that would be fewer than 2 workers, where `os.fork` does
    not exist, and where `campaign.run` is not `simulator.run`: a wrapper
    there, such as a tracer, sees every run, while one on a deeper seam
    (`channel.Medium.hears`, say) sees no run that leaves for a worker.
    The workers, and an urban cell's gain helper (see `channel`), are
    forked through `_procs`; a worker's helper ends with its cell.
    """
    workers = min(len(scenarios), usable_cores())
    if workers >= 2 and hasattr(os, "fork") and run is simulator.run:
        return _run_forked(scenarios, workers)
    return [run(scenario) for scenario in scenarios]


def run_campaign(cfg: CampaignConfig) -> list[PointResult]:
    """Execute every (sweep value, run index) cell and return per-point runs.

    With `cfg.trace` set, each run writes its position trace into
    `cfg.out_dir`.  The cells run through `campaign`.
    """
    cfg.validate()
    cells = []
    for value in cfg.sweep_values:
        base = apply_sweep(cfg.scenario, cfg.sweep, value)
        for run_index in range(cfg.runs):
            seed = derive_run_seed(cfg.base_seed, cfg.sweep, value, run_index)
            scenario = replace(base, seed=seed)
            if cfg.trace:
                name = f"trace_{cfg.sweep}_{value:g}_run{run_index}.txt"
                scenario = replace(scenario, trace_path=os.path.join(cfg.out_dir, name))
            cells.append(scenario)
    metrics = campaign(cells)
    return [PointResult(cfg.sweep, value, metrics[i * cfg.runs:(i + 1) * cfg.runs])
            for i, value in enumerate(cfg.sweep_values)]


def _run_forked(cells: list[Scenario], workers: int) -> list[RunMetrics]:
    """Run the cells in `workers` forked processes, worker w taking cells
    w, w + workers, ..., and return their metrics in cell order.

    Each worker pickles its metrics, or its exception, into its own pipe
    and ends; an exception is re-raised here with its own type.  On the
    way out, on an error or an interrupt too, every worker is killed and
    reaped.  A worker whose parent is gone (ended by a signal that skips
    this cleanup) ends before its next cell.
    """
    import pickle

    parent = os.getpid()
    metrics: list[RunMetrics | None] = [None] * len(cells)
    children: list[Child] = []
    try:
        for w in range(workers):
            children.append(Child(partial(_work, cells=cells[w::workers], parent=parent)))
        for w, child in enumerate(children):
            data = child.reader.read()
            if not data:
                raise RuntimeError(f"campaign worker {child.pid} ended without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            metrics[w::workers] = payload
    finally:
        for child in children:
            child.end()
    return metrics


def _work(out: BinaryIO, cells: list[Scenario], parent: int) -> None:
    """The body of a forked worker: run the cells and write the outcome to
    `out`.  Once `parent` is no longer its parent, nobody reads the
    outcome, so it stops at once."""
    import pickle

    try:
        results = []
        for scenario in cells:
            if os.getppid() != parent:
                return
            results.append(run(scenario))
        outcome = (True, results)
    except BaseException as exc:
        # Sent to the parent, which re-raises it.  One that cannot be
        # pickled ends the worker with nothing written.
        outcome = (False, exc)
    out.write(pickle.dumps(outcome))


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def mean_ci(values) -> tuple[float, float]:
    """Mean and half-width of the 0.95 normal-approximation CI.

    A NaN among the values makes both NaN.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    if n == 0:
        return math.nan, math.nan
    if n == 1:
        return xs[0], math.nan if math.isnan(xs[0]) else 0.0
    mean = _mean(xs)
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (n - 1))
    return mean, 1.96 * std / math.sqrt(n)


def percentile(values, q: float) -> float:
    """The q-th percentile of a non-empty list of finite values: linear
    interpolation between order statistics (Hyndman & Fan type 7), computed
    from the nearer end."""
    xs = sorted(values)
    pos = (len(xs) - 1) * (q / 100)
    lo = math.floor(pos)
    a, b = xs[lo], xs[min(lo + 1, len(xs) - 1)]
    t = pos - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def aggregate_point(point: PointResult) -> dict[str, float]:
    """Collapse one sweep point's runs into the CSV row values."""
    runs = point.metrics
    pdr_mean, pdr_ci = mean_ci([m.pdr for m in runs])
    run_latency_means = [m.latency_mean for m in runs if m.latencies]
    lat_mean, lat_ci = mean_ci(run_latency_means)
    pooled = [sample for m in runs for sample in m.latencies]
    lat_p99 = percentile(pooled, 99) if pooled else math.nan
    row = {
        "sweep_value": point.value,
        "runs": len(runs),
        "pdr_mean": pdr_mean,
        "pdr_ci95": pdr_ci,
        "latency_mean_s": lat_mean,
        "latency_ci95_s": lat_ci,
        "latency_p99_s": lat_p99,
        "overhead_bytes": _mean([m.chirp_bytes for m in runs]),
        "optimal_bound_mean": _mean([m.optimal_bound for m in runs]),
    }
    for cause in DROP_CAUSES:
        row[f"drops_{cause.replace('-', '_')}"] = _mean([m.drops[cause] for m in runs])
    return row


def _format_cell(key: str, value) -> str:
    if key == "runs":
        return str(int(value))
    return f"{value:.6f}"


def emit_csv(results: list[PointResult], path: str) -> None:
    """Write one aggregated row per sweep point; refuses empty results."""
    if not results:
        raise ConfigError("refusing to write an empty result table")
    lines = [",".join(CSV_COLUMNS)]
    for point in results:
        row = aggregate_point(point)
        lines.append(",".join(_format_cell(col, row[col]) for col in CSV_COLUMNS))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


# Positions, newest last, that the study's slope predictor extrapolates.
_SLOPE_SAMPLES = 5


def prediction_accuracy_study(
    speed_mps: float,
    cfg: MobilityConfig,
    duration: float = 60.0,
    trials: int = 10,
    base_seed: int = 7,
    box: Vec3 = Vec3(500.0, 500.0, 250.0),
) -> dict[str, float]:
    """Mean prediction error of the three predictors over random waypoint
    trajectories: waypoint replay, slope extrapolation, and hold-position.

    Each trial steps one node's `MotionTable`.  Predictions made at every
    tick are scored against the true position one horizon later.  Returns
    mean errors in meters keyed by method.

    The waypoint prediction at tick i is the table's row one horizon ahead,
    which is how a run reads its self-prediction (`Simulation._place`), so
    its error is 0.0 by construction: that figure checks replay
    consistency, not an estimate.  The slope prediction extrapolates the
    last `_SLOPE_SAMPLES` rows up to tick i, and hold-position predicts row
    i; those two figures are measured errors.
    """
    require(trials >= 1, "trials", trials, "be >= 1")
    for name, value in (("duration", duration), ("speed_mps", speed_mps)):
        require(math.isfinite(value) and value >= 0, name, value, "be finite and >= 0")
    horizon_ticks = cfg.ticks(cfg.tau)
    ticks = cfg.ticks(duration + cfg.tau)
    errors = {"waypoint": [], "slope": [], "naive": []}
    for trial in range(trials):
        rng = Random(stable_seed(base_seed, "prediction-study", trial))
        state = make_random_waypoint_state(box, speed_mps, duration + cfg.tau, rng, cfg)
        table = MotionTable([state], cfg, ticks)
        rows = [table.row(k)[0] for k in range(ticks + 1)]
        for i in range(len(rows) - horizon_ticks):
            # The waypoint prediction at tick i, read as `Simulation._place` reads it.
            waypoint = actual = rows[i + horizon_ticks]
            errors["waypoint"].append(prediction_error(waypoint, actual))
            recent = rows[max(0, i + 1 - _SLOPE_SAMPLES):i + 1]
            errors["slope"].append(prediction_error(predict_slope(recent, cfg), actual))
            errors["naive"].append(prediction_error(rows[i], actual))
    return {method: _mean(vals) for method, vals in errors.items()}
