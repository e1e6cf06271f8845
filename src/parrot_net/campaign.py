"""Campaign orchestration: config parsing, parameter sweeps, statistics, CSV.

A campaign runs one scenario across a sweep axis with several seeded runs
per point and aggregates mean values with 0.95 normal-approximation
confidence intervals.  Output is a pure function of the configuration, base
seed included.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from random import Random

import numpy as np

from .channel import budget_for_radius
from .errors import ConfigError
from .kinematics import (
    MobilityConfig,
    Vec3,
    make_random_waypoint_state,
    predict_slope,
    predict_waypoint,
    prediction_error,
    step_random_waypoint,
)
from .routing import RoutingParams
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


@dataclass
class CampaignConfig:
    scenario: Scenario
    sweep: str = "alpha"
    sweep_values: list[float] = field(default_factory=list)
    runs: int = 25
    base_seed: int = 1
    out_dir: str = "."
    trace: bool = False

    def validate(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.sweep not in SWEEPABLE:
            raise ConfigError(f"unknown sweep parameter '{self.sweep}'")
        if not self.sweep_values:
            raise ConfigError("sweep_values must not be empty")
        for value in self.sweep_values:
            try:
                apply_sweep(self.scenario, self.sweep, value).validate()
            except ValueError as exc:
                raise ConfigError(
                    f"bad value {value:g} in sweep_values for '{self.sweep}': {exc}"
                ) from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_values(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
    return values


def _in(lo, hi, lo_open=False, hi_open=False):
    def check(x):
        ok = (x > lo if lo_open else x >= lo) and (x < hi if hi_open else x <= hi)
        if not ok:
            left = "(" if lo_open else "["
            right = ")" if hi_open else "]"
            raise ValueError(f"{x} out of {left}{lo}, {hi}{right}")
    return check


def _choice(*options):
    def check(x):
        if x not in options:
            raise ValueError(f"{x!r} not one of {options}")
    return check


_INF = math.inf

# key -> (parser, default, constraint) — defaults reproduce the evaluated
# configuration.
_KEYS: dict[str, tuple] = {
    "nodes": (int, 10, _in(2, _INF)),
    "box_x": (float, 500.0, _in(0, _INF, lo_open=True)),
    "box_y": (float, 500.0, _in(0, _INF, lo_open=True)),
    "box_z": (float, 250.0, _in(0, _INF, lo_open=True)),
    "speed_kmh": (float, 50.0, _in(0, _INF)),
    "duration": (float, 900.0, _in(0, _INF, lo_open=True)),
    "warmup": (float, 30.0, _in(0, _INF)),
    "bitrate": (float, 2e6, _in(0, _INF, lo_open=True)),
    "payload": (int, 1400, _in(1, _INF)),
    "protocol": (str, "parrot", _choice("parrot", "greedy", "flood")),
    "channel": (str, "rural", _choice("rural", "urban")),
    "alpha": (float, 0.5, _in(0, 1, lo_open=True)),
    "gamma0": (float, 0.8, _in(0, 1, lo_open=True)),
    "tau": (float, 2.5, _in(0, _INF)),
    "chirp_interval": (float, 0.5, _in(0, _INF, lo_open=True)),
    "dt": (float, 0.1, _in(0, _INF, lo_open=True)),
    "r_w": (float, 10.0, _in(0, _INF, lo_open=True)),
    "history": (int, 5, _in(2, _INF)),
    "neighbor_timeout": (float, 1.5, _in(0, _INF, lo_open=True)),
    "entry_timeout": (float, 3.0, _in(0, _INF, lo_open=True)),
    "cohesion_window": (float, 0.5, _in(0, _INF, lo_open=True)),
    "initial_ttl": (int, 16, _in(1, 65535)),
    "r_tx": (float, 150.0, _in(0, _INF, lo_open=True)),
    "tx_power_dbm": (float, 20.0, None),
    "frequency_hz": (float, 2.4e9, _in(0, _INF, lo_open=True)),
    "pathloss_exponent": (float, 2.75, _in(0, _INF, lo_open=True)),
    "nakagami_m": (float, 2.0, _in(0.5, _INF)),
    "link_rate": (float, 24e6, _in(0, _INF, lo_open=True)),
    "hop_budget": (int, 32, _in(1, _INF)),
    "queue_limit": (int, 100, _in(1, _INF)),
    "forward_jitter": (float, 5e-3, _in(0, _INF)),
    "seed": (int, 1, None),
    "runs": (int, 25, _in(1, _INF)),
    "sweep": (str, "alpha", _choice(*SWEEPABLE)),
    "sweep_values": (_parse_values, None, None),
    "out": (str, ".", None),
    "trace": (_parse_bool, False, None),
}


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


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> CampaignConfig:
    """Build a CampaignConfig from a key = value file plus override pairs.

    Overrides ("key=value" strings, e.g. from repeated --set flags) win over
    file entries.  Unknown keys and malformed values are rejected with a
    diagnostic naming the key and its origin.
    """
    entries: list[tuple[str, str, str]] = []
    if path is not None:
        entries.extend(_read_config_lines(path))
    for i, pair in enumerate(overrides or [], start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{i}: expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        entries.append((key.strip(), value.strip(), f"--set #{i}"))

    values = {key: spec[1] for key, spec in _KEYS.items()}
    for key, text, where in entries:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        parser, _, constraint = _KEYS[key]
        try:
            parsed = parser(text)
            if constraint is not None:
                constraint(parsed)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for '{key}': {exc}") from None
        values[key] = parsed

    try:
        scenario = _build_scenario(values)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    sweep_values = values["sweep_values"]
    if sweep_values is None:
        sweep_values = [_current_sweep_value(values, values["sweep"])]
    cfg = CampaignConfig(
        scenario=scenario,
        sweep=values["sweep"],
        sweep_values=sweep_values,
        runs=values["runs"],
        base_seed=values["seed"],
        out_dir=values["out"],
        trace=values["trace"],
    )
    cfg.validate()
    return cfg


def _current_sweep_value(values: dict, sweep: str) -> float:
    if sweep not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{sweep}'")
    return float(values[sweep])


def _build_scenario(v: dict) -> Scenario:
    mobility = MobilityConfig(dt=v["dt"], tau=v["tau"], r_w=v["r_w"], h=v["history"])
    routing = RoutingParams(
        alpha=v["alpha"],
        gamma0=v["gamma0"],
        chirp_interval=v["chirp_interval"],
        neighbor_timeout=v["neighbor_timeout"],
        entry_timeout=v["entry_timeout"],
        cohesion_window=v["cohesion_window"],
        initial_ttl=v["initial_ttl"],
    )
    budget = budget_for_radius(
        v["r_tx"],
        tx_power_dbm=v["tx_power_dbm"],
        frequency_hz=v["frequency_hz"],
        path_loss_exponent=v["pathloss_exponent"],
        nakagami_m=v["nakagami_m"],
    )
    scenario = Scenario(
        nodes=v["nodes"],
        box=Vec3(v["box_x"], v["box_y"], v["box_z"]),
        speed=v["speed_kmh"] / 3.6,
        duration=v["duration"],
        warmup=v["warmup"],
        cbr_rate=v["bitrate"],
        payload=v["payload"],
        protocol=v["protocol"],
        channel=v["channel"],
        mobility=mobility,
        routing=routing,
        budget=budget,
        seed=v["seed"],
        link_rate=v["link_rate"],
        hop_budget=v["hop_budget"],
        queue_limit=v["queue_limit"],
        forward_jitter=v["forward_jitter"],
    )
    scenario.validate()
    return scenario


def apply_sweep(scenario: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept parameter applied."""
    if param == "alpha":
        return replace(scenario, routing=replace(scenario.routing, alpha=value))
    if param == "gamma0":
        return replace(scenario, routing=replace(scenario.routing, gamma0=value))
    if param == "tau":
        return replace(scenario, mobility=replace(scenario.mobility, tau=value))
    if param == "nodes":
        return replace(scenario, nodes=int(value))
    if param == "speed_kmh":
        return replace(scenario, speed=value / 3.6)
    raise ConfigError(f"unknown sweep parameter '{param}'")


def derive_run_seed(base_seed: int, param: str, value: float, run_index: int) -> int:
    """Per-cell seed: base XOR stable point hash, reproducible cell by cell."""
    return (base_seed ^ stable_seed(param, value, run_index)) & (2**63 - 1)


@dataclass
class PointResult:
    param: str
    value: float
    metrics: list[RunMetrics]


def run_campaign(cfg: CampaignConfig) -> list[PointResult]:
    """Execute every (sweep value, run index) cell and return per-point runs.

    With `cfg.trace` set, each run writes its position trace into
    `cfg.out_dir`.
    """
    cfg.validate()
    results = []
    for value in cfg.sweep_values:
        base = apply_sweep(cfg.scenario, cfg.sweep, value)
        metrics = []
        for run_index in range(cfg.runs):
            seed = derive_run_seed(cfg.base_seed, cfg.sweep, value, run_index)
            scenario = replace(base, seed=seed)
            if cfg.trace:
                name = f"trace_{cfg.sweep}_{value:g}_run{run_index}.txt"
                scenario = replace(scenario, trace_path=os.path.join(cfg.out_dir, name))
            metrics.append(run(scenario))
        results.append(PointResult(cfg.sweep, value, metrics))
    return results


def mean_ci(values) -> tuple[float, float]:
    """Mean and half-width of the 0.95 normal-approximation CI."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    mean = float(arr.mean())
    ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, ci


def aggregate_point(point: PointResult) -> dict[str, float]:
    """Collapse one sweep point's runs into the CSV row values."""
    runs = point.metrics
    pdr_mean, pdr_ci = mean_ci([m.pdr for m in runs])
    run_latency_means = [m.latency_mean for m in runs if m.latencies]
    lat_mean, lat_ci = mean_ci(run_latency_means)
    pooled = [sample for m in runs for sample in m.latencies]
    lat_p99 = float(np.percentile(pooled, 99)) if pooled else math.nan
    row = {
        "sweep_value": point.value,
        "runs": len(runs),
        "pdr_mean": pdr_mean,
        "pdr_ci95": pdr_ci,
        "latency_mean_s": lat_mean,
        "latency_ci95_s": lat_ci,
        "latency_p99_s": lat_p99,
        "overhead_bytes": float(np.mean([m.chirp_bytes for m in runs])),
        "optimal_bound_mean": float(np.mean([m.optimal_bound for m in runs])),
    }
    for cause in DROP_CAUSES:
        row[f"drops_{cause.replace('-', '_')}"] = float(
            np.mean([m.drops[cause] for m in runs])
        )
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

    Predictions made at every tick are scored against the true position one
    horizon later.  Returns mean errors in meters keyed by method.
    """
    horizon_ticks = int(cfg.tau / cfg.dt + 1e-9)
    errors = {"waypoint": [], "slope": [], "naive": []}
    for trial in range(trials):
        rng = Random(stable_seed(base_seed, "prediction-study", trial))
        state = make_random_waypoint_state(box, speed_mps, duration + cfg.tau, rng, cfg)
        states = [state]
        ticks = int((duration + cfg.tau) / cfg.dt + 1e-9)
        for _ in range(ticks):
            state = step_random_waypoint(state, cfg)
            states.append(state)
        for i in range(0, len(states) - horizon_ticks):
            current = states[i]
            actual = states[i + horizon_ticks].position
            errors["waypoint"].append(
                prediction_error(predict_waypoint(current, cfg), actual)
            )
            errors["slope"].append(
                prediction_error(predict_slope(current, cfg), actual)
            )
            errors["naive"].append(prediction_error(current.position, actual))
    return {method: float(np.mean(vals)) for method, vals in errors.items()}
