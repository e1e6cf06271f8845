"""Output checks applied to every run of every workload.

Each check recomputes what it can from the inputs (payload, bitrate, warmup,
duration, seeds) instead of comparing with stored numbers, and raises
`CheckError` naming the run and the broken property.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random

import numpy as np

from parrot_net.campaign import apply_sweep, derive_run_seed
from parrot_net.channel import compute_r_tx
from parrot_net.kinematics import make_random_waypoint_state, step_random_waypoint
from parrot_net.simulator import stable_seed

DROP_CAUSES = ("no-route", "ttl", "collision", "channel", "queue")
HEADER_BYTES = 28  # IP + UDP, charged per frame
CHIRP_FRAME_BYTES = 40 + HEADER_BYTES
CSV_HEADER = (
    "sweep_value,runs,pdr_mean,pdr_ci95,latency_mean_s,latency_ci95_s,"
    "latency_p99_s,overhead_bytes,optimal_bound_mean,drops_no_route,drops_ttl,"
    "drops_collision,drops_channel,drops_queue"
)
# A latency may undercut one airtime by float rounding only.
LATENCY_SLACK = 1e-9


class CheckError(Exception):
    pass


def _require(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise CheckError(f"{where}: {what}")


def cbr_emission_times(scenario) -> list[float]:
    """Measured CBR emission times: k * interval in [warmup, duration), k >= 1."""
    interval = scenario.payload * 8 / scenario.cbr_rate
    times = []
    k = 1
    while (t := k * interval) < scenario.duration:
        if t >= scenario.warmup:
            times.append(t)
        k += 1
    return times


def check_run(m, scenario, where: str) -> None:
    """Per-run invariants of one RunMetrics against its scenario."""
    _require(tuple(m.drops) == DROP_CAUSES, where, f"drop causes {tuple(m.drops)}")
    _require(m.sent == m.delivered + sum(m.drops.values()), where,
             f"sent {m.sent} != delivered {m.delivered} + drops {m.drops}")
    expected = len(cbr_emission_times(scenario))
    _require(m.sent == expected, where, f"sent {m.sent} != {expected} CBR emissions")
    _require(m.delivered == len(m.latencies), where,
             f"delivered {m.delivered} != {len(m.latencies)} latencies")
    _require(m.sent > 0 and m.pdr == m.delivered / m.sent, where,
             f"pdr {m.pdr} != {m.delivered}/{m.sent}")
    _require(all(a <= b for a, b in zip(m.latencies, m.latencies[1:])), where,
             "latencies not sorted")
    airtime = (scenario.payload + HEADER_BYTES) * 8 / scenario.link_rate
    _require(not m.latencies or m.latencies[0] >= airtime - LATENCY_SLACK, where,
             f"latency {m.latencies[0] if m.latencies else None} below one airtime {airtime}")
    _require(m.chirp_bytes == CHIRP_FRAME_BYTES * m.chirp_frames, where,
             f"chirp_bytes {m.chirp_bytes} != {CHIRP_FRAME_BYTES} * {m.chirp_frames}")
    if scenario.channel == "rural":
        _require(m.pdr <= m.optimal_bound, where,
                 f"rural pdr {m.pdr} above disk bound {m.optimal_bound}")


def _expected_row(point) -> list[float]:
    runs = point.metrics
    n = len(runs)

    def mean_ci(values):
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return math.nan, math.nan
        ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
        return float(arr.mean()), ci

    pdr = mean_ci([m.pdr for m in runs])
    lat = mean_ci([np.mean(m.latencies) for m in runs if m.latencies])
    pooled = np.concatenate([np.asarray(m.latencies, dtype=float) for m in runs])
    p99 = float(np.percentile(pooled, 99)) if pooled.size else math.nan
    row = [point.value, n, *pdr, *lat, p99,
           float(np.mean([m.chirp_bytes for m in runs])),
           float(np.mean([m.optimal_bound for m in runs]))]
    row += [float(np.mean([m.drops[c] for m in runs])) for c in DROP_CAUSES]
    return row


def check_csv(text: str, results, where: str) -> None:
    """The CSV has the frozen header and one row per point whose cells match
    an independent aggregation of the returned RunMetrics to six decimals."""
    lines = text.splitlines()
    _require(lines[:1] == [CSV_HEADER], where, f"CSV header {lines[:1]}")
    _require(len(lines) == 1 + len(results), where,
             f"{len(lines) - 1} CSV rows for {len(results)} points")
    for line, point in zip(lines[1:], results):
        cells = line.split(",")
        expected = _expected_row(point)
        _require(len(cells) == len(expected), where, f"CSV row width {len(cells)}")
        _require(cells[1] == str(expected[1]), where, f"runs cell {cells[1]!r}")
        for col, (cell, value) in enumerate(zip(cells, expected)):
            if col == 1:
                continue
            got = float(cell)
            same = (math.isnan(got) and math.isnan(value)) or (
                abs(got - value) <= 5e-7 + 1e-12 * abs(value))
            _require(same, where, f"CSV row {point.value} column {col}: {cell} vs {value!r}")


def disk_reachability(scenario) -> float:
    """Disk-graph reachability of the measured emissions, recomputed with
    numpy from positions regenerated with the public kinematics functions."""
    n = scenario.nodes
    cfg = scenario.mobility
    sender, receiver = Random(stable_seed(scenario.seed, "traffic")).sample(range(n), 2)
    states = [
        make_random_waypoint_state(
            scenario.box, scenario.speed, scenario.duration,
            Random(stable_seed(scenario.seed, "mobility", i)), cfg)
        for i in range(n)
    ]
    n_ticks = int(scenario.duration / cfg.dt + 1e-9)
    times = np.empty(n_ticks + 1)
    snaps = np.empty((n_ticks + 1, n, 3))
    times[0] = 0.0
    for k in range(n_ticks + 1):
        if k:
            times[k] = k * cfg.dt
            states = [step_random_waypoint(s, cfg) for s in states]
        snaps[k] = [(s.position.x, s.position.y, s.position.z) for s in states]

    r_tx = compute_r_tx(scenario.budget)
    d = snaps[:, :, None, :] - snaps[:, None, :, :]
    adjacent = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
                       + d[..., 2] * d[..., 2]) <= r_tx
    # Transitive closure by repeated squaring of the adjacency per snapshot.
    reach = adjacent.astype(np.int64)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = np.minimum(reach @ reach, 1)
    connected = reach[:, sender, receiver] > 0

    emits = np.asarray(cbr_emission_times(scenario))
    idx = np.maximum(np.searchsorted(times, emits, side="right") - 1, 0)
    return float(connected[idx].sum()) / len(emits)


def check_bound(m, scenario, where: str) -> None:
    expected = disk_reachability(scenario)
    _require(m.optimal_bound == expected, where,
             f"optimal_bound {m.optimal_bound!r} != numpy reachability {expected!r}")


def check_arm(cfg, results, csv_text: str, where: str, bound_check: bool) -> None:
    """Every check on one campaign arm; the reachability recompute covers
    the arm's first run when `bound_check` is set."""
    _require([p.value for p in results] == list(cfg.sweep_values), where,
             "points differ from the sweep values")
    for point in results:
        base = apply_sweep(cfg.scenario, cfg.sweep, point.value)
        _require(len(point.metrics) == cfg.runs, where, f"{len(point.metrics)} runs")
        for i, m in enumerate(point.metrics):
            seed = derive_run_seed(cfg.base_seed, cfg.sweep, point.value, i)
            scenario = replace(base, seed=seed)
            run_where = f"{where} {cfg.sweep}={point.value:g} run {i}"
            check_run(m, scenario, run_where)
            if bound_check:
                check_bound(m, scenario, run_where)
                bound_check = False
    check_csv(csv_text, results, where)
