import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrot_net import campaign, cli
from parrot_net.campaign import (
    CSV_COLUMNS,
    SWEEPABLE,
    CampaignConfig,
    aggregate_point,
    apply_sweep,
    derive_run_seed,
    emit_csv,
    mean_ci,
    parse_config,
    percentile,
    prediction_accuracy_study,
    run_campaign,
    usable_cores,
)
from parrot_net.errors import ConfigError
from parrot_net.kinematics import MobilityConfig
from parrot_net.routing import RoutingParams
from parrot_net.simulator import Scenario, run

from conftest import no_child_left

# A 5 m cube: its diagonal, 8.7 m, is below twice the default r_w of 10 m.
FIVE_METRE_BOX = [
    "box_x=5", "box_y=5", "box_z=5", "nodes=2", "duration=1", "warmup=0.5", "runs=1",
]

TINY = [
    "nodes=4", "box_x=200", "box_y=200", "box_z=100",
    "duration=8", "warmup=2", "bitrate=112000", "speed_kmh=50",
]


class TestParseConfig:
    def test_defaults_match_reference_table(self):
        cfg = parse_config()
        sc = cfg.scenario
        assert sc.routing.alpha == 0.5
        assert sc.routing.gamma0 == 0.8
        assert sc.mobility.tau == 2.5
        assert sc.routing.chirp_interval == 0.5
        assert sc.mobility.dt == 0.1
        assert sc.mobility.r_w == 10.0
        assert sc.nodes == 10
        assert sc.duration == 900.0
        assert abs(sc.speed - 50 / 3.6) < 1e-12
        assert sc.cbr_rate == 2e6
        assert (sc.box.x, sc.box.y, sc.box.z) == (500.0, 500.0, 250.0)
        assert cfg.runs == 25

    def test_no_keys_build_the_dataclass_defaults(self):
        cfg = parse_config(None, [])
        assert cfg.scenario == Scenario()
        assert cfg == CampaignConfig(Scenario(), sweep_values=[0.5])

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha = 0.5\nnodes = 6\n")
        cfg = parse_config(str(path), ["alpha=0.7"])
        assert cfg.scenario.routing.alpha == 0.7
        assert cfg.scenario.nodes == 6

    def test_out_of_range_alpha_rejected_with_location(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nalpha = 1.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        message = str(err.value)
        assert "alpha" in message
        assert ":2" in message  # line number

    @pytest.mark.parametrize("overrides, located", [
        (["warmup=900"], ["--set #1 'warmup'", "default 'duration'", "duration 900.0"]),
        (["r_tx=0.5"], ["--set #1 'r_tx'", "budget.r_tx 0.5 must exceed d0"]),
        (["box_x=0"], ["--set #1 'box_x'", "box.x 0.0 must be > 0"]),
        (["dt=0"], ["--set #1 'dt'", "mobility.dt 0.0 must be > 0"]),
        (["alpha=2"], ["--set #1 'alpha'", "routing.alpha 2.0 must lie in (0, 1]"]),
        (["alpha=0.7", "entry_timeout=-1"],
         ["--set #2 'entry_timeout'", "routing.entry_timeout -1.0 must be > 0"]),
        (["sweep=tau", "sweep_values=-1"],
         ["--set #2 'sweep_values'", "--set #1 'sweep'", "mobility.tau -1.0 must be >= 0"]),
        (FIVE_METRE_BOX, ["--set #1 'box_x'", "--set #2 'box_y'", "--set #3 'box_z'",
                          "default 'r_w'", "mobility.r_w 10.0"]),
    ])
    def test_error_names_its_keys_and_their_origins(self, overrides, located):
        with pytest.raises(ConfigError) as err:
            parse_config(None, overrides)
        for part in located:
            assert part in str(err.value)

    def test_box_no_wider_than_r_w_rejected(self, tmp_path):
        # Every point of it lies within r_w of its centre, where a node
        # would draw waypoints forever.
        with pytest.raises(ConfigError):
            parse_config(None, FIVE_METRE_BOX)
        path = tmp_path / "c.cfg"
        path.write_text("r_w = 9\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path), FIVE_METRE_BOX)
        assert f"{path}:1 'r_w'" in str(err.value)
        parse_config(str(path), FIVE_METRE_BOX + ["r_w=4"])

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "warp_factor" in str(err.value)

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(None, ["nodes=many"])
        assert "nodes" in str(err.value)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# a comment\nnodes = 5  # trailing\n\n")
        assert parse_config(str(path)).scenario.nodes == 5

    def test_default_sweep_is_single_point(self):
        cfg = parse_config()
        assert cfg.sweep == "alpha"
        assert cfg.sweep_values == [0.5]

    def test_sweep_values_parsed(self):
        cfg = parse_config(None, ["sweep=tau", "sweep_values=0,1.5,2.5"])
        assert cfg.sweep == "tau"
        assert cfg.sweep_values == [0.0, 1.5, 2.5]

    def test_nodes_sweep_refuses_a_fractional_count(self):
        # int(2.5) would run 2 nodes under a point labelled 2.5.
        with pytest.raises(ConfigError) as err:
            parse_config(None, ["sweep=nodes", "sweep_values=3,2.5"])
        for part in ("--set #2 'sweep_values'", "--set #1 'sweep'", "whole number"):
            assert part in str(err.value)
        cfg = parse_config(None, ["sweep=nodes", "sweep_values=3.0"])
        assert apply_sweep(cfg.scenario, "nodes", cfg.sweep_values[0]).nodes == 3

    def test_tau_sweep_keeps_horizons_consistent(self):
        cfg = parse_config(None, ["sweep=tau", "sweep_values=0,2.5"])
        for value in cfg.sweep_values:
            sc = apply_sweep(cfg.scenario, "tau", value)
            assert sc.mobility.tau == value

    @pytest.mark.parametrize("key, value", [
        ("alpha", 0.3), ("gamma0", 0.7), ("tau", 1.5), ("nodes", 7.0), ("speed_kmh", 72.0),
    ])
    def test_sweep_sets_its_key_as_a_config_line_does(self, key, value):
        swept = apply_sweep(Scenario(), key, value)
        assert repr(swept) == repr(parse_config(None, [f"{key}={value:g}"]).scenario)

    def test_sweep_of_a_key_that_is_not_sweepable_names_sweep(self):
        with pytest.raises(ConfigError, match="^sweep 'dt' must be one of") as err:
            apply_sweep(Scenario(), "dt", 0.1)
        assert err.value.fields == ("sweep",)

    def test_base_seed_is_the_scenario_seed(self):
        assert parse_config(None, ["seed=9"]).base_seed == 9
        cfg = CampaignConfig(Scenario(seed=4), sweep_values=[0.5])
        assert cfg.base_seed == 4
        with pytest.raises(TypeError):
            CampaignConfig(Scenario(), base_seed=4)


def _int_fields(cls) -> list[str]:
    return [name for name, hint in get_type_hints(cls).items() if hint is int]


# Every field annotated `int`, with the path its error names and a function
# that validates the config holding it at a given value.
_INT_FIELDS = (
    [(name, name, lambda name, v: Scenario(**{name: v}).validate())
     for name in _int_fields(Scenario)]
    + [(name, f"routing.{name}",
        lambda name, v: Scenario(routing=RoutingParams(**{name: v})).validate())
       for name in _int_fields(RoutingParams)]
    + [(name, name,
        lambda name, v: CampaignConfig(Scenario(), sweep_values=[0.5], **{name: v}).validate())
       for name in _int_fields(CampaignConfig)]
)


class TestIntFields:
    def test_the_fields_are_found(self):
        paths = {path for _, path, _ in _INT_FIELDS}
        assert {"nodes", "seed", "payload", "routing.initial_ttl", "runs"} <= paths

    @pytest.mark.parametrize("name, path, validate", _INT_FIELDS,
                             ids=[path for _, path, _ in _INT_FIELDS])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_int_rejected_naming_the_field(self, name, path, validate, bad):
        # `struct` refuses a float TTL, `range` a float node or run count.
        with pytest.raises(ConfigError, match=f"^{re.escape(path)} {bad!r} must be an int") as err:
            validate(name, bad)
        assert err.value.fields == (path,)


def _floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


# Values straddle each key's range.  What bounds them otherwise is only what
# a run of 3 nodes and 1 s costs: its ticks (dt), chirps (chirp_interval),
# packets (bitrate) and waypoint draws (speed_kmh).
_VALUES = {
    "nodes": st.integers(-1, 3),
    "duration": _floats(-1, 1),
    "warmup": _floats(-0.5, 1.5),
    "speed_kmh": _floats(-10, 1000),
    "bitrate": _floats(-1e4, 5e4),
    "payload": st.integers(-10, 3000),
    "protocol": st.sampled_from(["parrot", "greedy", "flood", "aodv"]),
    "channel": st.sampled_from(["rural", "urban", "lunar"]),
    "alpha": _floats(-0.5, 1.5),
    "gamma0": _floats(-0.5, 1.5),
    "tau": _floats(-1, 10),
    "chirp_interval": st.one_of(_floats(-1, 0), _floats(1e-3, 2)),
    "dt": st.one_of(_floats(-1, 0), _floats(1e-3, 1)),
    "neighbor_timeout": _floats(-1, 5),
    "entry_timeout": _floats(-1, 5),
    "cohesion_window": _floats(-1, 2),
    "initial_ttl": st.integers(-2, 70_000),
    "r_tx": _floats(-10, 1000),
    "tx_power_dbm": _floats(-100, 100),
    "frequency_hz": _floats(-1e9, 1e10),
    "pathloss_exponent": _floats(-1, 6),
    "nakagami_m": _floats(0, 10),
    "link_rate": _floats(-1e6, 1e8),
    "hop_budget": st.integers(-1, 64),
    "queue_limit": st.integers(-1, 200),
    "forward_jitter": _floats(-0.01, 0.1),
    "seed": st.integers(-(2**70), 2**70),
    "runs": st.integers(-1, 100),
    "sweep": st.sampled_from(SWEEPABLE + ("dt",)),
    "sweep_values": st.lists(_floats(-2, 5), max_size=3).map(
        lambda values: ",".join(map(repr, values))),
}


@st.composite
def _overrides(draw):
    """A few keys, each with a value inside or outside its range."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=4, unique=True))
    return {key: draw(_VALUES[key]) for key in keys}


@st.composite
def _box_and_r_w(draw):
    """r_w, maybe, and a box that is not positive, fits inside 2 r_w, or is
    roomy: a side of at least 2 max(r_w, 1 m).  A roomy box whose other
    sides are thin lies barely above the 2 r_w edge, where a node near the
    centre can draw thousands of waypoints per tick (CHANGES.md records
    the cost of that band)."""
    pairs = {}
    r_w = 10.0
    if draw(st.booleans()):
        drawn = draw(st.one_of(_floats(-5, 0), _floats(0, 50, exclude_min=True)))
        pairs["r_w"] = drawn
        r_w = drawn if drawn > 0 else r_w
    kind = draw(st.sampled_from(["default", "roomy", "roomy", "not positive", "inside 2 r_w"]))
    if kind == "default":
        return pairs
    side = _floats(0, 1e4, exclude_min=True)
    sides = [draw(side), draw(side), draw(side)]
    axis = draw(st.integers(0, 2))
    if kind == "not positive":
        sides[axis] = draw(_floats(-10, 0))
    elif kind == "inside 2 r_w":
        # A margin against rounding: the diagonal stays below 2 r_w.
        sides = [draw(_floats(0, 0.99 * 2 * r_w / math.sqrt(3), exclude_min=True))
                 for _ in range(3)]
    else:
        sides[axis] = draw(_floats(2 * max(r_w, 1.0), 1e4))
    pairs.update(zip(("box_x", "box_y", "box_z"), sides))
    return pairs


class TestRandomOverrides:
    @settings(max_examples=200, deadline=None)
    @given(pairs=_overrides(), box=_box_and_r_w())
    def test_located_error_or_a_run_that_conserves_packets(self, pairs, box):
        overrides = ["nodes=3", "duration=1", "warmup=0.5", "bitrate=112000"] + [
            f"{key}={value}" for key, value in {**pairs, **box}.items()
        ]
        try:
            cfg = parse_config(None, overrides)
        except ConfigError as exc:
            assert re.match(r"(--set #\d+|default)[ :]", str(exc)), str(exc)
            return
        m = run(cfg.scenario)
        assert m.sent == m.delivered + sum(m.drops.values())


class TestSeeds:
    def test_pairwise_distinct_across_campaign(self):
        seeds = set()
        for value in (0.1, 0.5, 0.9):
            for run_index in range(25):
                seeds.add(derive_run_seed(1, "alpha", value, run_index))
        assert len(seeds) == 75

    def test_reproducible_cell_by_cell(self):
        a = derive_run_seed(7, "tau", 2.5, 3)
        assert a == derive_run_seed(7, "tau", 2.5, 3)
        assert a != derive_run_seed(8, "tau", 2.5, 3)

    def test_a_point_is_its_value_as_a_float(self):
        # sweep_values=[6] runs the seeds of [6.0], the CLI's sweep_values=6.
        for value in (6, 6.0, np.float64(6.0)):
            assert derive_run_seed(1, "nodes", value, 0) == derive_run_seed(1, "nodes", 6.0, 0)
        assert derive_run_seed(7, "tau", np.float64(2.5), 3) == derive_run_seed(7, "tau", 2.5, 3)


class TestStatistics:
    def test_mean_ci_single_value(self):
        assert mean_ci([0.7]) == (0.7, 0.0)

    def test_ci_halves_when_runs_quadruple(self):
        # Approximate halving: the ddof=1 correction shifts the ratio a bit.
        pattern = [0.4, 0.6]
        _, ci_small = mean_ci(pattern * 4)    # n = 8
        _, ci_large = mean_ci(pattern * 16)   # n = 32
        assert abs(ci_small / ci_large - 2.0) < 0.15

    def test_ci_matches_normal_approximation(self):
        values = [0.5, 0.6, 0.7, 0.8]
        mean, ci = mean_ci(values)
        assert abs(mean - 0.65) < 1e-12
        expected = 1.96 * np.std(values, ddof=1) / 2.0
        assert abs(ci - expected) < 1e-12

    def test_nan_run_makes_mean_and_ci_nan(self):
        # A run that measures no packet has pdr = nan; the cell must say so,
        # also when it is the point's only run.
        for values in ([math.nan, 1.0], [math.nan]):
            mean, ci = mean_ci(values)
            assert math.isnan(mean) and math.isnan(ci), values

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_percentile_equals_numpy(self, xs):
        assert percentile(xs, 99) == float(np.percentile(xs, 99))

    def test_percentile_equals_numpy_at_every_size(self):
        # (n - 1) * 0.99 and (n - 1) * 99 / 100 round differently at some n.
        rng = Random(5)
        for n in range(1, 1500):
            xs = [rng.expovariate(20.0) for _ in range(n)]
            assert percentile(xs, 99) == float(np.percentile(xs, 99)), n

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_mean_ci_matches_numpy(self, xs):
        mean, ci = mean_ci(xs)
        arr = np.asarray(xs)
        expected_ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
        assert mean == pytest.approx(float(arr.mean()), rel=1e-12, abs=1e-9)
        assert ci == pytest.approx(expected_ci, rel=1e-12, abs=1e-9)


class TestCampaign:
    def test_single_point_runs(self):
        cfg = parse_config(None, TINY + ["runs=2"])
        results = run_campaign(cfg)
        assert len(results) == 1
        assert len(results[0].metrics) == 2

    def test_identical_csv_bytes_on_rerun(self, tmp_path):
        cfg = parse_config(None, TINY + ["runs=2", "sweep=alpha", "sweep_values=0.3,0.7"])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(run_campaign(cfg), str(first))
        emit_csv(run_campaign(cfg), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_trace_setting_writes_one_trace_per_run(self, tmp_path):
        cfg = parse_config(None, TINY + [
            "runs=2", "sweep_values=0.3,0.7", "trace=true", f"out={tmp_path}",
        ])
        run_campaign(cfg)
        names = sorted(path.name for path in tmp_path.glob("trace_*.txt"))
        assert names == [
            f"trace_alpha_{value}_run{k}.txt" for value in ("0.3", "0.7") for k in (0, 1)
        ]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_cell_without_measured_packets_writes_row(self, tmp_path, runs):
        # The warm-up covers the whole run, so no packet is measured.
        cfg = parse_config(None, TINY + [f"runs={runs}", "warmup=7.999"])
        results = run_campaign(cfg)
        assert all(m.sent == 0 for m in results[0].metrics)
        path = tmp_path / "r.csv"
        emit_csv(results, str(path))
        cells = dict(zip(CSV_COLUMNS, path.read_text().splitlines()[1].split(",")))
        assert cells["runs"] == str(runs)
        assert cells["pdr_mean"] == cells["pdr_ci95"] == "nan"
        assert cells["latency_p99_s"] == "nan"

    def test_campaign_conservation(self):
        cfg = parse_config(None, TINY + ["runs=3"])
        for point in run_campaign(cfg):
            for m in point.metrics:
                assert m.sent == m.delivered + sum(m.drops.values())


class TestEmitCsv:
    def make_results(self):
        cfg = parse_config(None, TINY + ["runs=2"])
        return run_campaign(cfg)

    def test_golden_header(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.make_results(), str(path))
        header = path.read_text().splitlines()[0]
        assert header == (
            "sweep_value,runs,pdr_mean,pdr_ci95,latency_mean_s,latency_ci95_s,"
            "latency_p99_s,overhead_bytes,optimal_bound_mean,drops_no_route,"
            "drops_ttl,drops_collision,drops_channel,drops_queue"
        )

    def test_fixed_point_format(self, tmp_path):
        path = tmp_path / "r.csv"
        results = self.make_results()
        row = aggregate_point(results[0])
        emit_csv(results, str(path))
        line = path.read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[0] == f"{row['sweep_value']:.6f}"
        assert cells[1] == "2"
        assert cells[2] == f"{row['pdr_mean']:.6f}"

    def test_round_trip_reemission(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.make_results(), str(path))
        text = path.read_text()
        header, *rows = text.strip().splitlines()
        rebuilt = [header]
        for row in rows:
            cells = row.split(",")
            out = [f"{float(cells[0]):.6f}", str(int(cells[1]))]
            out += [f"{float(c):.6f}" for c in cells[2:]]
            rebuilt.append(",".join(out))
        assert "\n".join(rebuilt) + "\n" == text

    def test_empty_results_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv([], str(tmp_path / "r.csv"))

    def test_unwritable_path_reported(self):
        results = self.make_results()
        with pytest.raises(OSError) as err:
            emit_csv(results, "/nonexistent-dir/r.csv")
        assert "/nonexistent-dir/r.csv" in str(err.value)


class TestCli:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = cli.main(
            ["run"] + [f"--set={kv}" for kv in TINY + ["runs=1"]]
            + ["--out", str(out), "--seed", "9"]
        )
        assert code == 0
        assert (out / "results.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_config_error_exit_one(self, capsys):
        code = cli.main(["run", "--set", "alpha=1.5"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["sweep_values=0.5,1.5"],
        ["sweep=tau", "sweep_values=-1"],
        ["sweep=nodes", "sweep_values=inf"],
        ["sweep=tau", "sweep_values=nan"],
    ])
    def test_bad_sweep_value_exit_one(self, overrides, capsys):
        code = cli.main(["run"] + [f"--set={kv}" for kv in overrides])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "sweep_values" in err

    @pytest.mark.parametrize("pair", [
        "tau=inf", "speed_kmh=inf", "duration=nan", "tx_power_dbm=-inf", "alpha=nan",
    ])
    def test_non_finite_value_exit_one(self, pair, capsys):
        code = cli.main(["run", "--set", pair])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"'{pair.split('=')[0]}'" in err
        assert "not finite" in err

    @pytest.mark.parametrize("argv, origin", [
        (["--runs", "0"], "--runs 'runs'"),
        (["--set", "nodes=4", "--runs", "0"], "--runs 'runs'"),
        (["--set", "runs=0"], "--set #1 'runs'"),
        (["--set", "nodes=4", "--set", "runs=2", "--seed", "3", "--set", "warmup=900"],
         "--set #3 'warmup'"),
    ])
    def test_config_error_names_the_flag_that_set_it(self, argv, origin, capsys):
        code = cli.main(["run"] + argv)
        assert code == 1
        assert f"config error: {origin}" in capsys.readouterr().err

    def test_flag_wins_over_set(self):
        cfg = parse_config(None, ["runs=0"], {"runs": "2"})
        assert cfg.runs == 2

    def test_unknown_key_exit_one(self, capsys):
        code = cli.main(["run", "--set", "bogus=1"])
        assert code == 1

    def test_io_error_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = cli.main(
            ["run"] + [f"--set={kv}" for kv in TINY + ["runs=1"]]
            + ["--out", str(blocker)]
        )
        assert code == 2
        assert "I/O error" in capsys.readouterr().err

    def test_protocol_and_channel_flags(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(
            ["run"] + [f"--set={kv}" for kv in TINY + ["runs=1"]]
            + ["--protocol", "flood", "--channel", "urban", "--out", str(out)]
        )
        assert code == 0

    def test_trace_flag_writes_traces(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(
            ["run"] + [f"--set={kv}" for kv in TINY + ["runs=1"]]
            + ["--out", str(out), "--trace"]
        )
        assert code == 0
        traces = list(Path(out).glob("trace_*.txt"))
        assert len(traces) == 1
        line = traces[0].read_text().splitlines()[0]
        assert len(line.split(",")) == 5


# Two sweep points of two runs: four cells, whose metrics all differ, so a
# cell gathered out of order shows.
PARALLEL = TINY + [
    "nodes=6", "box_x=400", "box_y=400", "runs=2", "sweep_values=0.3,0.7", "trace=true",
]


def _cores(monkeypatch, n):
    """Let campaigns see `n` usable cores, and so start up to `n` workers."""
    monkeypatch.setattr(campaign, "usable_cores", lambda: n)


def _children(pid):
    """The live processes whose parent is `pid`, read from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _alive(int(entry), parent=pid):
            kids.append(int(entry))
    return kids


def _stat(pid):
    """The state, parent and session of `pid` from /proc, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state, ppid, _, session = handle.read().rsplit(")", 1)[1].split()[:4]
    except (OSError, ValueError):
        return None
    return state, int(ppid), int(session)


def _alive(pid, parent=None):
    """Whether `pid` runs (a zombie has ended), with parent `parent` if given."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z" and parent in (None, stat[1])


def _session(sid):
    """The live processes of session `sid`, read from /proc."""
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()
            and (stat := _stat(int(entry))) is not None and stat[0] != "Z" and stat[2] == sid]


@pytest.mark.skipif(usable_cores() < 2, reason="needs 2 usable cores")
class TestParallelCells:
    def run_into(self, out):
        cfg = parse_config(None, PARALLEL + [f"out={out}"])
        out.mkdir()
        results = run_campaign(cfg)
        emit_csv(results, str(out / "r.csv"))
        return results

    def test_workers_change_no_output(self, tmp_path, forks, monkeypatch):
        _cores(monkeypatch, 1)
        serial = self.run_into(tmp_path / "serial")
        assert forks == []
        _cores(monkeypatch, 2)
        parallel = self.run_into(tmp_path / "parallel")
        assert len(forks) == 2
        no_child_left()
        assert parallel == serial
        cells = [m for point in serial for m in point.metrics]
        assert all(a != b for i, a in enumerate(cells) for b in cells[:i])
        names = sorted(path.name for path in (tmp_path / "serial").iterdir())
        assert len(names) == 5
        assert names == sorted(path.name for path in (tmp_path / "parallel").iterdir())
        for name in names:
            assert ((tmp_path / "parallel" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes()), name

    def test_no_more_workers_than_cells(self, forks, monkeypatch):
        _cores(monkeypatch, 8)
        run_campaign(parse_config(None, TINY + ["runs=3"]))
        assert len(forks) == 3
        run_campaign(parse_config(None, TINY + ["runs=1"]))
        assert len(forks) == 3
        no_child_left()

    def test_campaign_returns_metrics_in_scenario_order(self, forks, monkeypatch):
        # Any list of scenarios, not only a config's cells: the acceptance
        # arms run through it.
        _cores(monkeypatch, 2)
        base = parse_config(None, TINY).scenario
        scenarios = [replace(base, seed=seed, nodes=nodes)
                     for seed, nodes in ((3, 4), (1, 5), (2, 4))]
        assert campaign.campaign(scenarios) == [run(sc) for sc in scenarios]
        assert len(forks) == 2
        assert campaign.campaign([]) == []
        no_child_left()

    def test_cells_stay_here_without_fork(self, monkeypatch):
        _cores(monkeypatch, 1)
        expected = run_campaign(parse_config(None, TINY + ["runs=2"]))
        _cores(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert run_campaign(parse_config(None, TINY + ["runs=2"])) == expected

    @pytest.mark.parametrize("failing_run", [0, 1])
    def test_worker_error_keeps_its_type(self, tmp_path, failing_run, monkeypatch):
        # A directory where a run's trace file goes: that run cannot
        # write it.  Run 0 fails in the first worker while the second may
        # still be running; run 1 fails in the second.
        _cores(monkeypatch, 2)
        (tmp_path / f"trace_alpha_0.3_run{failing_run}.txt").mkdir()
        cfg = parse_config(None, PARALLEL + [f"out={tmp_path}"])
        with pytest.raises(IsADirectoryError):
            run_campaign(cfg)
        no_child_left()

    def test_worker_error_exits_two(self, tmp_path, capsys, monkeypatch):
        _cores(monkeypatch, 2)
        (tmp_path / "trace_alpha_0.7_run1.txt").mkdir()
        code = cli.main(["run"] + [f"--set={kv}" for kv in PARALLEL]
                        + ["--out", str(tmp_path)])
        assert code == 2
        assert "I/O error" in capsys.readouterr().err
        no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_failed_fork_leaks_nothing(self, monkeypatch):
        _cores(monkeypatch, 2)
        fork = os.fork

        def second_fails():
            if forks:
                raise BlockingIOError("fork: out of processes")
            forks.append(fork())
            return forks[-1]

        forks = []
        monkeypatch.setattr(os, "fork", second_fails)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_campaign(parse_config(None, TINY + ["runs=2"]))
        no_child_left()
        assert sorted(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_worker_without_a_result_is_an_error(self, forks, monkeypatch):
        # The first worker (two of three cells) ends without writing; the
        # second (one cell) would sleep for a minute unless it is killed.
        _cores(monkeypatch, 2)

        def work(out, cells, parent):
            if len(cells) == 1:
                time.sleep(60)

        monkeypatch.setattr(campaign, "_work", work)
        fds = sorted(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with pytest.raises(RuntimeError) as err:
            run_campaign(parse_config(None, TINY + ["runs=3"]))
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        assert str(err.value) == f"campaign worker {forks[0]} ended without a result"
        no_child_left()
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_urban_cells_return_from_forked_workers(self, forks, monkeypatch):
        # Each urban cell forks its gain helper inside its worker; no helper
        # may keep a worker's result pipe open after the worker ends.
        _cores(monkeypatch, 2)
        base = parse_config(None, TINY + ["channel=urban"]).scenario
        scenarios = [replace(base, seed=seed) for seed in (1, 2, 3)]

        def hung(signum, frame):
            raise TimeoutError("the campaign did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            forked = campaign.campaign(scenarios)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 2
        no_child_left()
        assert forked == [run(sc) for sc in scenarios]

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_of_a_killed_campaign_end(self, tmp_path):
        # Two workers of 30 urban cells, each cell about 0.3 s with its own
        # gain helper: a worker that ran on after its parent was killed
        # would live for seconds more.  One worker is killed with the parent,
        # so its helper is left without a reader.
        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = [sys.executable, "-m", "parrot_net.cli", "run", "--runs", "60",
                "--out", str(tmp_path)]
        argv += [f"--set={kv}" for kv in TINY + ["duration=150", "channel=urban"]]
        proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src},
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            workers, helpers = [], []
            deadline = time.monotonic() + 60
            while not (len(workers) == 2 and helpers) and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(proc.pid)
                helpers = _children(workers[0]) if workers else []
            assert len(workers) == 2 and helpers
            proc.kill()
            os.kill(workers[0], signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 3
            while _session(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _session(proc.pid)
        finally:
            proc.kill()
            proc.wait()
            for pid in _session(proc.pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("name, value", [
    ("trials", 0), ("trials", -1), ("duration", -10.0), ("duration", math.nan),
    ("duration", math.inf), ("speed_mps", -1.0), ("speed_mps", math.nan),
    ("speed_mps", math.inf),
])
def test_prediction_study_refuses_bad_arguments_at_entry(name, value):
    args = {"speed_mps": 10.0, "duration": 1.0, "trials": 1, name: value}
    with pytest.raises(ConfigError, match=f"^{name} ") as err:
        prediction_accuracy_study(cfg=MobilityConfig(), **args)
    assert err.value.fields == (name,)


def test_history_key_is_retired():
    with pytest.raises(ConfigError) as err:
        parse_config(None, ["history=5"])
    assert "unknown key 'history'" in str(err.value)


def test_library_runs_a_campaign_without_numpy(tmp_path):
    code = f"""
import sys
import parrot_net, parrot_net.cli
from parrot_net.campaign import emit_csv, parse_config, run_campaign
cfg = parse_config(None, {TINY + ["runs=2", "duration=3", "warmup=1"]!r})
emit_csv(run_campaign(cfg), {str(tmp_path / "r.csv")!r})
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "r.csv").exists()
