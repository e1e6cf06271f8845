import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from parrot_net import cli
from parrot_net.campaign import (
    CSV_COLUMNS,
    CampaignConfig,
    aggregate_point,
    apply_sweep,
    derive_run_seed,
    emit_csv,
    mean_ci,
    parse_config,
    run_campaign,
)
from parrot_net.errors import ConfigError

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

    def test_tau_sweep_keeps_horizons_consistent(self):
        cfg = parse_config(None, ["sweep=tau", "sweep_values=0,2.5"])
        for value in cfg.sweep_values:
            sc = apply_sweep(cfg.scenario, "tau", value)
            assert sc.mobility.tau == value


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
