"""Command line entry point.

    parrot-net run [--config FILE] [--set key=value]... [--seed N] [--runs N]
                   [--protocol parrot|greedy|flood] [--channel rural|urban]
                   [--out DIR] [--trace]

The choices of `--protocol` and `--channel` are `simulator.PROTOCOLS` and
`channel.CHANNEL_MODELS`.  A campaign's seeded runs execute side by side in
worker processes (see `campaign`), one per usable core; the output does
not depend on how many there are.

Exit codes: 0 success, 1 configuration error, 2 I/O error.  A config file
that cannot be read is an I/O error, one that is not UTF-8 text a
configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .campaign import aggregate_point, emit_csv, parse_config, run_campaign
from .channel import CHANNEL_MODELS
from .errors import ConfigError
from .simulator import PROTOCOLS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parrot-net")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a simulation campaign")
    run_p.add_argument("--config", help="key = value configuration file")
    run_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one configuration key (repeatable, wins over the file)",
    )
    run_p.add_argument("--seed", type=int, help="campaign base seed")
    run_p.add_argument("--runs", type=int, help="runs per sweep point")
    run_p.add_argument("--protocol", choices=PROTOCOLS)
    run_p.add_argument("--channel", choices=CHANNEL_MODELS)
    run_p.add_argument("--out", help="output directory for results.csv")
    run_p.add_argument("--trace", action="store_true",
                       help="write per-run position traces next to the CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    # Each flag sets the configuration key of its name.
    flags = {
        flag: str(getattr(args, flag))
        for flag in ("seed", "runs", "protocol", "channel", "out")
        if getattr(args, flag) is not None
    }
    if args.trace:
        flags["trace"] = "true"

    try:
        cfg = parse_config(args.config, args.set, flags)
        csv_path = os.path.join(cfg.out_dir, "results.csv")
        os.makedirs(cfg.out_dir, exist_ok=True)
        results = run_campaign(cfg)
        emit_csv(results, csv_path)
    except ConfigError as exc:
        print(f"parrot-net: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"parrot-net: I/O error: {exc}", file=sys.stderr)
        return 2

    for point in results:
        row = aggregate_point(point)
        print(
            f"{cfg.sweep}={point.value:g}: pdr={row['pdr_mean']:.4f}"
            f"±{row['pdr_ci95']:.4f} latency={row['latency_mean_s'] * 1e3:.3f}ms"
            f" bound={row['optimal_bound_mean']:.4f} ({len(point.metrics)} runs)"
        )
    print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
