"""Desk-scale prediction-horizon sweep: the campaign runner end to end.

Equivalent CLI invocation:

    parrot-net run --set nodes=10 --set duration=60 --set warmup=15 \\
        --set bitrate=112000 --set speed_kmh=90 --set box_x=350 \\
        --set box_y=350 --set box_z=175 --set sweep=tau \\
        --set sweep_values=0,1.0,2.5 --set runs=5 --out ./sweep_out
"""

import tempfile
from pathlib import Path

from parrot_net.campaign import aggregate_point, emit_csv, parse_config, run_campaign

overrides = [
    "nodes=10", "duration=60", "warmup=15", "bitrate=112000",
    "speed_kmh=90", "box_x=350", "box_y=350", "box_z=175",
    "sweep=tau", "sweep_values=0,1.0,2.5", "runs=5", "seed=1",
]

cfg = parse_config(None, overrides)
results = run_campaign(cfg)

print(f"{'tau [s]':>8} {'PDR':>14} {'latency [ms]':>13} {'bound':>7}")
for point in results:
    row = aggregate_point(point)
    print(
        f"{point.value:8.1f} {row['pdr_mean']:7.3f}±{row['pdr_ci95']:.3f}"
        f" {row['latency_mean_s'] * 1e3:13.3f} {row['optimal_bound_mean']:7.3f}"
    )

with tempfile.TemporaryDirectory(prefix="parrot_sweep_") as tmp:
    out = Path(tmp) / "results.csv"
    emit_csv(results, str(out))
    print(f"\nCSV written to {out}")
    print(out.read_text().splitlines()[0])
