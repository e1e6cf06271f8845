"""Workload definitions: each workload is a list of campaign arms.

An arm is a list of `key=value` overrides for `parrot_net.campaign.parse_config`
(the same strings `parrot-net run --set` takes).  The benchmark's `--seed` is
the base seed of every arm, so the seeded run seeds follow from it through
`derive_run_seed`, exactly as in a CLI campaign.
"""

from __future__ import annotations

# Criterion-6/7 campaign point of the acceptance gate, at a shorter run
# length: 10 nodes, 375 x 375 x 187.5 m, 90 km/h, 224 kb/s, rural.
_SWEEP67 = [
    "nodes=10", "box_x=375", "box_y=375", "box_z=187.5", "speed_kmh=90",
    "duration=90", "warmup=30", "bitrate=224000", "channel=rural",
    "sweep=tau", "runs=1",
]

WORKLOADS: dict[str, list[list[str]]] = {
    "sweep67": [
        _SWEEP67 + ["protocol=parrot", "sweep_values=0,2.5"],
        _SWEEP67 + ["protocol=greedy", "sweep_values=2.5"],
    ],
    # 40 nodes in the reference box: the chirp flood dominates.  Four short
    # runs, because the flood's cost follows each seed's topology.
    "dense40": [[
        "nodes=40", "speed_kmh=50", "duration=3", "warmup=1.5",
        "bitrate=112000", "channel=rural", "protocol=parrot", "runs=4",
    ]],
    # The reference traffic (10 nodes, 50 km/h, 2 Mbit/s) under urban
    # fading, in the criterion-6/7 box, where the sender nearly always has
    # a route, so the data path's work varies little from seed to seed.
    "urban2m": [[
        "nodes=10", "box_x=375", "box_y=375", "box_z=187.5", "speed_kmh=50",
        "duration=120", "warmup=30", "bitrate=2000000", "channel=urban",
        "protocol=parrot", "runs=1",
    ]],
}


def arms(workload: str, seed: int) -> list[list[str]]:
    """The override lists of one workload, seeded with the base seed."""
    return [overrides + [f"seed={seed}"] for overrides in WORKLOADS[workload]]
