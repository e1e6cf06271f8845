"""Golden digest of the simulator's outputs.

One SHA-256 over every field of every `RunMetrics` of a small scenario
matrix (protocol x channel x tau x seed, in an open and a tight box), floats
in hex.  It pins the exact outputs, so a refactor or a speed-up that changes
any run by one bit fails here.  The tight box is small enough that waypoint
queues run out mid-run, so the slope fallback of self-prediction is covered.
"""

import hashlib
import json
from dataclasses import replace
from itertools import product

from parrot_net.kinematics import Vec3
from parrot_net.simulator import Scenario, run

GOLDEN = "1b90b2486b0395b12af484b4a1ac99cb98d0da34ae30f16f618ba61ebba085d7"

BOXES = (Vec3(500.0, 500.0, 250.0), Vec3(60.0, 60.0, 30.0))


def scenarios():
    for box, protocol, channel, tau, seed in product(
        BOXES, ("parrot", "greedy", "flood"), ("rural", "urban"), (0.0, 2.5), (1, 2)
    ):
        sc = Scenario(
            nodes=5, box=box, speed=20.0, duration=8.0, warmup=2.0,
            cbr_rate=112000, protocol=protocol, channel=channel, seed=seed,
        )
        yield replace(sc, mobility=replace(sc.mobility, tau=tau))


def digest(runs) -> str:
    """SHA-256 over the `RunMetrics` of each scenario in `runs`."""
    h = hashlib.sha256()
    for sc in runs:
        m = run(sc)
        record = [
            m.sent, m.delivered, m.pdr.hex(), [x.hex() for x in m.latencies],
            m.chirp_frames, m.chirp_bytes, m.drops, m.optimal_bound.hex(),
        ]
        h.update(json.dumps(record).encode())
    return h.hexdigest()


def test_run_metrics_match_golden_digest():
    assert digest(scenarios()) == GOLDEN
