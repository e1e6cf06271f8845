"""Golden digest of the simulator's outputs.

One SHA-256 over every field of every `RunMetrics` of a small scenario
matrix (protocol x channel x tau x seed, in an open and a tight box), floats
in hex.  It pins the exact outputs, so a refactor or a speed-up that changes
any run by one bit fails here.  In the tight box every node passes several
waypoints within a run, so the queues' on-demand draws are covered.  The
prediction study's figures at the criterion-5 point are pinned the same way.
"""

import hashlib
import json
from dataclasses import replace
from itertools import product

from parrot_net.campaign import prediction_accuracy_study
from parrot_net.kinematics import MobilityConfig, Vec3
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


def test_prediction_study_matches_golden_figures():
    errors = prediction_accuracy_study(50 / 3.6, MobilityConfig(tau=2.5), duration=60.0,
                                       trials=10)
    assert {method: e.hex() for method, e in errors.items()} == {
        "naive": "0x1.0c3ae2722a10ep+5",
        "slope": "0x1.c7e661e80ee3bp+1",
        "waypoint": "0x0.0p+0",
    }
