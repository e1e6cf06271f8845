"""Golden digest of the simulator's outputs.

One SHA-256 over every field of every `RunMetrics` of a small scenario
matrix (protocol x channel x tau x seed, in an open and a tight box), floats
in hex.  It pins the exact outputs, so a refactor or a speed-up that changes
any run by one bit fails here.  In the tight box every node passes several
waypoints within a run, so the queues' on-demand draws are covered.  A
second digest pins the MAC's drop branches on a saturated matrix, and the
prediction study's figures at the criterion-5 point are pinned the same way.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from itertools import product

from parrot_net.campaign import prediction_accuracy_study
from parrot_net.kinematics import MobilityConfig, Vec3
from parrot_net.simulator import DROP_CAUSES, Scenario, run

GOLDEN = "1b90b2486b0395b12af484b4a1ac99cb98d0da34ae30f16f618ba61ebba085d7"
MAC_GOLDEN = "2eba2fef53f7a882383d519d24721bb76a23bfb699a8a4f55c133fd07243a7f7"

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


# (queue_limit, retry_limit, retry_backoff, forward_jitter, hop_budget): a
# queue of 2, no retry and a budget of 2 hops, and the defaults with a queue
# of 8.  The zero delays put retries and chirp forwards at the timestamp
# that scheduled them, so their order is decided by rank alone.
MAC_SETTINGS = ((2, 0, 0.0, 0.0, 2), (8, 3, 1e-3, 5e-3, 32))


def mac_scenarios():
    """Six nodes offering 2 Mbit/s to a 2.5 Mbit/s link: queues fill, frames
    collide and retries run out, so every drop cause occurs."""
    for protocol, channel, mac, seed in product(
        ("parrot", "greedy", "flood"), ("rural", "urban"), MAC_SETTINGS, (1, 2)
    ):
        queue_limit, retry_limit, retry_backoff, forward_jitter, hop_budget = mac
        yield Scenario(
            nodes=6, box=Vec3(300.0, 300.0, 150.0), speed=20.0, duration=4.0, warmup=1.0,
            cbr_rate=2e6, link_rate=2.5e6, protocol=protocol, channel=channel, seed=seed,
            queue_limit=queue_limit, retry_limit=retry_limit, retry_backoff=retry_backoff,
            forward_jitter=forward_jitter, hop_budget=hop_budget,
        )


def digest(runs, drops: Counter | None = None) -> str:
    """SHA-256 over the `RunMetrics` of each scenario in `runs`; their drop
    counts are added to `drops` if given."""
    h = hashlib.sha256()
    for sc in runs:
        m = run(sc)
        if drops is not None:
            drops.update(m.drops)
        record = [
            m.sent, m.delivered, m.pdr.hex(), [x.hex() for x in m.latencies],
            m.chirp_frames, m.chirp_bytes, m.drops, m.optimal_bound.hex(),
        ]
        h.update(json.dumps(record).encode())
    return h.hexdigest()


def test_run_metrics_match_golden_digest():
    assert digest(scenarios()) == GOLDEN


def test_saturated_mac_matches_golden_digest():
    drops = Counter()
    assert digest(mac_scenarios(), drops) == MAC_GOLDEN
    assert all(drops[cause] > 0 for cause in DROP_CAUSES), drops


def test_prediction_study_matches_golden_figures():
    errors = prediction_accuracy_study(50 / 3.6, MobilityConfig(tau=2.5), duration=60.0,
                                       trials=10)
    assert {method: e.hex() for method, e in errors.items()} == {
        "naive": "0x1.0c3ae2722a10ep+5",
        "slope": "0x1.c7e661e80ee3bp+1",
        "waypoint": "0x0.0p+0",
    }
