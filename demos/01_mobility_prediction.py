"""Compare the position predictors on random waypoint trajectories.

The waypoint-aware predictor replays the exact motion law along the node's
endless waypoint queue, so its error is zero.  The slope predictor only errs
around turns.  Naive hold-position serves as the reference: its error is v * tau.
"""

from parrot_net.campaign import prediction_accuracy_study
from parrot_net.kinematics import MobilityConfig

SPEED_KMH = 50.0

print(f"random waypoint @ {SPEED_KMH:.0f} km/h, horizon sweep")
print(f"{'tau [s]':>8} {'waypoint [m]':>13} {'slope [m]':>10} {'naive [m]':>10} {'v*tau [m]':>10}")
for tau in (0.5, 1.0, 2.5, 5.0):
    cfg = MobilityConfig(tau=tau)
    errors = prediction_accuracy_study(SPEED_KMH / 3.6, cfg, duration=40.0, trials=6)
    print(
        f"{tau:8.1f} {errors['waypoint']:13.3f} {errors['slope']:10.3f}"
        f" {errors['naive']:10.3f} {SPEED_KMH / 3.6 * tau:10.3f}"
    )
