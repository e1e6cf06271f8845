"""Golden digest of the urban fading branches.

`tests/test_golden_digest.py` runs urban scenarios at the default
`nakagami_m` of 2.0 only, which takes one branch of the gamma sampler.  This
digest adds m = 0.75 (the m < 1 branch), m = 1.0 (the exponential branch)
and m = 3.0 (Cheng's branch at another shape), each under parrot and flood
at two seeds, so a change to how fading gains are drawn or compared that
moves any run by one bit fails here.
"""

from dataclasses import replace
from itertools import product

from parrot_net.kinematics import Vec3
from parrot_net.simulator import Scenario

from test_golden_digest import digest

GOLDEN_FADING = "ec79dca329a684eaffe1e4e0356ebe353024c134649cc6dc419da755be2354f3"


def scenarios():
    for m, protocol, seed in product((0.75, 1.0, 3.0), ("parrot", "flood"), (1, 2)):
        sc = Scenario(
            nodes=5, box=Vec3(300.0, 300.0, 150.0), speed=20.0, duration=8.0,
            warmup=2.0, cbr_rate=112000, protocol=protocol, channel="urban", seed=seed,
        )
        yield replace(sc, budget=replace(sc.budget, nakagami_m=m))


def test_urban_fading_branches_match_golden_digest():
    assert digest(scenarios()) == GOLDEN_FADING
