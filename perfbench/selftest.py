"""Self-tests of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Runs a small seeded campaign, confirms that every output check accepts the
genuine output and rejects each corrupted copy, and that two traced passes
report the same counts and leave the RunMetrics digest unchanged.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from parrot_net import campaign  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import OUT_DIR, digest  # noqa: E402

OVERRIDES = [
    "nodes=6", "box_x=300", "box_y=300", "box_z=150", "speed_kmh=70",
    "duration=12", "warmup=4", "bitrate=112000", "sweep=tau",
    "sweep_values=0,2.5", "runs=2", "seed=5",
]


def run_arm(cfg, path: Path):
    points = campaign.run_campaign(cfg)
    campaign.emit_csv(points, str(path))
    return points, path.read_text(encoding="utf-8")


def corrupt_run(points, fn):
    """Deep copy of the points with `fn` applied to the first run."""
    bad = copy.deepcopy(points)
    fn(bad[0].metrics[0])
    return bad


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    cfg = campaign.parse_config(None, OVERRIDES)
    points, csv_text = run_arm(cfg, OUT_DIR / "selftest.csv")
    checks.check_arm(cfg, points, csv_text, "genuine", bound_check=True)
    print("ok genuine output passes every check")

    def bump(key, delta):
        return lambda m: setattr(m, key, getattr(m, key) + delta)

    def drop_one(m):
        m.drops["collision"] += 1

    def rename_cause(m):
        m.drops["lost"] = m.drops.pop("queue")

    def one_more_emission(m):
        m.sent += 1
        m.drops["no-route"] += 1
        m.pdr = m.delivered / m.sent

    def lose_latency(m):
        m.latencies.pop()

    def unsort(m):
        m.latencies[0], m.latencies[-1] = m.latencies[-1], m.latencies[0]

    def too_fast(m):
        m.latencies[0] = 0.0

    def bound_below_pdr(m):
        m.optimal_bound = m.pdr - 1.0 / m.sent

    def bound_off_by_one(m):
        m.optimal_bound += 1.0 / m.sent

    run_corruptions = {
        "dropped count": drop_one,
        "renamed drop cause": rename_cause,
        "sent not the CBR emission count": one_more_emission,
        "delivered != len(latencies)": lose_latency,
        "pdr != delivered / sent": bump("pdr", 1e-9),
        "unsorted latencies": unsort,
        "latency below one airtime": too_fast,
        "chirp bytes": bump("chirp_bytes", 1),
        "rural pdr above the bound": bound_below_pdr,
        "bound differs from numpy reachability": bound_off_by_one,
    }
    failures = 0
    for name, fn in run_corruptions.items():
        bad = corrupt_run(points, fn)
        failures += expect_reject(name, lambda: checks.check_arm(
            cfg, bad, csv_text, name, bound_check=True))

    lines = csv_text.splitlines()
    cells = lines[1].split(",")
    cells[2] = f"{float(cells[2]) + 1e-6:.6f}"
    csv_corruptions = {
        "wrong CSV cell": "\n".join([lines[0], ",".join(cells), *lines[2:]]),
        "wrong CSV header": csv_text.replace("pdr_mean", "pdr_avg", 1),
        "missing CSV row": "\n".join(lines[:-1]),
    }
    for name, text in csv_corruptions.items():
        failures += expect_reject(name, lambda: checks.check_csv(text, points, name))

    base_digest = digest([points])
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced_points, _ = run_arm(cfg, OUT_DIR / "selftest.csv")
        finally:
            tracer.uninstall()
        if digest([traced_points]) != base_digest:
            print("FAIL tracing changed the RunMetrics digest")
            failures += 1
        chirp_frames = sum(m.chirp_frames for p in traced_points for m in p.metrics)
        counts.append({k: v for k, v in tracer.layer_metrics(chirp_frames).items()
                       if not k.endswith("self_s")})
    if counts[0] != counts[1]:
        print(f"FAIL traced counts differ: {counts}")
        failures += 1
    else:
        print(f"ok two traced passes report the same {len(counts[0])} counts; digest unchanged")
    return 1 if failures else 0


def expect_reject(name: str, check) -> int:
    try:
        check()
    except checks.CheckError as exc:
        print(f"ok {name} rejected: {exc}")
        return 0
    print(f"FAIL {name} was accepted")
    return 1


if __name__ == "__main__":
    sys.exit(main())
