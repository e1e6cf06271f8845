"""parrot-net benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload sweep67|dense40|urban2m --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Rounds run one at a time, each in a fresh `worker.py` process, until
`--seconds` have passed (at least two rounds, three when traced).  Each round is
preceded by one set-up-only process, so `setup_s` is a median over twice as
many samples.  Every round checks its outputs and digests its `RunMetrics`;
all rounds of one session must agree on the digest.

With `--trace 0` every round is plain and the end-to-end metrics are
reported.  With `--trace 1` rounds alternate traced and plain (traced
first, at least two traced), and the per-layer metrics of BENCHMARK.json
are reported: counts, which must repeat exactly between traced rounds, and
median self times; `trace.overhead_s` is the median traced `wall_s` minus
the median plain one.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CHECK_FAILED
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ROUNDS = {0: 2, 1: 3}
# Start no round after this many seconds, so a session stays well inside
# its 180 s limit.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


class CheckFailed(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == CHECK_FAILED and lines:
        raise CheckFailed(json.loads(lines[-1])["check_error"])
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def declared_units(group: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def measure(workload: str, seed: int, seconds: float, trace: int,
            rounds: list[dict]) -> dict[str, float]:
    """Run the session's rounds, appending each to `rounds`, and return
    its metrics."""
    setups: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS[trace] and (elapsed >= seconds or elapsed >= LAST_START_S):
            break
        mode = "traced" if trace and len(rounds) % 2 == 0 else "plain"
        setups.append(run_worker(workload, seed, "setup")["setup_s"])
        res = run_worker(workload, seed, mode)
        res["mode"] = mode
        rounds.append(res)
        setups.append(res["setup_s"])
        print(f"round {len(rounds)} {mode}: wall_s={res['wall_s']:.4f} "
              f"cpu_s={res['cpu_s']:.4f} setup_s={res['setup_s']:.4f} "
              f"peak_rss_mib={res['peak_rss_mib']:.2f} runs={res['runs']} "
              f"digest={res['digest'][:16]}", flush=True)

    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        raise BenchError(f"RunMetrics digests differ between rounds: {sorted(digests)}")
    print(f"digest {workload} seed {seed} {digests.pop()}")

    plain = [r for r in rounds if r["mode"] == "plain"]
    metrics: dict[str, float] = {}
    if trace:
        traced = [r for r in rounds if r["mode"] == "traced"]
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name.endswith("self_s"):
                metrics[name] = statistics.median(values)
            elif len(set(values)) != 1:
                raise BenchError(f"traced rounds disagree on {name}: {values}")
            else:
                metrics[name] = values[0]
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
    else:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in plain)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "parrot_net" / "__init__.py").is_file():
        print(f"error: no parrot_net sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    rounds: list[dict] = []
    try:
        metrics = measure(args.workload, args.seed, args.seconds, args.trace, rounds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, sum(r["runs"] for r in rounds)),
                          "failed": 0, "metrics": {}}))
        return 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["runs"] for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
