"""One fresh-process pass of one workload; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced

`setup` times the set-up only: importing parrot_net and building and
validating the workload's configs.  `plain` also runs the workload through
`parse_config` -> `run_campaign` -> `emit_csv`, times those calls, checks
every output and digests the exact `RunMetrics`.  `traced` does the same
with the layer wrappers of `tracer.py` installed and writes its spans to
`.perfbench/` in the checkout.  A failed output check exits with code 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
CHECK_FAILED = 3


def digest(arm_results) -> str:
    """SHA-256 over every field of every RunMetrics, floats in hex."""
    h = hashlib.sha256()
    for points in arm_results:
        for point in points:
            for m in point.metrics:
                record = [
                    point.param, float(point.value).hex(), m.sent, m.delivered,
                    m.pdr.hex(), [x.hex() for x in m.latencies], m.chirp_frames,
                    m.chirp_bytes, m.drops, m.optimal_bound.hex(),
                ]
                h.update(json.dumps(record).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args()

    setup_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import parrot_net
    from parrot_net import campaign

    if Path(parrot_net.__file__).resolve().parent != ROOT / "src" / "parrot_net":
        raise SystemExit(f"parrot_net imported from {parrot_net.__file__}, not {ROOT / 'src'}")
    from workloads import arms

    configs = [campaign.parse_config(None, overrides)
               for overrides in arms(args.workload, args.seed)]
    setup_s = time.perf_counter() - setup_start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    csv_paths = [OUT_DIR / f"{args.workload}_arm{i}.csv" for i in range(len(configs))]

    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    arm_results = []
    for cfg, path in zip(configs, csv_paths):
        points = campaign.run_campaign(cfg)
        campaign.emit_csv(points, str(path))
        arm_results.append(points)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    import checks
    try:
        for i, (cfg, points, path) in enumerate(zip(configs, arm_results, csv_paths)):
            checks.check_arm(cfg, points, path.read_text(encoding="utf-8"),
                             f"{args.workload} arm {i}", bound_check=(i == 0))
    except checks.CheckError as exc:
        print(json.dumps({"check_error": str(exc)}))
        return CHECK_FAILED

    runs = [m for points in arm_results for p in points for m in p.metrics]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "runs": len(runs),
        "digest": digest(arm_results),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(sum(m.chirp_frames for m in runs))
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
