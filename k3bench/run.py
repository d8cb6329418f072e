"""The benchmark command.

    python3 k3bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; k3lattices is imported from its `src/`.
Every round is a fresh process (`worker.py`) that sets up the seeded task
list and runs it once.  Rounds repeat until S seconds have passed, and at
least MIN_ROUNDS times.  With --trace 0 the last stdout line holds the
end-to-end metrics (medians over rounds): setup_s, tasks_per_s, peak_rss_mb.
With --trace 1 the rounds are traced and it holds the per-layer metrics;
span files go to k3bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import METRICS
from workloads import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = tuple(MODULES)
MIN_ROUNDS = 3
SETUP_ONLY_PROCESSES = 10  # extra set-ups, so setup_s is a median of >= 13
WORKER_TIMEOUT_S = 120


def _worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "k3lattices", "__init__.py")):
        print(f"error: no k3lattices sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    # Byte-compile once, so no measured round pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
                   check=True, stdout=subprocess.DEVNULL)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        extra = ["--trace", "--trace-file",
                 os.path.join(RESULTS, f"{tag}-round{len(rounds)}.spans.tsv.gz")] if args.trace else []
        rounds.append(_worker(args.workload, args.seed, *extra))

    attempted = sum(r["tasks"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["wrong"] == 0 for r in rounds)
    if args.trace:
        metrics = {}
        for name, unit, *_ in METRICS:
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": median(r["layers"][name] for r in rounds), "unit": unit}
    else:
        setups = [r["setup_s"] for r in rounds]
        setups += [_worker(args.workload, args.seed, "--setup-only")["setup_s"]
                   for _ in range(SETUP_ONLY_PROCESSES)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": statistics.median(r["tasks"] / r["timed_s"] for r in rounds),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump({"rounds": rounds if not args.trace else
                   [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
