"""One round of one workload, in a fresh single-threaded process.

    python3 k3bench/worker.py --workload NAME --seed N [--trace] [--setup-only]
        [--trace-file PATH]

Imports k3lattices from the checkout's `src/`, builds the seeded task list,
runs every task once (the timed phase), then checks every result.  Prints
one JSON line: setup_s, timed_s, tasks, failed, wrong, peak_rss_mb and, when
traced, the per-layer metrics.  `run.py` starts this script; it is not the
benchmark command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, ROOT)
    from k3bench import workloads
    from k3bench.tracer import Tracer

    workload = workloads.load(args.workload)
    sys.path.insert(0, SRC)

    setup_start = time.perf_counter()
    import k3lattices as k3

    if os.path.dirname(os.path.abspath(k3.__file__)) != os.path.join(SRC, "k3lattices"):
        raise SystemExit(f"k3lattices was imported from {k3.__file__}, not from {SRC}")
    tracer = Tracer()
    if args.trace:
        tracer.install()
    tasks = workload.build(k3, args.seed)
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = []
    tracer.on = args.trace
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        tracer.task = i
        try:
            results.append((True, task.run()))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((False, f"{type(exc).__name__}: {exc}"))
    timed_s = time.perf_counter() - start
    tracer.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = wrong = 0
    for task, (ok, result) in zip(tasks, results):
        if not ok:
            failed += 1
            print(f"[{args.workload}] {task.label}: raised {result}", file=sys.stderr)
            continue
        try:
            problem = task.check(result)
        except Exception as exc:  # a check that cannot run is a wrong result
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            wrong += 1
            print(f"[{args.workload}] {task.label}: {problem}", file=sys.stderr)

    out = {"setup_s": setup_s, "timed_s": timed_s, "tasks": len(tasks), "failed": failed,
           "wrong": wrong, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        out["layers"] = tracer.metrics()
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
