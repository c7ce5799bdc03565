#!/usr/bin/env python3
"""Exact-count check: the deterministic half of the benchmark.

    python3 rcons_bench/check_counts.py [--seed N] [--seconds S]
                                        [--workload NAME ...]

Runs each workload's traced run twice with the same seed (25 s runs, as
in BENCHMARK.json), then requires every count the program's work
determines to read exactly the same in both runs, and to be non-zero
where the workload reaches that layer (zero where it must not). Times are not compared; the
one timing check is that the layers account for the untraced work:
tracing.layer_share, the traced passes' median layer time over the
untraced passes' median time, must lie within 0.9-1.1 in every run. Run
it from the repository root; it builds through run.py.

Left out, because concurrency decides them: on serve-mixed, the cache
hit and miss counts, bounds_decided and decider_runs. Two hits on the
same type that overlap share one single-flight exploration, so how many
profile computations run (and so how many cache reads, bracket decisions
and decider runs happen) depends on thread timing. The memory tier's
entry count does not: every distinct verdict key is stored once.

Exit code 0 when every count repeats, 1 otherwise, 2 when a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly, per workload.
DETERMINISTIC = {
    "profile-golden": [
        "reduction.cache_hits", "reduction.cache_misses",
        "analysis.bounds_decided", "hierarchy.decider_runs",
    ],
    "hunt-shard": [
        "reduction.canonicalize_calls", "reduction.cache_hits",
        "reduction.cache_misses", "analysis.bounds_decided",
        "hierarchy.decider_runs", "campaign.visited", "campaign.profiled",
        "campaign.shard_skipped", "campaign.isomorph_skipped",
        "campaign.useful_share", "campaign.checkpoints",
        "campaign.checkpoint_bytes",
    ],
    "verify-tnn": [
        "valency.safety_states", "valency.liveness_states",
        "valency.max_frontier",
    ],
    "serve-mixed": [
        "serve.memory_tier_entries", "serve.admission_rejected",
    ],
}
# Counts that must be exactly zero (everything else must be positive): no
# request is refused, and on hunt-shard the static bounds settle every
# level (no decider runs) and a sweep meets each verdict key once (no
# cache hits).
ZERO = {
    ("serve-mixed", "serve.admission_rejected"),
    ("hunt-shard", "hierarchy.decider_runs"),
    ("hunt-shard", "reduction.cache_hits"),
}
LAYER_SHARE = (0.9, 1.1)


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"{workload}: traced run failed (exit {proc.returncode})")
        sys.exit(2)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload}: traced run answered wrongly")
        sys.exit(2)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workload", action="append",
                        choices=sorted(DETERMINISTIC))
    args = parser.parse_args()
    ok = True
    for workload in args.workload or list(DETERMINISTIC):
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name in DETERMINISTIC[workload]:
            a, b = first[name], second[name]
            expected_zero = (workload, name) in ZERO
            good = a == b and ((a == 0) if expected_zero else (a > 0))
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload:15s} {name:30s} "
                  f"{a:.17g} {b:.17g}")
        name = "tracing.layer_share"
        a, b = first[name], second[name]
        good = all(LAYER_SHARE[0] <= x <= LAYER_SHARE[1] for x in (a, b))
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {workload:15s} {name:30s} "
              f"{a:.4f} {b:.4f}")
    print("exact counts repeat, layers account for the work" if ok
          else "check FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
