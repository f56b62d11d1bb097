"""Benchmark of the nsplan planner, its metrics and its CLI.

    python3 perfbench/run.py --workload plan-translate --seed 1 --seconds 15 --trace 0

Generates seeded inputs under perfbench/out/, runs one workload against
the package in src/ of the checkout this file sits in, checks every
output, and prints the metrics: human-readable lines first, then one
JSON object as the last line. ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones and writes the recorded spans to
perfbench/out/trace-<workload>.tsv. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("plan-translate", "plan-retrieve", "eval-pairs")


def use_checkout():
    """Import nsplan and the test oracles from this checkout, never from
    an installed copy; stop when the checkout has no source tree."""
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    if not (os.path.isfile(os.path.join(src, "nsplan", "__init__.py"))
            and os.path.isfile(os.path.join(tests, "oracles.py"))):
        raise SystemExit(f"perfbench: {ROOT} has no src/nsplan and tests/oracles.py to benchmark")
    sys.path[:0] = [src, tests]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    use_checkout()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    trace_path = os.path.join(OUT, f"trace-{args.workload}.tsv")
    try:
        run = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, trace_path
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in run.info:
        print(line)
    print(f"failed_ratio {len(run.bad) / max(run.attempted, 1):.6f} 1  ({len(run.bad)}/{run.attempted})")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        for name, (value, unit) in run.metrics.items():
            print(f"{name} {value:.6g} {unit}")
    correct = not run.bad
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
