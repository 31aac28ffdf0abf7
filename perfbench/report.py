#!/usr/bin/env python3
"""Print every benchmark metric for every workload, with units.

Run from the repository root::

    python3 perfbench/report.py [--seed 0]

For each workload this runs ``run.py`` twice in fresh processes, untraced
and traced, one after the other.  It prints each run's notes (rounds,
blocks, the order-6 projections), the end-to-end metrics, ``failed_frac``
(failed campaigns over attempted ones), the tracing overhead (untraced minus
traced ``digraphs_per_s``) and the layers with the most self time.  It exits
non-zero if any run failed or any check did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: layers listed per workload, by self time
TOP_LAYERS = 8


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        sys.exit(f"{workload} (trace {trace}) exited {child.returncode}:\n{child.stderr}")
    sys.stderr.write(child.stderr)
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    all_correct = True
    for workload in names:
        notes, plain = run(workload, args.seed, seconds, 0)
        traced_notes, traced = run(workload, args.seed, seconds, 1)
        print(f"== {workload} (seed {args.seed}, {seconds} s)")
        for line in notes + traced_notes:
            print(f"   {line}")
        for name, metric in plain["metrics"].items():
            print(f"   {name:<16} {metric['value']:>14.6g} {metric['unit']}")
        for result in (plain, traced):
            all_correct &= result["correct"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"   {'failed_frac':<16} {failed / attempted:>14.6g} "
              f"({failed} of {attempted} campaigns)")
        layers = traced["metrics"]
        overhead = plain["metrics"]["digraphs_per_s"]["value"] \
            - layers["traced.digraphs_per_s"]["value"]
        print(f"   {'trace overhead':<16} {overhead:>14.6g} 1/s")
        own = sorted(
            ((m["value"], name[: -len(".self_s")]) for name, m in layers.items()
             if name.endswith(".self_s")),
            reverse=True,
        )
        total = sum(value for value, _ in own) or 1.0
        for value, name in own[:TOP_LAYERS]:
            calls = layers[f"{name}.calls"]["value"]
            print(f"   self {name:<40} {value:9.4f} s/round {100 * value / total:5.1f}%"
                  f" {calls:12.0f} calls/round")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
