#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, judged by BENCHMARK.json.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload lemma-suite \\
        --pairs 10 --seconds 30 --seed 3

Pair i runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once in each tree, each in a fresh interpreter with that tree as its working
directory; the parent goes first in even pairs and the change in odd ones,
so a slow spell of a shared host reaches both sides alike.  Before the
first pair the script removes every ``__pycache__`` directory under
``src/`` and ``perfbench/`` of both trees: a stale bytecode cache that
cannot be rewritten makes a tree compile its sources on every run, which
``setup_s`` then counts.  Every run's metrics are printed as it ends.
Then, for each end-to-end metric of the parent's ``BENCHMARK.json`` (read,
never written), the script prints each side's median and quartiles, the
change's wins (ties count for neither), the ratio of the medians, the median
of the ratios within pairs (which a host drifting over the run moves less),
and two verdicts:

- ``bound``: ``ok`` unless the change's median is worse than the parent's
  by more than the metric's regression bound;
- ``gain``: ``yes`` when the change won at least 9 in 10 pairs and the
  medians differ by more than the parent's interquartile range.

The exit code is 0 when every run was correct and every bound held, 1
otherwise, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Optional


def run_once(tree: str, workload: str, seconds: int, seed: int) -> Optional[dict[str, Any]]:
    """One benchmark run in ``tree``: its result line, or None if it failed."""
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{tree}: no result line (exit {child.returncode})\n{child.stderr}")
        return None
    if not result.get("correct"):
        sys.stderr.write(f"{tree}: run not correct\n{child.stderr}")
    return result


def clear_bytecode(tree: str) -> None:
    """Remove the ``__pycache__`` directories under ``tree``'s src/ and perfbench/."""
    for top in ("src", "perfbench"):
        for root, dirs, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(root, "__pycache__"))
                dirs.remove("__pycache__")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} holds no perfbench/run.py")
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    for tree in trees.values():
        clear_bytecode(tree)
    pairs: list[dict[str, dict[str, float]]] = []  # per pair: side -> metric -> value
    failed = 0
    for pair in range(args.pairs):
        pairs.append({})
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, args.seconds, args.seed)
            if result is None or not result["correct"] or result["failed"]:
                failed += 1
            if result is None:
                continue
            got = {name: m["value"] for name, m in result["metrics"].items()}
            pairs[-1][side] = got
            shown = " ".join(f"{m['name']}={got[m['name']]:.6g}" for m in metrics)
            print(f"pair {pair} {side}: correct={result['correct']} {shown}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s runs; "
          f"median [q1, q3]")
    over = 0
    whole = [p for p in pairs if len(p) == 2]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"][name] for p in whole]
        change = [p["change"][name] for p in whole]
        if not whole:
            print(f"{name}: no complete pair")
            over += 1
            continue
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        # the ratio within each pair: a host that drifts over the pairs moves
        # both medians but not the pairs' ratios
        paired = statistics.median(c / p for p, c in zip(parent, change))
        worse = pm - cm if higher else cm - pm
        ok = worse <= metric["bound"] * pm
        gain = wins >= 0.9 * len(whole) and -worse > p3 - p1
        over += not ok
        print(f"{name} ({metric['unit']}): parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  ratio {cm / pm:.3f}  "
              f"pair ratio {paired:.3f}  "
              f"wins {wins}/{len(whole)}  bound {metric['bound']:.0%} "
              f"{'ok' if ok else 'EXCEEDED'}  gain {'yes' if gain else 'no'}")
    if failed:
        print(f"{failed} runs failed or were not correct")
    return 1 if failed or over else 0


if __name__ == "__main__":
    sys.exit(main())
