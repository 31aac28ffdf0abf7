#!/usr/bin/env python3
"""Exhibit the unique strong order-5 tournament with no spanning chord path.

Usage:
    python3 scripts/tournament_exception.py [--n 5]

Runs the exhaustive ``bypass_claim`` campaign at the chosen order (4 to 8;
order 7 takes seconds, order 8 minutes).  On a tournament the triple
condition is vacuous, so strength is the whole hypothesis, and the
campaign's exception classes are the isomorphism classes of the strong
tournaments without a Hamiltonian bypass, each represented by its first
member in enumeration order.  For each class the script prints the member
count, the arcs, degrees, and the cycle spectrum.
"""
from __future__ import annotations

import argparse
import sys

from hamlab.cycles import cycle_spectrum
from hamlab.digraph import degrees, parse
from hamlab.harness import CampaignError, CampaignSpec, run_campaign


def scan(n: int) -> int:
    try:
        result = run_campaign(CampaignSpec("bypass_claim", n), allow_long=True)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"order {n}: {result.scanned} tournaments, {result.strong} strong, "
          f"{len(result.exceptions)} bypass-free classes")
    for exc_class in result.exceptions:
        rep = parse(exc_class.digraph)
        print(f"\nclass with {exc_class.count} labeled members:")
        for line in exc_class.digraph.strip().splitlines():
            print(f"  {line}")
        degs = ", ".join(
            f"v{v}: out {degrees(rep, v)[0]} in {degrees(rep, v)[1]}" for v in range(rep.n)
        )
        print(f"  degrees: {degs}")
        print(f"  cycle lengths: {list(cycle_spectrum(rep).present)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5)
    args = parser.parse_args(argv)
    return scan(args.n)


if __name__ == "__main__":
    sys.exit(main())
