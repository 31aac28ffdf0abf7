#!/usr/bin/env python3
"""Write ``expected.json``: the frozen results of the default seed.

Run from the repository root::

    python3 perfbench/freeze.py

Runs rounds 0..FROZEN_ROUNDS-1 of every workload at seed 0 and stores, per
campaign spec, the counts, detail, counterexamples and exception classes.  The
benchmark then holds every later run of those specs to these values, so
regenerate the file only when a change of results is intended and reviewed.
"""

from __future__ import annotations

import json
import os

import run

#: rounds of the default seed whose results are frozen
FROZEN_ROUNDS = 8


def main() -> None:
    run.import_hamlab()
    from workloads import EXPECTED_PATH, frozen_view, spec_key

    os.makedirs(run.WORKDIR, exist_ok=True)
    frozen = {}
    for workload in (w["name"] for w in run.load_benchmark()["workloads"]):
        m = run.run_rounds(workload, 0, 0, only_rounds=FROZEN_ROUNDS)
        for spec, res, error in (item for rnd in m.rounds for item in rnd):
            if res is None:
                raise SystemExit(f"{workload} {spec.claim} raised:\n{error}")
            frozen[spec_key(spec)] = frozen_view(res)
        print(f"{workload}: {len(m.rounds)} rounds in {sum(m.round_s):.1f} s", flush=True)
    run.clear_checkpoints()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
