#!/usr/bin/env python3
"""Campaign benchmark for hamlab.

Run from the repository root::

    python3 perfbench/run.py --workload exhaustive-n6 --seed 0 --seconds 30 --trace 0

The run imports hamlab from ``src/``, builds the workload's campaign specs
from ``--seed`` and drives them through ``hamlab.harness.run_campaign`` in
this one process, round after round, for about ``--seconds`` seconds (whole
rounds, at least one).  Every result is checked (see ``workloads.check``).
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (campaigns) and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 when every check passed, 1 when a check
failed and 2 when the benchmark cannot run at all (hamlab missing, bad
arguments, inconsistent ``BENCHMARK.json``); no result line is printed then.

The traced run wraps each layer function in a span recorder (``spans.py``),
measures traced rounds, writes the spans to ``.perfbench-work/`` and re-runs
round 0 untraced to check that tracing changed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

#: fresh interpreters timed before each round and after the last one
PROBES_PER_ROUND = 4

#: labeled digraphs of order 6, the space the projection extrapolates to
ORDER6_SPACE = 1 << 30

PROJECTED_CLAIMS = ("thm15", "thm110", "lemma35", "conj19")

E2E_METRICS = ("digraphs_per_s", "block_s.p50", "block_s.p90", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run; reported on stderr with exit code 2."""


def import_hamlab() -> None:
    """Import hamlab from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import hamlab
    except ImportError as exc:
        raise BenchError(f"cannot import hamlab from {SRC}: {exc}") from exc
    if not os.path.abspath(hamlab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hamlab imported from {hamlab.__file__}, not from {SRC}")


@dataclass
class Measurement:
    """What a sequence of rounds produced and how long its parts took."""

    #: per round, per campaign: (spec, result or None, error text or None)
    rounds: list[list[tuple[Any, Any, Optional[str]]]] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    #: per round, the seconds between consecutive progress callbacks
    block_s: list[list[float]] = field(default_factory=list)
    claim_s: dict[str, float] = field(default_factory=dict)
    claim_scanned: dict[str, int] = field(default_factory=dict)

    @property
    def digraphs(self) -> int:
        return sum(res.scanned for rnd in self.rounds for _, res, _ in rnd if res is not None)

    @property
    def rate(self) -> float:
        return self.digraphs / sum(self.round_s)

    def block_minima(self) -> list[float]:
        """Each block position's least time over the rounds.

        Rounds run the same campaign shapes, so block j of every round does
        like work.  A slow spell of a shared host only ever adds time, so the
        least of the rounds is the reading it disturbed least.
        """
        width = min(len(blocks) for blocks in self.block_s)
        return [min(blocks[j] for blocks in self.block_s) for j in range(width)]


def run_rounds(
    workload: str,
    seed: int,
    seconds: float,
    *,
    only_rounds: Optional[int] = None,
    before_round: Optional[Callable[[], None]] = None,
    on_campaign: Optional[Callable[[], None]] = None,
) -> Measurement:
    """Run whole rounds until about ``seconds`` have passed (or ``only_rounds``).

    Another round starts only while the time of the rounds so far plus half
    the last round stays under ``seconds``, so a run ends near ``seconds``
    instead of up to a whole round past it.  ``before_round`` runs untimed.
    """
    from hamlab import harness
    from workloads import round_specs

    m = Measurement()
    while True:
        if only_rounds is not None:
            if len(m.rounds) == only_rounds:
                break
        elif m.rounds and sum(m.round_s) + 0.5 * m.round_s[-1] >= seconds:
            break
        if before_round is not None:
            before_round()
        round_start = time.perf_counter()
        outcomes = []
        blocks: list[float] = []
        for spec in round_specs(workload, seed, len(m.rounds), WORKDIR):
            if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
                os.remove(spec.checkpoint_path)
            if on_campaign is not None:
                on_campaign()
            last = time.perf_counter()
            began = last

            def progress(done: int, total: int) -> None:
                nonlocal last
                now = time.perf_counter()
                blocks.append(now - last)
                last = now

            try:
                result = harness.run_campaign(spec, allow_long=True, progress=progress)
            except Exception:  # a failing campaign is counted, the run goes on
                outcomes.append((spec, None, traceback.format_exc()))
                continue
            m.claim_s[spec.claim] = m.claim_s.get(spec.claim, 0.0) + time.perf_counter() - began
            m.claim_scanned[spec.claim] = m.claim_scanned.get(spec.claim, 0) + result.scanned
            outcomes.append((spec, result, None))
        m.round_s.append(time.perf_counter() - round_start)
        m.rounds.append(outcomes)
        m.block_s.append(blocks)
    return m


def clear_checkpoints() -> None:
    for name in os.listdir(WORKDIR) if os.path.isdir(WORKDIR) else ():
        if name.endswith(".ckpt"):
            os.remove(os.path.join(WORKDIR, name))


def failed_campaigns(m: Measurement) -> int:
    """Check every result; report each problem on stderr; count bad campaigns."""
    from workloads import check, check_round, load_expected

    expected = load_expected()
    failed = 0
    for round_no, outcomes in enumerate(m.rounds):
        good = [res for _, res, _ in outcomes if res is not None]
        for problem in check_round(good):
            print(f"round {round_no}: {problem}", file=sys.stderr)
            failed += 1
        for spec, res, error in outcomes:
            problems = [error] if res is None else check(res, expected)
            for problem in problems:
                print(f"round {round_no} {spec.claim} n={spec.n}: {problem}", file=sys.stderr)
            failed += bool(problems)
    return failed


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter needs for ``setup_probe.py``."""
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        raise BenchError(f"setup probe failed:\n{child.stderr}")
    return float(child.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[int, int, dict[str, float]]:
    probes: list[float] = []

    def probe() -> None:
        probes.extend(probe_setup(workload, seed) for _ in range(PROBES_PER_ROUND))

    # probes alternate with the rounds, so a slow spell of the host during
    # the run reaches only some of them; it only ever adds time, so the
    # least probe is the reading it disturbed least
    m = run_rounds(workload, seed, seconds, before_round=probe)
    probe()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = failed_campaigns(m)
    attempted = sum(len(r) for r in m.rounds)
    print(f"{workload} seed {seed}: {len(m.rounds)} rounds, {m.digraphs} digraphs "
          f"in {sum(m.round_s):.3f} s; block_s p50 and p90 over {len(m.block_s[0])} "
          f"block positions, each the least over the rounds; setup_s the least "
          f"of {len(probes)} probes")
    if workload == "exhaustive-n6":
        for claim in PROJECTED_CLAIMS:
            if m.claim_s.get(claim):
                rate = m.claim_scanned[claim] / m.claim_s[claim]
                hours = ORDER6_SPACE / rate / 3600
                print(f"projection {claim}: {rate:.0f} digraphs/s, full order 6 "
                      f"(2^30 labeled digraphs) in {hours:.2f} h on one core")
    deciles = statistics.quantiles(m.block_minima(), n=10, method="inclusive")
    return attempted, failed, {
        "digraphs_per_s": m.rate,
        "block_s.p50": deciles[4],
        "block_s.p90": deciles[8],
        "setup_s": min(probes),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload: str, seed: int, seconds: int) -> tuple[int, int, dict[str, float], bool]:
    from spans import TRACED_RATE, Tracer, install

    tracer = Tracer()

    def next_campaign() -> None:
        tracer.campaign_id += 1

    undo = install(tracer)
    try:
        traced = run_rounds(workload, seed, seconds, on_campaign=next_campaign)
    finally:
        undo()
    reference = run_rounds(workload, seed, seconds, only_rounds=1)
    tracer.save(os.path.join(WORKDIR, f"spans-{workload}.npz"))

    failed = failed_campaigns(traced) + failed_campaigns(reference)
    attempted = sum(len(r) for r in traced.rounds) + len(reference.rounds[0])
    ok = True
    if [res for _, res, _ in traced.rounds[0]] != [res for _, res, _ in reference.rounds[0]]:
        print("traced and untraced results of round 0 differ", file=sys.stderr)
        ok = False
    negative = int((tracer.self_times() < 0).sum())
    if negative:
        print(f"{negative} spans have negative self time", file=sys.stderr)
        ok = False
    missing = tracer.missing_layers(workload)
    if missing:
        print(f"no span recorded on {workload} for: {', '.join(missing)}", file=sys.stderr)
        ok = False
    metrics = tracer.layer_metrics(len(traced.rounds))
    metrics[TRACED_RATE] = traced.rate
    print(f"{workload} seed {seed}: {len(traced.rounds)} traced rounds, {len(tracer.start)} "
          f"spans; traced {traced.rate:.0f} digraphs/s, untraced round 0 "
          f"{reference.rate:.0f} digraphs/s")
    return attempted, failed, metrics, ok


def load_benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[list[str]] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        parser.error("--seed must lie in 0..2^32-1")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        import_hamlab()
        from spans import LAYERS, layer_metric_names

        unknown = {w for layer in LAYERS for w in layer.exercised_by} - {
            w["name"] for w in bench["workloads"]
        }
        if unknown:
            raise BenchError(f"spans.py names workloads not in BENCHMARK.json: {sorted(unknown)}")
        declared = bench["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        computed = layer_metric_names() if args.trace else E2E_METRICS
        if set(units) != set(computed):
            raise BenchError(
                f"metrics {sorted(set(units) ^ set(computed))} disagree with BENCHMARK.json"
            )
        import numpy

        print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
              f"numpy={numpy.__version__}")
        os.makedirs(WORKDIR, exist_ok=True)
        ok = True
        if args.trace:
            attempted, failed, values, ok = per_layer(args.workload, args.seed, args.seconds)
        else:
            attempted, failed, values = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        clear_checkpoints()
    correct = ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
