"""Command-line surface: check, gen, verify, spectrum, bypass.

Exit codes are part of the contract: 0 means success (or a claim that held),
1 means a counterexample or property failure was found, 2 means the input or
usage was bad.  Progress heartbeats go to standard error so standard output
stays machine-parsable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from typing import Callable, Optional

from .conditions import ConditionVerdict, condition_report
from .cycles import cycle_spectrum, hamiltonian_bypass
from .digraph import Digraph, GraphError, ParseError, parse, serialize
from .generators import (
    GiveUpError,
    gen_directed_cycle,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_random_strong,
    gen_two_cliques,
)
from .harness import (
    CampaignError,
    CampaignResult,
    CampaignSpec,
    CheckpointError,
    classify,
    run_campaign,
    run_sharded,
)

#: family: (parameter count, usage, constructor of (parameters, seed))
_GEN_FAMILIES: dict[str, tuple[int, str, Callable[[list[str], int], Digraph]]] = {
    "kstar": (2, "kstar P Q", lambda a, _: gen_kstar(int(a[0]), int(a[1]))),
    "kstar-minus-arc": (
        2, "kstar-minus-arc P Q", lambda a, _: gen_kstar_minus_arc(int(a[0]), int(a[1]))
    ),
    "two-cliques": (1, "two-cliques M", lambda a, _: gen_two_cliques(int(a[0]))),
    "cycle": (1, "cycle N", lambda a, _: gen_directed_cycle(int(a[0]))),
    "random-strong": (
        2, "random-strong N ARC_PROB [--seed S]",
        lambda a, seed: gen_random_strong(int(a[0]), float(a[1]), seed),
    ),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _on_file(
    command: Callable[[Digraph, argparse.Namespace], int]
) -> Callable[[argparse.Namespace], int]:
    """Run ``command`` on the digraph in ``args.file``; a file that cannot be
    read, is not UTF-8 or does not parse is reported with exit 2."""

    def run(args: argparse.Namespace) -> int:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                d = parse(fh.read())
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            return _fail(str(exc))
        return command(d, args)

    return run


def cmd_check(d: Digraph, args: argparse.Namespace) -> int:
    report = condition_report(d)
    record = classify(d)
    if args.json:
        print(
            json.dumps(
                {"conditions": report.to_json(), "classification": record.to_json()},
                indent=2,
            )
        )
        return 0
    print(f"order {d.n}, arcs {d.arc_count()}")
    print(f"{'condition':<24}{'holds':<8}violations")
    for f in fields(report):
        verdict = getattr(report, f.name)
        if isinstance(verdict, ConditionVerdict):
            print(f"{f.name:<24}{'yes' if verdict.holds else 'no':<8}{verdict.total_violations}")
    margin = report.ak_margin
    if margin.unbounded:
        print("ak margin: unbounded (no qualifying triple)")
    else:
        print(f"ak margin: {margin.max_k}")
    flags = record.to_json()
    parts = []
    for key in ("strong", "hamiltonian", "pre_hamiltonian", "pancyclic", "ham_bypass"):
        parts.append(f"{key}={'yes' if flags[key] else 'no'}")
    if record.kstar_balanced:
        p, q = record.kstar_balanced
        parts.append(f"kstar_balanced={p}x{q}")
    print("classification: " + ", ".join(parts))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family not in _GEN_FAMILIES:
        return _fail(
            f"unknown family {family!r}; pick one of {', '.join(sorted(_GEN_FAMILIES))}"
        )
    arity, usage, make = _GEN_FAMILIES[family]
    if len(args.params) != arity:
        return _fail(f"family {family} needs {arity} parameter(s): {usage}")
    try:
        d = make(args.params, args.seed)
    except (GraphError, ValueError, GiveUpError) as exc:
        return _fail(str(exc))
    text = serialize(d)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(str(exc))
    else:
        sys.stdout.write(text)
    return 0


def _print_verify_report(result: CampaignResult) -> None:
    spec = result.spec
    print(
        f"{spec.claim} n={spec.n} {spec.mode}: scanned {result.scanned}, "
        f"strong {result.strong}, hypothesis hits {result.hypothesis_hits}, "
        f"verified {result.verified}, counterexamples {len(result.counterexamples)}"
    )
    if not result.complete:
        print(f"incomplete: cursor at {result.cursor}")
    for exc in result.exceptions:
        print(f"exception class (index {exc.index}, {exc.count} labeled copies):")
        for line in exc.digraph.strip().splitlines():
            print(f"  {line}")
    for cex in result.counterexamples[:10]:
        label = "conjecture candidate" if "conjecture_candidate" in cex.detail else "counterexample"
        print(f"{label} at index {cex.index}: {cex.detail}")
    if len(result.counterexamples) > 10:
        print(f"... and {len(result.counterexamples) - 10} more")


def cmd_verify(args: argparse.Namespace) -> int:
    shards = args.shards
    if args.jobs > 1 and shards == 1:
        shards = args.jobs
    try:
        spec = CampaignSpec(
            claim=args.claim,
            n=args.n,
            mode=args.mode,
            shard=args.shard,
            shards=shards,
            samples=args.samples,
            arc_prob=args.arc_prob,
            seed=args.seed,
            checkpoint_path=args.checkpoint,
        )
    except CampaignError as exc:
        return _fail(str(exc))

    last_beat = 0.0

    def heartbeat(done: int, total: int) -> None:
        nonlocal last_beat
        now = time.monotonic()
        if now - last_beat >= 0.5 or done >= total:
            last_beat = now
            print(f"progress: {done}/{total}", file=sys.stderr)

    try:
        if args.jobs > 1:
            result = run_sharded(spec, args.jobs, allow_long=args.allow_long)
        else:
            result = run_campaign(
                spec, allow_long=args.allow_long, progress=heartbeat
            )
    except (CampaignError, CheckpointError, GiveUpError) as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        _print_verify_report(result)
    return 1 if result.counterexamples else 0


def cmd_spectrum(d: Digraph, args: argparse.Namespace) -> int:
    spectrum = cycle_spectrum(d)
    present = spectrum.present
    print(" ".join(str(length) for length in present) if present else "none")
    for length in present:
        witness = spectrum.witnesses[length]
        print(f"{length}: " + " ".join(str(v) for v in witness.vertices))
    return 0


def cmd_bypass(d: Digraph, args: argparse.Namespace) -> int:
    try:
        found = hamiltonian_bypass(d)
    except GraphError as exc:
        return _fail(str(exc))
    if found is None:
        print("none")
        return 0
    path, chord = found
    print("path: " + " ".join(str(v) for v in path.vertices))
    print(f"chord: {chord[0]} -> {chord[1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlab",
        description="Digraph Hamiltonicity laboratory: degree conditions, cycle "
        "spectra, constructive lemmas, and verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate all conditions on a digraph file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_on_file(cmd_check))

    p_gen = sub.add_parser("gen", help="write a named digraph family member")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("claim")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p_verify.add_argument("--shard", type=int, default=0)
    p_verify.add_argument("--shards", type=int, default=1)
    p_verify.add_argument("--samples", type=int, default=0)
    p_verify.add_argument("--arc-prob", type=float, default=0.5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--checkpoint")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--allow-long", action="store_true")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_spectrum = sub.add_parser("spectrum", help="list cycle lengths with witnesses")
    p_spectrum.add_argument("file")
    p_spectrum.set_defaults(func=_on_file(cmd_spectrum))

    p_bypass = sub.add_parser("bypass", help="find a spanning path with a closing chord")
    p_bypass.add_argument("file")
    p_bypass.set_defaults(func=_on_file(cmd_bypass))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
