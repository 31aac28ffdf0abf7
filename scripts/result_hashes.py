#!/usr/bin/env python3
"""Print two sha256 per campaign of a fixed set, and one over the scalar
reports, to check results bit for bit.

Usage:
    PYTHONPATH=src python3 scripts/result_hashes.py > hashes.txt

Each campaign runs once with a checkpoint file, then again from that final
checkpoint to completion (``stop_after=None``).  The first hash covers the
first run's result JSON and the second the resumed run's, both without
``elapsed_ms`` and with their keys in emitted order, so a line changes
whenever a count, a counterexample (order and detail included), an
exception class, a cursor or a key order does, or when a resume from the
saved state does not reach the same result.  Neither hash reads the
checkpoint's bytes, so two trees whose checkpoint formats differ can still
be compared: they hold the same results when the outputs of this script on
both, each run with its own ``src`` on ``PYTHONPATH``, are equal under
``diff``.  The set takes 1-4 minutes on one core and peaks near
400 MB, most of it the lowered-slack counterexamples.

The set has 64 campaigns:
- lemma_suite at order 8, seeds 0-2, 75,000 samples each;
- lemma_suite at orders 4-8 over 20,000 samples, once stopped after 9,000
  and once as shard 1 of 3;
- thm15, thm110, lemma35 and conj19 exhaustive at orders 4 and 5, on shard
  17 of 1021 of order 6, and sampled at order 7;
- bypass_claim at orders 5-8, sampled and exhaustive (order 8 on shard 3
  of 1024 only);
- thm15, thm110 and conj19 with the triple-condition slack lowered to -2,
  -4 and -8, exhaustive at orders 4 and 5 and sampled at order 6.  These
  negative slacks make many hits fail, so the counterexample path is
  hashed too.  lemma35 is left out: its judge raises below slack 0.

The first line is one sha256 over ``condition_report(d).to_json()``,
``condition_a_k(d, k).to_json()`` for k in {-2, 3}, ``classify(d).to_json()``
and ``lemma35_holds(d).to_json()`` (or its HypothesisUnmet text) of every
labeled digraph of orders 1-4 (4,165) and of
``gen_random_strong(n, p, s)`` for n = 5..9, p in {0.3, 0.6, 0.9} and
s = 0..9, so the scalar conditions and classification are held bit for bit
as well.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from typing import Optional

from hamlab import harness
from hamlab.conditions import condition_a_k, condition_report, lemma35_holds
from hamlab.digraph import HypothesisUnmet
from hamlab.generators import enum_labeled, gen_random_strong
from hamlab.harness import CampaignResult, CampaignSpec, classify, run_campaign

#: (spec, stop_after, slack override or None)
Entry = tuple[CampaignSpec, Optional[int], Optional[int]]


def campaigns() -> list[Entry]:
    out: list[Entry] = []
    lemma = dict(claim="lemma_suite", mode="sample")
    for seed in range(3):
        out.append((CampaignSpec(n=8, samples=75_000, seed=seed, **lemma), None, None))
    for n in range(4, 9):
        out.append((CampaignSpec(n=n, samples=20_000, **lemma), 9_000, None))
        out.append((CampaignSpec(n=n, samples=20_000, shard=1, shards=3, **lemma), None, None))
    for claim in ("thm15", "thm110", "lemma35", "conj19"):
        out.append((CampaignSpec(claim=claim, n=4), None, None))
        out.append((CampaignSpec(claim=claim, n=5), None, None))
        out.append((CampaignSpec(claim=claim, n=6, shard=17, shards=1021), None, None))
        sampled = CampaignSpec(claim=claim, n=7, mode="sample", samples=20_000, seed=1)
        out.append((sampled, None, None))
    for n in (5, 6, 7, 8):
        shards = dict(shard=3, shards=1024) if n == 8 else {}
        out.append((CampaignSpec(claim="bypass_claim", n=n, **shards), None, None))
        sampled = CampaignSpec(claim="bypass_claim", n=n, mode="sample", samples=20_000, seed=2)
        out.append((sampled, None, None))
    for claim in ("thm15", "thm110", "conj19"):
        for slack in (-2, -4, -8):
            out.append((CampaignSpec(claim=claim, n=4), None, slack))
            out.append((CampaignSpec(claim=claim, n=5), None, slack))
            sampled = CampaignSpec(claim=claim, n=6, mode="sample", samples=5_000, seed=3)
            out.append((sampled, None, slack))
    return out


def label(entry: Entry) -> str:
    spec, stop_after, slack = entry
    fields = {k: v for k, v in spec.identity().items() if k not in ("claim", "n")}
    text = f"{spec.claim} n={spec.n} " + " ".join(f"{k}={v}" for k, v in fields.items())
    if stop_after is not None:
        text += f" stop_after={stop_after}"
    if slack is not None:
        text += f" slack={slack}"
    return text


def _sha(result: CampaignResult) -> str:
    data = result.to_json()
    del data["elapsed_ms"]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def digests(entry: Entry) -> tuple[str, str]:
    """sha256 of the campaign's result and of the result resumed from its final
    checkpoint, wall times left out."""
    spec, stop_after, slack = entry
    row = harness._CLAIMS[spec.claim]
    if slack is not None:
        harness._CLAIMS[spec.claim] = replace(row, slack=slack)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "checkpoint.json")
            spec = CampaignSpec(**spec.identity(), checkpoint_path=path)
            first = run_campaign(spec, stop_after=stop_after, allow_long=True)
            resumed = run_campaign(spec, allow_long=True)
    finally:
        harness._CLAIMS[spec.claim] = row
    return _sha(first), _sha(resumed)


def scalar_digest() -> str:
    """sha256 over the scalar reports of every digraph of orders 1-4 and of
    150 seeded random strong digraphs of orders 5-9."""
    digest = hashlib.sha256()
    graphs = [d for n in range(1, 5) for _, d in enum_labeled(n)]
    for n in range(5, 10):
        for p in (0.3, 0.6, 0.9):
            graphs += [gen_random_strong(n, p, s) for s in range(10)]
    for d in graphs:
        try:
            lemma = lemma35_holds(d).to_json()
        except HypothesisUnmet as exc:
            lemma = f"HypothesisUnmet: {exc}"
        data = [
            condition_report(d).to_json(),
            *(condition_a_k(d, k).to_json() for k in (-2, 3)),
            classify(d).to_json(),
            lemma,
        ]
        digest.update(json.dumps(data, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def main() -> int:
    print(f"{scalar_digest()}  scalar reports", flush=True)
    for entry in campaigns():
        first, resumed = digests(entry)
        print(f"{first}  {resumed}  {label(entry)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
