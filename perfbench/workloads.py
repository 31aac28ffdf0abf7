"""Benchmark workloads: the campaign specs of each round and their checks.

A run repeats rounds of one workload.  Round ``r`` of seed ``s`` has its own
order-6 shard or sampling seed, so a round does not repeat the screening of
an earlier one (only the whole tournament spaces recur); the same
(seed, round) always gives the same specs.  The program receives only the
specs.
"""

from __future__ import annotations

import json
import os
from typing import Any

from hamlab.harness import CampaignResult, CampaignSpec

#: odd stride over the order-6 labeled space, so every row of the
#: adjacency matrix varies inside one shard
SHARDS = 1021

#: claims whose hypothesis hits must all verify
MUST_HOLD = ("thm15", "thm110", "lemma35", "bypass_claim", "lemma_suite")

#: frozen results at the default seed, produced by ``freeze.py``
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def round_specs(workload: str, seed: int, round_no: int, workdir: str) -> list[CampaignSpec]:
    """The campaigns of one round; exhaustive order-6 campaigns checkpoint."""
    if workload == "exhaustive-n6":
        shard = (seed + round_no) % SHARDS
        specs = [
            CampaignSpec(
                claim, 6, shard=shard, shards=SHARDS,
                checkpoint_path=os.path.join(workdir, f"{claim}.ckpt"),
            )
            for claim in ("thm15", "thm110", "lemma35", "conj19")
        ]
        # order 5 holds the one tournament class without a bypass, so the
        # exception dedup (isomorphic_small) runs; order 6 holds none
        return specs + [CampaignSpec("bypass_claim", 5), CampaignSpec("bypass_claim", 6)]
    sample_seed = seed * 1000 + round_no
    if workload == "sampled-n7":
        return [CampaignSpec("conj19", 7, mode="sample", samples=10**6, arc_prob=0.5,
                             seed=sample_seed)]
    if workload == "lemma-suite":
        return [CampaignSpec("lemma_suite", 8, mode="sample", samples=75_000,
                             seed=sample_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def space_size(spec: CampaignSpec) -> int:
    """Digraphs a complete campaign must scan, derived from the spec alone."""
    if spec.mode == "sample":
        return spec.samples
    if spec.claim == "bypass_claim":
        return 1 << (spec.n * (spec.n - 1) // 2)
    return len(range(spec.shard, 1 << (spec.n * (spec.n - 1)), spec.shards))


def spec_key(spec: CampaignSpec) -> str:
    return json.dumps(spec.identity(), sort_keys=True)


def frozen_view(result: CampaignResult) -> dict[str, Any]:
    """The fields of a result that the default seed holds exactly."""
    payload = result.to_json()
    return {
        key: payload[key]
        for key in ("scanned", "strong", "hypothesis_hits", "verified", "detail",
                    "counterexamples", "exceptions")
    }


def load_expected() -> dict[str, dict[str, Any]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(result: CampaignResult, expected: dict[str, dict[str, Any]]) -> list[str]:
    """Every way ``result`` is wrong; an empty list means it passed."""
    spec = result.spec
    problems = []
    if not result.complete:
        problems.append("campaign did not complete")
    if result.scanned != space_size(spec):
        problems.append(f"scanned {result.scanned}, space holds {space_size(spec)}")
    if result.verified + len(result.counterexamples) != result.hypothesis_hits:
        problems.append("verified + counterexamples != hypothesis hits")
    if spec.claim in MUST_HOLD and result.counterexamples:
        problems.append(f"{len(result.counterexamples)} counterexamples to {spec.claim}")
    if spec.claim != "lemma_suite" and not result.hypothesis_hits <= result.strong <= result.scanned:
        problems.append("counts not nested: hits <= strong <= scanned fails")
    frozen = expected.get(spec_key(spec))
    if frozen is not None and frozen_view(result) != frozen:
        problems.append("result differs from the frozen default-seed result")
    return problems


def check_round(results: list[CampaignResult]) -> list[str]:
    """Cross-campaign checks: slack-0 claims on one slice share their hits."""
    slack0 = [r for r in results if r.spec.claim in ("thm15", "thm110", "lemma35")]
    if len({(r.strong, r.hypothesis_hits) for r in slack0}) > 1:
        return ["thm15, thm110 and lemma35 disagree on strong or hit counts of one slice"]
    return []
