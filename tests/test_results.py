"""Committed campaign results under ``results/`` stay consistent with what they claim."""

from __future__ import annotations

import json
from pathlib import Path

from hamlab.cycles import hamiltonian_bypass
from hamlab.digraph import is_strong, parse
from hamlab.harness import CampaignResult

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _load(name: str) -> CampaignResult:
    with open(RESULTS / name, encoding="utf-8") as fh:
        payload = json.load(fh)
    # committed results leave out the run's wall time, which varies per run
    return CampaignResult.from_json({**payload["result"], "elapsed_ms": 0})


def test_bypass_claim_order7_result():
    res = _load("bypass_claim-n7.json")
    assert res.complete and res.cursor is None
    assert res.scanned == 2**21
    # strongly connected labeled tournaments of order 7 (OEIS A054946)
    assert res.strong == res.hypothesis_hits == res.verified == 1_677_488
    assert res.counterexamples == ()
    # isomorphism classes of order-7 tournaments (OEIS A000568)
    assert len(res.exceptions) <= 456
    assert sum(e.count for e in res.exceptions) == res.detail["exception_members"]
    for e in res.exceptions:
        d = parse(e.digraph)
        assert d.n == 7 and is_strong(d) and hamiltonian_bypass(d) is None
        assert all(d.has_arc(u, v) != d.has_arc(v, u) for u in range(7) for v in range(u))
