"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py``; the per-test PASSED/FAILED
line is the per-criterion verdict.  Every numeric expectation is exact
(tolerance 0) unless stated as a wall-clock bound, in which case the bound is
asserted against a monotonic-clock measurement of the campaign call alone.

Criteria:
  01  spanning-cycle claim, exhaustive orders 4 and 5, zero counterexamples,
      under 1 s / 60 s single-threaded
  02  pre-hamiltonian-or-bipartite claim, same spaces, zero counterexamples,
      the balanced complete bipartite digraph on 4 vertices exercising the
      exceptional branch
  03  sharpness: margin exactly -1 families behave exactly as advertised
  04  exceptional families: margin exactly +2, hamiltonian, even spectrum
  05  paired-low-degree property holds over every hypothesis hit of 01-02
  06  constructive lemma suite: >= 1e5 hypothesis hits per lemma, 100%
      success, every witness validated
  07  order-5 tournaments: exactly one isomorphism class is strong,
      triple-condition-satisfying, and bypass-free; under 5 s
  08  pancyclicity conjecture campaign: exhaustive orders 4-5 plus 1e6
      samples each at orders 6-7 (seed 42, arc probability 0.5); hits are
      reported as conjecture candidates, never as test failures
  09  cycle search agrees with a naive subset-and-permutation oracle on 1e4
      seeded random digraphs for every feasible length
  10  infrastructure determinism: shard merge, checkpoint resume, and seeded
      generation are all exactly reproducible
"""
from __future__ import annotations

import time

from hamlab.conditions import ak_margin, condition_a_k, lemma35_rows
from hamlab.cycles import cycle_spectrum, find_cycle_of_length, hamiltonian_cycle, pre_hamiltonian_cycle
from hamlab.digraph import from_rows, is_strong, parse, recognize_kstar, serialize
from hamlab.generators import (
    SplitMix64,
    derived_seed,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_random_strong,
    gen_two_cliques,
    index_from_rows,
)
from hamlab.harness import CampaignSpec, _judge, merge_results, run_campaign, run_sharded

from oracles import oracle_cycle_of_length


def _report(criterion: int, summary: str) -> None:
    print(f"criterion {criterion:02d} PASS  {summary}")


def _timed(spec: CampaignSpec, **kwargs):
    start = time.monotonic()
    result = run_campaign(spec, **kwargs)
    return result, time.monotonic() - start


def test_criterion_01_spanning_cycle_exhaustive():
    res4, dt4 = _timed(CampaignSpec(claim="thm15", n=4))
    assert res4.scanned == 4096
    assert res4.counterexamples == ()
    assert res4.verified == res4.hypothesis_hits
    assert dt4 < 1.0, f"order-4 scan took {dt4:.2f}s (bound 1s)"

    res5, dt5 = _timed(CampaignSpec(claim="thm15", n=5))
    assert res5.scanned == 1 << 20
    assert res5.counterexamples == ()
    assert res5.verified == res5.hypothesis_hits
    assert dt5 < 60.0, f"order-5 scan took {dt5:.2f}s (bound 60s)"
    _report(1, f"0 counterexamples over 4096 + {1 << 20} digraphs "
               f"({dt4:.2f}s and {dt5:.2f}s)")


def test_criterion_02_preham_or_bipartite_exhaustive():
    res4, _ = _timed(CampaignSpec(claim="thm110", n=4))
    assert res4.scanned == 4096
    assert res4.counterexamples == ()
    assert res4.detail["kstar"] >= 1, "exceptional branch never exercised"

    # the canonical balanced bipartite digraph itself is a hypothesis hit
    k22 = gen_kstar(2, 2)
    assert is_strong(k22) and condition_a_k(k22, 0).holds
    ok, branch, _, _ = _judge("thm110", 4, list(k22.out))
    assert ok and branch == "kstar"
    assert index_from_rows(4, list(k22.out)) < 4096

    res5, _ = _timed(CampaignSpec(claim="thm110", n=5))
    assert res5.scanned == 1 << 20
    assert res5.counterexamples == ()
    assert res5.detail["kstar"] == 0  # odd order admits no balanced bipartite member
    _report(2, f"0 counterexamples; exceptional branch hit {res4.detail['kstar']} "
               f"times at order 4")


def test_criterion_03_sharpness_families():
    for m in (3, 4, 5):
        d = gen_two_cliques(m)
        margin = ak_margin(d)
        assert not margin.unbounded and margin.max_k == -1, f"two_cliques({m}): {margin}"
        assert hamiltonian_cycle(d) is None, f"two_cliques({m}) unexpectedly hamiltonian"
    for p in (2, 3, 4):
        d = gen_kstar_minus_arc(p, p)
        margin = ak_margin(d)
        assert not margin.unbounded and margin.max_k == -1, f"kstar_minus_arc({p},{p}): {margin}"
        assert hamiltonian_cycle(d) is not None
        assert pre_hamiltonian_cycle(d) is None
        assert recognize_kstar(d) is None
    _report(3, "six margin-(-1) families all behave exactly as required")


def test_criterion_04_exceptional_families():
    for p in (2, 3, 4):
        d = gen_kstar(p, p)
        assert condition_a_k(d, 0).holds
        margin = ak_margin(d)
        assert not margin.unbounded and margin.max_k == 2, f"kstar({p},{p}): {margin}"
        assert hamiltonian_cycle(d) is not None
        assert cycle_spectrum(d).present == tuple(range(2, 2 * p + 1, 2))
    _report(4, "balanced bipartite digraphs: margin +2, hamiltonian, even spectrum")


def test_criterion_05_paired_low_degree_over_all_hits():
    for n in (4, 5):
        res, _ = _timed(CampaignSpec(claim="lemma35", n=n))
        assert res.scanned == 1 << (n * (n - 1))
        assert res.counterexamples == (), f"property failed at order {n}"
        assert res.verified == res.hypothesis_hits
    _report(5, "paired-low-degree property held on every hypothesis hit of 01-02")


def test_criterion_06_constructive_lemma_suite():
    samples = 700_000
    res, dt = _timed(
        CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=samples, seed=0)
    )
    assert res.scanned == samples
    assert res.counterexamples == (), "a constructive operation failed or mis-built a witness"
    for kind in ("external_cycles", "insertion", "absorption", "merge"):
        sub = res.detail[kind]
        assert sub["hits"] >= 100_000, f"{kind}: only {sub['hits']} hypothesis hits"
        assert sub["successes"] == sub["hits"], f"{kind}: {sub}"
    _report(6, "hits per lemma: " + ", ".join(
        f"{kind}={res.detail[kind]['hits']}" for kind in sorted(res.detail)
    ) + f" ({dt:.0f}s); all succeeded, all witnesses validated")


def test_criterion_07_tournament_exception_class():
    res, dt = _timed(CampaignSpec(claim="bypass_claim", n=5))
    assert res.scanned == 1024
    assert len(res.exceptions) == 1, f"expected one isomorphism class, got {len(res.exceptions)}"
    assert dt < 5.0, f"tournament scan took {dt:.2f}s (bound 5s)"
    _report(7, f"exactly one bypass-free class ({res.exceptions[0].count} labeled copies, "
               f"{dt:.2f}s)")


def test_criterion_08_pancyclicity_conjecture_campaign():
    candidates = 0
    for n in (4, 5):
        res, _ = _timed(CampaignSpec(claim="conj19", n=n))
        assert res.complete and res.scanned == 1 << (n * (n - 1))
        for cex in res.counterexamples:
            assert cex.detail.get("conjecture_candidate") is True
        candidates += len(res.counterexamples)
    for n in (6, 7):
        res, _ = _timed(
            CampaignSpec(
                claim="conj19", n=n, mode="sample", samples=1_000_000, arc_prob=0.5, seed=42
            )
        )
        assert res.scanned == 1_000_000
        assert res.verified + len(res.counterexamples) == res.hypothesis_hits
        for cex in res.counterexamples:
            assert cex.detail.get("conjecture_candidate") is True
        candidates += len(res.counterexamples)
    # candidates are reported, never failed on; zero is the expected observation
    _report(8, f"exhaustive orders 4-5 plus 2e6 samples: {candidates} conjecture candidates")


def test_criterion_09_cycle_search_matches_naive_oracle():
    rng = SplitMix64(20240819)
    digraphs = 10_000
    checked = 0
    for _ in range(digraphs):
        n = 2 + rng.next() % 6  # orders 2..7
        arc_bits = rng.next()
        rows = [0] * n
        bit = 0
        for u in range(n):
            for v in range(n):
                if v != u:
                    rows[u] |= (arc_bits >> bit & 1) << v
                    bit += 1
        d = from_rows(n, rows)
        for length in range(2, n + 1):
            ours = find_cycle_of_length(d, length)
            brute = oracle_cycle_of_length(d, length)
            assert (ours is None) == (brute is None), (
                f"disagreement at n={n}, length={length}, rows={rows}"
            )
            if ours is not None:
                ours.validate(d)
            checked += 1
    _report(9, f"{digraphs} digraphs, {checked} (digraph, length) comparisons, 0 disagreements")


def test_criterion_10_infrastructure_determinism():
    # shard merge == single run, both exhaustive and sampled
    single = run_campaign(CampaignSpec(claim="thm110", n=4))
    parts = [
        run_campaign(CampaignSpec(claim="thm110", n=4, shard=i, shards=3)) for i in range(3)
    ]
    assert merge_results(parts) == single
    assert run_sharded(CampaignSpec(claim="thm110", n=4), jobs=3) == single

    sampled_spec = dict(claim="conj19", n=6, mode="sample", samples=20_000, arc_prob=0.5, seed=42)
    sampled = run_campaign(CampaignSpec(**sampled_spec))
    shards = [run_campaign(CampaignSpec(shard=i, shards=4, **sampled_spec)) for i in range(4)]
    assert merge_results(shards) == sampled

    # checkpoint resume == uninterrupted
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        cp = os.path.join(td, "cp.json")
        spec = CampaignSpec(claim="thm110", n=4, checkpoint_path=cp)
        partial = run_campaign(spec, stop_after=700)
        assert not partial.complete
        resumed = run_campaign(spec)
        clean = run_campaign(CampaignSpec(claim="thm110", n=4))
        assert resumed.scanned == clean.scanned
        assert resumed.strong == clean.strong
        assert resumed.hypothesis_hits == clean.hypothesis_hits
        assert resumed.verified == clean.verified
        assert resumed.detail == clean.detail
        assert resumed.counterexamples == clean.counterexamples

    # byte-identical seeded generation
    for seed in (0, 42, 2**40):
        assert serialize(gen_random_strong(6, 0.5, seed)) == serialize(
            gen_random_strong(6, 0.5, seed)
        )
    a = run_campaign(CampaignSpec(**sampled_spec))
    assert a == sampled
    _report(10, "shard merge, checkpoint resume, and seeded generation all reproduce exactly")
