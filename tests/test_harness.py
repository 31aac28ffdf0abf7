from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs
from oracles import oracle_lemma_inputs
from hamlab import harness, scan
from hamlab.conditions import holds_a_k_rows
from hamlab.cycles import cycle_spectrum, hamiltonian_bypass, hamiltonian_cycle
from hamlab.digraph import Digraph, is_strong, parse, serialize, strong_rows
from hamlab.generators import (
    derived_seed,
    enum_bits,
    gen_kstar,
    gen_two_cliques,
    rows_from_index,
)
from hamlab.harness import (
    CampaignError,
    CampaignSpec,
    CheckpointError,
    Counterexample,
    ExceptionClass,
    audit_sharpness,
    checkpoint_load,
    checkpoint_save,
    classify,
    merge_results,
    run_campaign,
    run_sharded,
    _judge,
)


# --- spec validation -----------------------------------------------------------


def test_spec_rejects_bad_inputs():
    bad = [
        dict(claim="nope", n=4),
        dict(claim="thm15", n=3),
        dict(claim="thm15", n=65),
        dict(claim="thm15", n=4, mode="stochastic"),
        dict(claim="lemma_suite", n=8, mode="exhaustive"),
        dict(claim="thm15", n=4, shard=1),
        dict(claim="thm15", n=4, shard=2, shards=2),
        dict(claim="thm15", n=4, mode="sample"),
        dict(claim="thm15", n=4, mode="sample", samples=10, arc_prob=0.0),
        dict(claim="thm15", n=4, samples=5),
        dict(claim="thm15", n=7),  # 42 bits > enumeration cap
        dict(claim="bypass_claim", n=9),
        dict(claim="thm15", n=4, seed=-1),
        dict(claim="thm15", n=4, seed=1 << 64),
    ]
    for kwargs in bad:
        with pytest.raises(CampaignError):
            CampaignSpec(**kwargs)


def test_spec_fingerprint_ignores_checkpoint_path():
    a = CampaignSpec(claim="thm15", n=4)
    b = CampaignSpec(claim="thm15", n=4, checkpoint_path="/tmp/x.json")
    assert a.fingerprint() == b.fingerprint()
    c = CampaignSpec(claim="thm15", n=4, seed=1)
    assert a.fingerprint() != c.fingerprint()


def test_spec_json_roundtrip():
    spec = CampaignSpec(claim="conj19", n=6, mode="sample", samples=100, arc_prob=0.3, seed=9)
    again = CampaignSpec.from_json(spec.identity())
    assert again == spec


@pytest.mark.parametrize(
    "key", ["claim", "n", "mode", "shard", "shards", "samples", "arc_prob", "seed"]
)
def test_spec_from_json_requires_every_identity_key(key):
    data = CampaignSpec(claim="thm15", n=5).identity()
    del data[key]
    with pytest.raises(CampaignError, match=key):
        CampaignSpec.from_json(data)


def test_lemma_suite_order_capped_at_8():
    CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=10)
    for n in (9, 10, 64):
        with pytest.raises(CampaignError):
            CampaignSpec(claim="lemma_suite", n=n, mode="sample", samples=10)


# --- classification --------------------------------------------------------------


def test_classify_kstar22():
    rec = classify(gen_kstar(2, 2))
    assert rec.strong and rec.a0 and rec.hamiltonian
    assert not rec.pre_hamiltonian and not rec.pancyclic
    assert rec.kstar_balanced == (2, 2)
    assert rec.ham_bypass
    assert rec.ak_margin.max_k == 2


def test_classify_two_cliques():
    rec = classify(gen_two_cliques(3))
    assert rec.strong and not rec.a0 and not rec.hamiltonian
    assert rec.kstar_balanced is None
    assert rec.ak_margin.max_k == -1


@given(digraphs(min_n=3, max_n=5))
def test_classify_consistent_with_module_predicates(d: Digraph):
    rec = classify(d)
    spectrum = cycle_spectrum(d)
    assert rec.strong == is_strong(d)
    assert rec.hamiltonian == (d.n in spectrum.present)
    assert rec.pre_hamiltonian == (d.n - 1 in spectrum.present)
    assert rec.pancyclic == spectrum.pancyclic
    assert rec.ham_bypass == (hamiltonian_bypass(d) is not None)
    if rec.a3:
        assert rec.a0  # slack is monotone


# --- vector kernels vs scalar over the whole order-4 space ------------------------


def test_vector_kernels_match_scalar_over_full_n4_space():
    n = 4
    total = 1 << enum_bits(n)
    indices = np.arange(total, dtype=np.uint64)
    rows_v = scan.decode_rows(n, indices)
    strong_v = scan.strong_flags(n, rows_v)
    a0_v = scan.triple_condition_flags(n, rows_v, 0)
    a3_v = scan.triple_condition_flags(n, rows_v, 3)
    for i in range(total):
        rows = rows_from_index(n, i)
        assert [int(r) for r in rows_v[i]] == rows
        assert bool(strong_v[i]) == strong_rows(n, rows)
        assert bool(a0_v[i]) == holds_a_k_rows(n, rows, 0)
        assert bool(a3_v[i]) == holds_a_k_rows(n, rows, 3)


# --- judging -----------------------------------------------------------------------


def test_judge_spanning_cycle_claim():
    ok, branch, detail, missing = _judge("thm15", 4, list(gen_kstar(2, 2).out))
    assert ok and branch is None and missing == 0
    ok, _, detail, missing = _judge("thm15", 5, list(gen_two_cliques(3).out))
    assert not ok and missing == 1 << 5


def test_judge_preham_or_kstar_claim():
    ok, branch, _, missing = _judge("thm110", 4, list(gen_kstar(2, 2).out))
    assert ok and branch == "kstar" and missing == 1 << 3
    complete = [0b11110 ^ (1 << v) for v in range(4)]
    complete = [(0b1111 & ~(1 << v)) for v in range(4)]
    ok, branch, _, _ = _judge("thm110", 4, complete)
    assert ok and branch == "pre_hamiltonian"


def test_judge_conjecture_candidate_detail():
    ok, _, detail, missing = _judge("conj19", 6, list(gen_kstar(3, 3).out))
    assert not ok
    assert detail == {"conjecture_candidate": True, "missing_lengths": [3, 5]}
    assert missing == 1 << 3 | 1 << 5


# --- campaigns: frozen exhaustive numbers -------------------------------------------


def test_thm15_campaign_n4_frozen_counts():
    res = run_campaign(CampaignSpec(claim="thm15", n=4))
    assert res.scanned == 4096
    assert res.strong == 1606
    assert res.hypothesis_hits == 660
    assert res.verified == 660
    assert res.counterexamples == ()
    assert res.complete and res.cursor is None
    assert res.to_json()["cursor"] is None


def test_thm110_campaign_n4_frozen_counts():
    res = run_campaign(CampaignSpec(claim="thm110", n=4))
    assert res.scanned == 4096
    assert res.hypothesis_hits == 660
    assert res.detail == {"pre_hamiltonian": 657, "kstar": 3}
    assert res.counterexamples == ()


def test_lemma35_campaign_n4_no_failures():
    res = run_campaign(CampaignSpec(claim="lemma35", n=4))
    assert res.scanned == 4096
    assert res.hypothesis_hits == 660
    assert res.verified == 660
    assert res.counterexamples == ()


def test_conj19_campaign_n4_no_candidates():
    res = run_campaign(CampaignSpec(claim="conj19", n=4))
    assert res.scanned == 4096
    assert res.counterexamples == ()
    assert res.hypothesis_hits == res.verified


def test_bypass_campaign_n5_single_exception_class():
    res = run_campaign(CampaignSpec(claim="bypass_claim", n=5))
    assert res.scanned == 1024
    assert res.strong == 544
    assert res.hypothesis_hits == 544
    assert res.verified == 544
    assert len(res.exceptions) == 1
    assert res.exceptions[0].count == 40
    assert res.detail == {"exception_members": 40}
    d = parse(res.exceptions[0].digraph)
    assert is_strong(d) and hamiltonian_bypass(d) is None
    assert hamiltonian_cycle(d) is not None  # strong tournaments are hamiltonian


def test_long_run_gate():
    with pytest.raises(CampaignError):
        run_campaign(CampaignSpec(claim="thm15", n=6))
    with pytest.raises(CampaignError):
        run_campaign(CampaignSpec(claim="bypass_claim", n=7))


# --- the block hit stage ---------------------------------------------------------------


def _mutate(monkeypatch, name: str, change) -> None:
    """Replace ``scan.<name>`` by a version whose output ``change`` edits in place."""
    original = getattr(scan, name)

    def mutated(*args):
        out = original(*args)
        change(args[0], out)
        return out

    monkeypatch.setattr(scan, name, mutated)


#: a cycle length each claim's conclusion needs, by order
_NEEDED_LENGTH = {"thm15": lambda n: n, "thm110": lambda n: n - 1, "conj19": lambda n: 3}


@pytest.mark.parametrize("claim", sorted(_NEEDED_LENGTH))
@pytest.mark.parametrize("hit", [0, -1], ids=["first-hit", "later-hit"])
def test_dropped_cycle_length_is_caught(monkeypatch, claim, hit):
    def drop(n, out):
        out[hit] &= ~np.uint16(1 << _NEEDED_LENGTH[claim](n))

    _mutate(monkeypatch, "cycle_lengths", drop)
    with pytest.raises(RuntimeError, match="conclusion judges disagree"):
        run_campaign(CampaignSpec(claim=claim, n=5))


def test_flipped_lemma35_verdict_is_caught(monkeypatch):
    def flip(n, out):
        out[-1] = False

    _mutate(monkeypatch, "lemma35_flags", flip)
    with pytest.raises(RuntimeError, match="conclusion judges disagree"):
        run_campaign(CampaignSpec(claim="lemma35", n=5))


@pytest.mark.parametrize(
    "spec",
    [
        CampaignSpec(claim="thm15", n=5),
        CampaignSpec(claim="conj19", n=7, mode="sample", samples=4000, arc_prob=0.7, seed=2),
    ],
    ids=["exhaustive", "sampled"],
)
def test_rejected_vector_confirmation_is_caught(monkeypatch, spec):
    def reject(n, out):
        out[-1] = False

    _mutate(monkeypatch, "confirm_flags", reject)
    with pytest.raises(RuntimeError, match="vector confirmation disagree"):
        run_campaign(spec)


def test_sampled_order9_takes_scalar_route_frozen_counts(monkeypatch):
    def unused(*args):
        raise AssertionError("hit-block kernels called above their order cap")

    for name in ("confirm_flags", "cycle_lengths", "lemma35_flags"):
        monkeypatch.setattr(scan, name, unused)
    res = run_campaign(
        CampaignSpec(claim="conj19", n=9, mode="sample", samples=2000, arc_prob=0.7, seed=19)
    )
    assert res.scanned == res.strong == 2000
    assert res.hypothesis_hits == res.verified == 754
    assert res.counterexamples == ()


def test_negative_verdicts_keep_scalar_detail(monkeypatch):
    # below the slack-0 bound thm15 and conj19 have real failures
    monkeypatch.setitem(harness._CLAIM_SLACK, "thm15", -4)
    monkeypatch.setitem(harness._CLAIM_SLACK, "conj19", -4)
    res = run_campaign(CampaignSpec(claim="thm15", n=4))
    assert len(res.counterexamples) == res.hypothesis_hits - res.verified == 412
    assert [c.index for c in res.counterexamples] == sorted(c.index for c in res.counterexamples)
    for c in res.counterexamples:
        assert c.detail == {"claim": "thm15", "reason": "no spanning cycle"}
        assert hamiltonian_cycle(parse(c.digraph)) is None
    res = run_campaign(CampaignSpec(claim="conj19", n=4))
    assert len(res.counterexamples) == 505
    for c in res.counterexamples:
        missing = [k for k in range(3, 5) if k not in cycle_spectrum(parse(c.digraph)).present]
        assert c.detail == {"claim": "conj19", "conjecture_candidate": True, "missing_lengths": missing}


def test_sampled_bypass_claim_frozen_counts():
    res = run_campaign(
        CampaignSpec(claim="bypass_claim", n=5, mode="sample", samples=7000, arc_prob=0.5, seed=1)
    )
    assert res.scanned == res.strong == 7000
    assert res.hypothesis_hits == res.verified == 1185
    assert res.counterexamples == ()
    assert res.detail == {"exception_members": 1}
    assert [(e.index, e.count) for e in res.exceptions] == [(6759, 1)]
    assert hamiltonian_bypass(parse(res.exceptions[0].digraph)) is None


def test_bypass_campaign_n6_frozen_counts():
    res = run_campaign(CampaignSpec(claim="bypass_claim", n=6))
    assert res.scanned == 32_768
    assert res.strong == res.hypothesis_hits == res.verified == 22_320
    assert res.counterexamples == () and res.exceptions == ()
    assert res.detail == {"exception_members": 0}


@pytest.mark.parametrize(
    "spec",
    [
        CampaignSpec(claim="bypass_claim", n=6),
        CampaignSpec(claim="bypass_claim", n=6, mode="sample", samples=2000, seed=3),
    ],
    ids=["exhaustive", "sampled"],
)
def test_flipped_bypass_verdict_is_caught(monkeypatch, spec):
    def flip(n, out):
        out[-1] = ~out[-1]

    _mutate(monkeypatch, "bypass_flags", flip)
    with pytest.raises(RuntimeError, match="conclusion judges disagree"):
        run_campaign(spec)


def test_tournament_decode_is_spot_checked(monkeypatch):
    def reverse_first_pair(n, out):
        out[0, :2] ^= np.array([2, 1], dtype=np.uint64)

    _mutate(monkeypatch, "tournament_rows", reverse_first_pair)
    with pytest.raises(RuntimeError, match="tournament decodes disagree"):
        run_campaign(CampaignSpec(claim="bypass_claim", n=5))


@pytest.mark.parametrize("claim", ["lemma_suite"])
def test_hit_judges_reject_claims_they_do_not_judge(claim):
    rows = np.zeros((1, 5), dtype=np.uint64)
    with pytest.raises(CampaignError, match="no conclusion judge"):
        harness._vector_gaps(claim, 5, rows)
    with pytest.raises(CampaignError, match="no conclusion judge"):
        _judge(claim, 5, [0] * 5)


def test_tournament_hits_confirmed_once(monkeypatch):
    # the scalar route takes the block's first hit and the 40 members
    # without a bypass; the vector judge settles the other 503 hits
    calls = {"holds_a_k_rows": 0, "hamiltonian_bypass_rows": 0}

    def counting(name):
        original = getattr(harness, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(harness, name, counted)

    for name in calls:
        counting(name)
    res = run_campaign(CampaignSpec(claim="bypass_claim", n=5))
    assert res.strong == res.hypothesis_hits == 544
    assert calls == {"holds_a_k_rows": 41, "hamiltonian_bypass_rows": 41}


# --- sampling ------------------------------------------------------------------------


def test_sampled_campaign_is_deterministic():
    spec = CampaignSpec(claim="conj19", n=6, mode="sample", samples=4000, arc_prob=0.5, seed=11)
    a = run_campaign(spec)
    b = run_campaign(spec)
    assert a == b
    assert a.scanned == a.strong == 4000


def test_sampled_campaign_seed_changes_stream():
    base = dict(claim="conj19", n=6, mode="sample", samples=2000, arc_prob=0.5)
    a = run_campaign(CampaignSpec(seed=1, **base))
    b = run_campaign(CampaignSpec(seed=2, **base))
    assert a.hypothesis_hits != b.hypothesis_hits or a.detail != b.detail


def test_lemma_suite_campaign_counts_every_lemma():
    res = run_campaign(CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=3000, seed=5))
    assert res.scanned == 3000
    # frozen: which cycle or path each search returns decides what is tested
    assert res.strong == 1768
    assert res.detail == {
        "external_cycles": {"hits": 552, "successes": 552},
        "insertion": {"hits": 658, "successes": 658},
        "absorption": {"hits": 468, "successes": 468},
        "merge": {"hits": 528, "successes": 528},
    }
    assert res.counterexamples == ()
    assert res.hypothesis_hits == res.verified == 2206


@pytest.mark.parametrize("seed", [0, 0x9E3779B97F4A7C15])
def test_lemma_inputs_match_scalar_stream(seed):
    ordinals = np.arange(4096, dtype=np.uint64)
    for top in range(3, 9):
        orders, rows, strong, pairs = harness._lemma_inputs(seed, top, ordinals)
        for j in range(ordinals.size):
            n, want_rows, want_pairs = oracle_lemma_inputs(seed, top, j)
            assert orders[j] == n
            assert rows[j].tolist() == want_rows + [0] * (top - n)
            assert strong[j] == strong_rows(n, want_rows)
            assert pairs[:, j].tolist() == want_pairs


def test_flipped_lemma_strong_flag_is_caught(monkeypatch):
    true_flags = scan.strong_flags

    def flip_first(n, rows):
        flags = true_flags(n, rows)
        flags[0] = not flags[0]
        return flags

    monkeypatch.setattr(scan, "strong_flags", flip_first)
    spec = CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=300, seed=5)
    with pytest.raises(RuntimeError, match="strong screens disagree"):
        run_campaign(spec)


# --- sharding and merging ---------------------------------------------------------------


def test_shard_merge_equals_single_run_exhaustive():
    single = run_campaign(CampaignSpec(claim="thm110", n=4))
    parts = [run_campaign(CampaignSpec(claim="thm110", n=4, shard=i, shards=3)) for i in range(3)]
    merged = merge_results(parts)
    assert merged == single


def test_shard_merge_equals_single_run_sampled():
    base = dict(claim="conj19", n=6, mode="sample", samples=3000, arc_prob=0.5, seed=3)
    single = run_campaign(CampaignSpec(**base))
    parts = [run_campaign(CampaignSpec(shard=i, shards=4, **base)) for i in range(4)]
    merged = merge_results(parts)
    assert merged == single


def test_shard_merge_equals_single_run_bypass():
    single = run_campaign(CampaignSpec(claim="bypass_claim", n=5))
    parts = [run_campaign(CampaignSpec(claim="bypass_claim", n=5, shard=i, shards=3)) for i in range(3)]
    assert all(p.exceptions for p in parts)  # every shard holds members of the one class
    assert merge_results(parts) == single


def test_run_sharded_pool_equals_single():
    spec = CampaignSpec(claim="thm15", n=4)
    assert run_sharded(spec, jobs=3) == run_campaign(spec)


def test_merge_rejects_mixed_or_partial_inputs():
    a = run_campaign(CampaignSpec(claim="thm15", n=4, shard=0, shards=2))
    b = run_campaign(CampaignSpec(claim="thm15", n=4, shard=1, shards=2))
    with pytest.raises(CampaignError):
        merge_results([a, a])
    with pytest.raises(CampaignError):
        merge_results([a])
    c = run_campaign(CampaignSpec(claim="thm110", n=4, shard=1, shards=2))
    with pytest.raises(CampaignError):
        merge_results([a, c])
    partial = run_campaign(CampaignSpec(claim="thm15", n=4, shard=1, shards=2), stop_after=10)
    with pytest.raises(CampaignError):
        merge_results([a, partial])


# --- checkpoints --------------------------------------------------------------------------


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    cp = str(tmp_path / "resume.json")
    spec = CampaignSpec(claim="thm110", n=4, checkpoint_path=cp)
    partial = run_campaign(spec, stop_after=600)
    assert not partial.complete
    assert partial.cursor is not None
    assert os.path.exists(cp)
    resumed = run_campaign(spec)
    clean = run_campaign(CampaignSpec(claim="thm110", n=4))
    assert resumed.complete
    assert resumed.scanned == clean.scanned
    assert resumed.strong == clean.strong
    assert resumed.hypothesis_hits == clean.hypothesis_hits
    assert resumed.verified == clean.verified
    assert resumed.detail == clean.detail
    assert resumed.counterexamples == clean.counterexamples


def test_checkpoint_resume_sampled(tmp_path):
    cp = str(tmp_path / "sample.json")
    base = dict(claim="conj19", n=6, mode="sample", samples=2000, arc_prob=0.5, seed=13)
    spec = CampaignSpec(checkpoint_path=cp, **base)
    partial = run_campaign(spec, stop_after=700)
    assert not partial.complete
    resumed = run_campaign(spec)
    clean = run_campaign(CampaignSpec(**base))
    assert resumed.scanned == clean.scanned and resumed.detail == clean.detail
    assert resumed.hypothesis_hits == clean.hypothesis_hits


RESUME_SPECS = {
    claim: CampaignSpec(claim=claim, n=4) for claim in ("thm15", "thm110", "lemma35", "conj19")
}
RESUME_SPECS["bypass_claim"] = CampaignSpec(claim="bypass_claim", n=5)
RESUME_SPECS["conj19-sampled"] = CampaignSpec(
    claim="conj19", n=6, mode="sample", samples=2000, arc_prob=0.6, seed=13
)
RESUME_SPECS["bypass_claim-sampled"] = CampaignSpec(
    claim="bypass_claim", n=5, mode="sample", samples=2000, arc_prob=0.5, seed=1
)
RESUME_SPECS["lemma_suite"] = CampaignSpec(claim="lemma_suite", n=6, mode="sample", samples=600, seed=5)


@lru_cache(maxsize=None)
def _uninterrupted(name: str):
    return run_campaign(RESUME_SPECS[name])


@given(
    st.sampled_from(sorted(RESUME_SPECS)),
    st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=3),
)
@settings(max_examples=40)
def test_resume_equals_uninterrupted_for_every_claim(name, stops):
    base = RESUME_SPECS[name]
    with tempfile.TemporaryDirectory() as tmp:
        spec = replace(base, checkpoint_path=os.path.join(tmp, "resume.json"))
        for stop in stops:
            run_campaign(spec, stop_after=stop)
        resumed = run_campaign(spec)
    assert replace(resumed, spec=base) == _uninterrupted(name)


def test_checkpoint_rejects_other_spec(tmp_path):
    cp = str(tmp_path / "cp.json")
    spec = CampaignSpec(claim="thm15", n=4, checkpoint_path=cp)
    run_campaign(spec, stop_after=100)
    other = CampaignSpec(claim="thm15", n=4, seed=1, checkpoint_path=cp)
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, other)
    with pytest.raises(CheckpointError):
        run_campaign(other)


def test_checkpoint_rejects_corrupt_file(tmp_path):
    cp = tmp_path / "corrupt.json"
    cp.write_text('{"fingerprint": "xyz", "cursor": ')
    spec = CampaignSpec(claim="thm15", n=4, checkpoint_path=str(cp))
    with pytest.raises(CheckpointError) as exc:
        checkpoint_load(str(cp), spec)
    assert "position" in str(exc.value)


def test_checkpoint_rejects_missing_keys(tmp_path):
    cp = str(tmp_path / "short.json")
    spec = CampaignSpec(claim="thm15", n=4, checkpoint_path=cp)
    checkpoint_save(cp, spec, {"cursor": 0})
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, spec)


def _tampered_checkpoint(tmp_path, **changes):
    """A real mid-run checkpoint of thm15 n=4, shard 0 of 3, with fields overwritten."""
    cp = str(tmp_path / "tampered.json")
    spec = CampaignSpec(claim="thm15", n=4, shards=3, checkpoint_path=cp)
    run_campaign(spec, stop_after=300)
    with open(cp, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key, change in changes.items():
        payload[key] = change(payload[key])
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return cp, spec


@pytest.mark.parametrize(
    "field, change",
    [
        ("cursor", lambda c: c + 1),  # not a position of shard 0 of 3
        ("cursor", lambda c: -5),
        ("cursor", lambda c: (1 << 12) + 5),  # aligned, but past space + shards
        ("cursor", lambda c: str(c)),
        ("scanned", lambda v: -1),
        ("strong", lambda v: -1),
        ("hypothesis_hits", lambda v: -1),
        ("verified", lambda v: -1),
        ("verified", lambda v: v + 1),  # verified + counterexamples > hits
        ("counterexamples", lambda v: 5),
    ],
    ids=[
        "cursor-misaligned", "cursor-negative", "cursor-past-end", "cursor-not-int",
        "scanned-negative", "strong-negative", "hits-negative", "verified-negative",
        "verified-above-hits", "counterexamples-not-list",
    ],
)
def test_checkpoint_rejects_inconsistent_state(tmp_path, field, change):
    cp, spec = _tampered_checkpoint(tmp_path, **{field: change})
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, spec)
    with pytest.raises(CheckpointError):
        run_campaign(spec)


def test_checkpoint_rejects_malformed_counterexample(tmp_path):
    cp, spec = _tampered_checkpoint(
        tmp_path, counterexamples=lambda v: [{"index": 0}], hypothesis_hits=lambda h: h + 1
    )
    with pytest.raises(CheckpointError):
        run_campaign(spec)


def test_checkpoint_accepts_last_cursor_of_a_finished_shard(tmp_path):
    cp, spec = _tampered_checkpoint(tmp_path)
    finished = run_campaign(spec)
    assert finished.complete
    assert checkpoint_load(cp, spec)["cursor"] == 4096 + 2  # last position 4095, plus 3
    assert run_campaign(spec) == finished


# --- serialization -------------------------------------------------------------------------


def test_counterexample_roundtrip():
    d = gen_two_cliques(3)
    cex = Counterexample(index=12, digraph=serialize(d), detail={"missing_lengths": [5]})
    again = Counterexample.from_json(json.loads(json.dumps(cex.to_json())))
    assert again == cex
    assert parse(again.digraph).out == d.out


def test_exception_class_roundtrip():
    d = gen_kstar(2, 2)
    exc = ExceptionClass(index=3, digraph=serialize(d), count=7)
    assert ExceptionClass.from_json(json.loads(json.dumps(exc.to_json()))) == exc


def test_result_json_contract_keys():
    res = run_campaign(CampaignSpec(claim="thm15", n=4))
    data = res.to_json()
    assert set(data) == {
        "claim", "n", "mode", "shard", "shards", "samples", "arc_prob", "seed",
        "scanned", "strong", "hypothesis_hits", "verified", "counterexamples",
        "exceptions", "detail", "cursor", "complete", "elapsed_ms",
    }
    assert data["claim"] == "thm15" and data["complete"] is True


@pytest.mark.parametrize(
    "spec",
    [
        CampaignSpec(claim="thm15", n=4, shard=1, shards=3),
        CampaignSpec(claim="bypass_claim", n=5),
        CampaignSpec(claim="conj19", n=6, mode="sample", samples=5000, arc_prob=0.5, seed=1),
    ],
    ids=["exhaustive", "tournament", "sampled"],
)
def test_partial_result_json_roundtrip(spec):
    partial = run_campaign(spec, stop_after=1000)
    assert not partial.complete and partial.hypothesis_hits
    again = harness.CampaignResult.from_json(json.loads(json.dumps(partial.to_json())))
    assert again == partial


def test_partial_result_cursor_shapes(tmp_path):
    partial = run_campaign(CampaignSpec(claim="thm15", n=4), stop_after=100)
    cur = partial.to_json()["cursor"]
    assert isinstance(cur, dict) and set(cur) == {"n", "index", "shard", "shards"}
    sampled = run_campaign(
        CampaignSpec(claim="conj19", n=6, mode="sample", samples=50000, arc_prob=0.5, seed=1),
        stop_after=100,
    )
    assert isinstance(sampled.to_json()["cursor"], int)


# --- sharpness audit --------------------------------------------------------------------------


def test_audit_sharpness_everything_ok():
    report = audit_sharpness()
    assert report["ok"]
    assert set(report) == {"two_cliques", "kstar_minus_arc", "kstar", "ok"}
    for family in ("two_cliques", "kstar_minus_arc", "kstar"):
        for key, entry in report[family].items():
            assert entry["ok"], (family, key, entry)
    assert set(report["two_cliques"]) == {"2", "3", "4", "5"}
    assert set(report["kstar"]) == {"2", "3", "4"}
