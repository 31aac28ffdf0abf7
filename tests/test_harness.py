from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs
from oracles import oracle_lemma_inputs
from hamlab import cycles, harness, scan
from hamlab.conditions import holds_a_k_rows
from hamlab.cycles import cycle_spectrum, find_cycle_rows, hamiltonian_bypass, hamiltonian_cycle
from hamlab.digraph import (
    CycleWitness,
    Digraph,
    HypothesisUnmet,
    PathWitness,
    from_rows,
    is_strong,
    parse,
    serialize,
    strong_rows,
)
from hamlab.generators import (
    GiveUpError,
    derived_seed,
    enum_bits,
    gen_kstar,
    gen_two_cliques,
    rows_from_index,
)
from hamlab.harness import (
    CampaignError,
    CampaignResult,
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
        dict(claim="conj19", n=5, mode="sample", samples=1, arc_prob=1e-30),  # draws no arc
        dict(claim="lemma_suite", n=6, mode="sample", samples=10, arc_prob=0.3),
        dict(claim="thm15", n=4, samples=5),
        dict(claim="thm15", n=4, seed=99),  # exhaustive specs read no seed
        dict(claim="thm15", n=4, arc_prob=0.3),  # nor an arc probability
        dict(claim="thm15", n=7),  # 42 bits > enumeration cap
        dict(claim="bypass_claim", n=9),
        dict(claim="bypass_claim", n=9, mode="sample", samples=10),
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
    c = CampaignSpec(claim="thm15", n=4, shards=2)
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
    for claim, free_n in (("thm15", 5), ("bypass_claim", 6)):
        long = CampaignSpec(claim=claim, n=free_n + 1)
        with pytest.raises(CampaignError, match="allow_long"):
            run_campaign(long)
        assert run_campaign(long, stop_after=1, allow_long=True).scanned == 1
        assert run_campaign(CampaignSpec(claim=claim, n=free_n), stop_after=1).scanned == 1


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


def test_lying_strong_screen_is_caught(monkeypatch):
    def pass_all(n, rows):
        return np.ones(rows.shape[0], dtype=bool)

    monkeypatch.setattr(scan, "strong_flags", pass_all)
    with pytest.raises(RuntimeError, match="vector confirmation disagree"):
        run_campaign(CampaignSpec(claim="thm15", n=5))


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
    for claim in ("thm15", "conj19"):
        monkeypatch.setitem(harness._CLAIMS, claim, replace(harness._CLAIMS[claim], slack=-4))
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


def _escaping_cycles(d, c, q):
    # a cycle of every promised length, searched over the whole digraph
    # rather than inside V(C) + V(Q)
    r = len(q)
    return {
        length: CycleWitness(find_cycle_rows(d.n, d.out, length))
        for length in range(r + 1, len(c) + r + 1)
    }


def _reversed_merge(d, p, q):
    return PathWitness(tuple(reversed(cycles.merge_path(d, p, q).vertices)))


_LEMMA_DETAIL_KEYS = ["claim", "lemma", "sample", "stream_seed"]


@pytest.mark.parametrize(
    "kind, name, broken, keys",
    [
        ("insertion", "insert_vertex", lambda d, p, x: None, ["path", "x"]),
        ("external_cycles", "cycles_from_external_vertex", lambda d, c, x: {}, ["cycle", "x"]),
        ("absorption", "absorb_path_into_cycle", _escaping_cycles, ["cycle", "path"]),
        ("merge", "merge_path", _reversed_merge, ["path", "other"]),
    ],
    ids=["insertion", "external_cycles", "absorption", "merge"],
)
def test_broken_lemma_operation_becomes_counterexample(monkeypatch, kind, name, broken, keys):
    monkeypatch.setattr(harness, name, broken)
    res = run_campaign(CampaignSpec(claim="lemma_suite", n=7, mode="sample", samples=600, seed=5))
    assert res.scanned == 600
    assert {c.detail["lemma"] for c in res.counterexamples} == {kind}
    tally = res.detail[kind]
    assert tally["hits"] - tally["successes"] == len(res.counterexamples) > 0
    assert res.hypothesis_hits - res.verified == len(res.counterexamples)
    for c in res.counterexamples:
        assert list(c.detail) == _LEMMA_DETAIL_KEYS + keys + ["error"]
        assert c.detail["claim"] == "lemma_suite"
        assert c.detail["stream_seed"] == derived_seed(5, c.detail["sample"])
        assert c.index == c.detail["sample"]
    if kind == "absorption":  # only some escaping cycles leave the pool
        assert tally["successes"] > 0
    else:
        assert tally["successes"] == 0


def _walks(d, pool, closed):
    """Every path (closed: cycle in canonical rotation) inside ``pool``."""
    members = [v for v in range(d.n) if pool >> v & 1]
    for size in range(1, len(members) + 1):
        for vs in itertools.permutations(members, size):
            steps = zip(vs, vs[1:] + vs[:1] if closed else vs[1:])
            if all(d.has_arc(a, b) for a, b in steps) and not (closed and vs[0] != min(vs)):
                yield vs


def test_lemma_gate_equals_every_operation_hypothesis_over_strong_order4_space():
    checked = 0
    for index in range(1 << enum_bits(4)):
        rows = rows_from_index(4, index)
        if not strong_rows(4, rows):
            continue
        d = from_rows(4, rows)
        for on_cycle in (True, False):
            for base in _walks(d, d.full_mask, on_cycle):
                if not 2 <= len(base) <= 3:  # the lengths the sampler draws
                    continue
                pool = d.full_mask & ~PathWitness(base).mask()
                for q in _walks(d, pool, False):
                    degree, need = cycles.lemma_gate(rows, base, q, on_cycle)
                    gate = degree >= need
                    if not on_cycle and len(q) == 1:
                        # insert_vertex's single-vertex insertion guarantee
                        x = q[0]
                        toward = sum(d.has_arc(x, p) + d.has_arc(p, x) for p in base)
                        to_first, from_last = d.has_arc(x, base[0]), d.has_arc(base[-1], x)
                        assert gate == (
                            toward >= len(base) + 2
                            or (toward >= len(base) + 1 and (not to_first or not from_last))
                            or (toward >= len(base) and not to_first and not from_last)
                        )
                        continue
                    try:
                        if on_cycle:
                            cycles.absorb_path_into_cycle(d, CycleWitness(base), PathWitness(q))
                        else:
                            cycles.merge_path(d, PathWitness(base), PathWitness(q))
                    except HypothesisUnmet:
                        assert not gate, (rows, base, q)
                    else:
                        assert gate, (rows, base, q)
                    checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("seed", [0, 0x9E3779B97F4A7C15])
def test_lemma_inputs_match_scalar_stream(seed):
    ordinals = np.arange(4096, dtype=np.uint64)
    for top in range(3, 9):
        orders, rows, strong, pairs = harness._lemma_inputs(seed, top, ordinals)
        for j in range(ordinals.size):
            n, want_rows, want_pairs = oracle_lemma_inputs(seed, top, j)
            assert orders[j] == n
            assert rows[j].tolist() == want_rows + [0] * (8 - n)
            assert strong[j] == strong_rows(n, want_rows)
            assert pairs[:, j].tolist() == want_pairs


def test_witness_reads_a_row_up_to_its_first_pad():
    assert harness._witness([3, 1, 4, 0, 5, 2, 7, 6]) == (3, 1, 4, 0, 5, 2, 7, 6)
    assert harness._witness([2, 0, 5, 255, 255, 255, 255, 255]) == (2, 0, 5)
    assert harness._witness([255] * 8) is None


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


def _another_witness(row: list[int], witness: list[int], length: int, pool: int, cyclic: bool):
    """The lex-last path (canonical cycle) of ``length`` vertices inside ``pool``
    other than ``witness``, or None."""
    members = [v for v in range(8) if pool >> v & 1]
    for vs in reversed(list(itertools.permutations(members, length))):
        if cyclic and vs[0] != min(vs) or list(vs) == witness[:length]:
            continue
        steps = zip(vs, vs[1:] + vs[:1] if cyclic else vs[1:])
        if all(row[a] >> b & 1 for a, b in steps):
            return vs
    return None


def test_changed_lemma_witness_is_caught(monkeypatch):
    true_paths = scan.first_paths

    def another_first(rows, length, pool, cyclic):
        # a valid witness, but not the lex-first one, at the first chunk's
        # first sample that has another
        witness = true_paths(rows, length, pool, cyclic)
        for s in range(0, rows.shape[0], harness._LEMMA_CHUNK):
            if witness[s, 0] == scan.NO_VERTEX:
                continue
            args = (rows[s].tolist(), witness[s].tolist(), int(length[s]), int(pool[s]), cyclic)
            other = _another_witness(*args)
            if other is not None:
                witness[s, : len(other)] = other
                break
        return witness

    monkeypatch.setattr(scan, "first_paths", another_first)
    spec = CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=300, seed=5)
    with pytest.raises(RuntimeError, match="lemma setups disagree"):
        run_campaign(spec)


def test_cleared_lemma_hit_flag_is_caught(monkeypatch):
    true_setups = harness._lemma_setups

    def clear_first(orders, rows, pairs):
        base, q, hits = true_setups(orders, rows, pairs)
        starts = hits[:, :: harness._LEMMA_CHUNK]  # a view: the chunks' first samples
        k, j = np.argwhere(starts)[0]
        starts[k, j] = False
        return base, q, hits

    monkeypatch.setattr(harness, "_lemma_setups", clear_first)
    spec = CampaignSpec(claim="lemma_suite", n=8, mode="sample", samples=4096, seed=5)
    with pytest.raises(RuntimeError, match="lemma setups disagree"):
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
    other = CampaignSpec(claim="thm15", n=4, shards=2, checkpoint_path=cp)
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, other)
    with pytest.raises(CheckpointError):
        run_campaign(other)


def test_run_that_fails_before_its_first_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "GIVE_UP_AFTER", 20)
    cp = tmp_path / "cp.json"
    spec = CampaignSpec(
        claim="conj19", n=5, mode="sample", samples=4, arc_prob=0.01, checkpoint_path=str(cp)
    )
    with pytest.raises(GiveUpError):
        run_campaign(spec)
    assert list(tmp_path.iterdir()) == []


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
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": spec.fingerprint(), "cursor": 0}, fh)
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, spec)


def _tampered_checkpoint(tmp_path, claim="thm110", n=4, **changes):
    """A real mid-run checkpoint of ``claim`` at order n, shard 0 of 3, with fields overwritten."""
    cp = str(tmp_path / "tampered.json")
    sampled = dict(mode="sample", samples=900) if claim == "lemma_suite" else {}
    spec = CampaignSpec(claim=claim, n=n, shards=3, checkpoint_path=cp, **sampled)
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
        ("detail", lambda d: {}),
        ("detail", lambda d: {**d, "exception_members": 0}),
        ("detail", lambda d: {**d, "kstar": -1}),
        ("detail", lambda d: {**d, "pre_hamiltonian": True}),
        ("detail", lambda d: [0, 0]),
        ("exceptions", lambda e: [{"index": 0, "digraph": "4\n0 1\n1 0\n", "count": 1}]),
    ],
    ids=[
        "cursor-misaligned", "cursor-negative", "cursor-past-end", "cursor-not-int",
        "scanned-negative", "strong-negative", "hits-negative", "verified-negative",
        "verified-above-hits", "counterexamples-not-list", "detail-keys-dropped",
        "detail-stray-key", "detail-negative", "detail-bool", "detail-not-dict",
        "exceptions-on-thm110",
    ],
)
def test_checkpoint_rejects_inconsistent_state(tmp_path, field, change):
    cp, spec = _tampered_checkpoint(tmp_path, **{field: change})
    with pytest.raises(CheckpointError):
        checkpoint_load(cp, spec)
    with pytest.raises(CheckpointError):
        run_campaign(spec)


@pytest.mark.parametrize(
    "change",
    [
        lambda d: {**d, "merge": {"hits": 1}},
        lambda d: {**d, "merge": 3},
        lambda d: {**d, "merge": {**d["merge"], "successes": -1}},
        lambda d: {k: v for k, v in d.items() if k != "insertion"},
    ],
    ids=["inner-key-dropped", "inner-not-dict", "inner-negative", "lemma-dropped"],
)
def test_checkpoint_rejects_a_bad_lemma_detail(tmp_path, change):
    cp, spec = _tampered_checkpoint(tmp_path, "lemma_suite", detail=change)
    with pytest.raises(CheckpointError, match="detail"):
        run_campaign(spec)


_CYCLE5 = {"index": 1, "digraph": "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"}


@pytest.mark.parametrize(
    "exceptions, members",
    [
        (lambda e: e + [{**_CYCLE5, "count": -7}], lambda m: m - 7),
        (lambda e: e + [{**_CYCLE5, "count": 0}], lambda m: m),
        (lambda e: [{**e[0], "count": e[0]["count"] + 1}], lambda m: m),
        (lambda e: [{**e[0], "digraph": "4\n0 1\n1 2\n2 3\n3 0\n"}], lambda m: m),
        (lambda e: [], lambda m: m),
    ],
    ids=["count-negative", "count-zero", "sum-mismatch", "wrong-order", "classes-dropped"],
)
def test_checkpoint_rejects_inconsistent_exception_classes(tmp_path, exceptions, members):
    def detail(d):
        return {"exception_members": members(d["exception_members"])}

    cp, spec = _tampered_checkpoint(
        tmp_path, "bypass_claim", 5, exceptions=exceptions, detail=detail
    )
    with pytest.raises(CheckpointError, match="exception"):
        checkpoint_load(cp, spec)
    with pytest.raises(CheckpointError, match="exception"):
        run_campaign(spec)


def test_checkpoint_keeps_consistent_exception_classes(tmp_path):
    def exceptions(e):
        return e + [{**_CYCLE5, "count": 2}]

    def detail(d):
        return {"exception_members": d["exception_members"] + 2}

    cp, spec = _tampered_checkpoint(
        tmp_path, "bypass_claim", 5, exceptions=exceptions, detail=detail
    )
    result, _ = checkpoint_load(cp, spec)
    assert result.exceptions[-1] == ExceptionClass(1, _CYCLE5["digraph"], 2)
    assert result.detail["exception_members"] == sum(e.count for e in result.exceptions)


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
    assert checkpoint_load(cp, spec)[1] == 4096 + 2  # last position 4095, plus 3
    assert run_campaign(spec) == finished


@pytest.mark.parametrize("stop_after", [300, None], ids=["partial", "complete"])
def test_checkpoint_holds_the_result_json(tmp_path, stop_after):
    cp = str(tmp_path / "cp.json")
    spec = CampaignSpec(claim="thm110", n=4, shards=3, checkpoint_path=cp)
    result = run_campaign(spec, stop_after=stop_after)
    with open(cp, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert CampaignResult.from_json(payload) == replace(
        result, spec=replace(spec, checkpoint_path=None)
    )
    assert checkpoint_load(cp, spec) == (CampaignResult.from_json(payload), payload["cursor"])


def test_checkpoint_refuses_the_nested_spec_format(tmp_path):
    cp = str(tmp_path / "old.json")
    spec = CampaignSpec(claim="thm15", n=4, checkpoint_path=cp)
    old = {
        "fingerprint": spec.fingerprint(), "spec": spec.identity(), "cursor": 1, "scanned": 1,
        "strong": 0, "hypothesis_hits": 0, "verified": 0, "counterexamples": [],
        "exceptions": [], "detail": {}, "elapsed_ms": 3,
    }
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(old, fh)
    with pytest.raises(CheckpointError, match="old.json"):
        checkpoint_load(cp, spec)


def test_checkpoint_save_reports_an_unwritable_path(tmp_path):
    result = run_campaign(CampaignSpec(claim="thm15", n=4), stop_after=10)
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        checkpoint_save(str(tmp_path / "missing" / "cp.json"), result, 10)


@pytest.mark.parametrize("stop_after", [None, 10_000], ids=["whole", "stopped"])
@pytest.mark.parametrize("step", [0.0, 2.0], ids=["frozen-clock", "clock-2s-per-read"])
def test_checkpoint_cadence(tmp_path, monkeypatch, step, stop_after):
    now = [0.0]

    def monotonic():
        now[0] += step
        return now[0]

    saved = []

    def save(path, result, cursor):
        saved.append(cursor)
        checkpoint_save(path, result, cursor)

    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(harness, "checkpoint_save", save)
    cp = str(tmp_path / "cp.json")
    spec = CampaignSpec(claim="bypass_claim", n=6, checkpoint_path=cp)  # 4096-wide blocks
    cursors = []
    result = run_campaign(
        spec, stop_after=stop_after, progress=lambda done, total: cursors.append(done)
    )
    end = 1 << 15 if stop_after is None else stop_after
    assert cursors[-1] == end and len(cursors) == -(-end // 4096)
    assert saved == (cursors if step else [end])  # one save per block, or one at the end
    saved_result = replace(result, spec=replace(spec, checkpoint_path=None))
    assert checkpoint_load(cp, spec) == (saved_result, end)


def test_run_sharded_checkpoints_every_shard_and_resumes(tmp_path):
    cp = str(tmp_path / "cp.json")
    spec = CampaignSpec(claim="thm110", n=4, shards=3, checkpoint_path=cp)
    run_campaign(replace(spec, shard=1, checkpoint_path=f"{cp}.shard1"), stop_after=500)
    merged = run_sharded(spec, jobs=2)
    assert merged == run_campaign(CampaignSpec(claim="thm110", n=4))
    for shard in range(3):
        saved, _ = checkpoint_load(f"{cp}.shard{shard}", replace(spec, shard=shard))
        assert saved.complete
    assert run_sharded(spec, jobs=1) == merged


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
    stored = partial.to_json()
    del stored["elapsed_ms"]  # a committed result leaves out its wall time
    timeless = harness.CampaignResult.from_json(stored)
    assert timeless == partial and timeless.elapsed_ms == 0


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
