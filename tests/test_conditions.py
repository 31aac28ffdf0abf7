from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import digraphs
from hamlab.conditions import (
    VIOLATION_CAP,
    AkMargin,
    ak_margin,
    bgy_18,
    bjgl_16,
    bjgl_17,
    condition_a_k,
    condition_report,
    ghouila_houri,
    holds_a_k_rows,
    lemma35_holds,
    lemma35_rows,
    meyniel,
    min_degree_semidegree,
    woodall,
)
from hamlab.digraph import Digraph, HypothesisUnmet, build, converse, from_rows
from hamlab.generators import (
    enum_labeled,
    gen_directed_cycle,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_random_strong,
    gen_two_cliques,
)
from oracles import oracle_ak_margin, oracle_pair_deficiency


def complete_digraph(n: int) -> Digraph:
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


# --- single-condition vectors -----------------------------------------------


def test_ghouila_houri_vectors():
    assert ghouila_houri(gen_kstar(2, 2)).holds
    verdict = ghouila_houri(gen_directed_cycle(4))
    assert not verdict.holds
    assert verdict.worst == {"vertex": 0, "degree": 2}
    assert ghouila_houri(complete_digraph(3)).holds


def test_woodall_vectors():
    verdict = woodall(gen_directed_cycle(4))
    assert not verdict.holds
    bad_pairs = {(w["x"], w["y"]) for w in verdict.witnesses}
    assert (0, 2) in bad_pairs
    assert woodall(gen_kstar(2, 2)).holds
    assert woodall(complete_digraph(3)).holds


def test_meyniel_vectors():
    assert meyniel(gen_kstar(2, 2)).holds
    verdict = meyniel(gen_two_cliques(2))
    assert not verdict.holds
    assert verdict.witnesses[0]["sum"] == 4 and verdict.witnesses[0]["required"] == 5
    assert meyniel(complete_digraph(3)).holds


def test_min_degree_semidegree_vectors():
    assert min_degree_semidegree(gen_kstar(2, 2)).holds
    assert not min_degree_semidegree(gen_directed_cycle(5)).holds
    assert min_degree_semidegree(complete_digraph(4)).holds


def test_min_degree_semidegree_exact_half_at_odd_order():
    # n=5 needs semi-degree >= 1.5, so exactly 2 passes and exactly 1 fails
    d = gen_two_cliques(3)  # shared vertex semi 4, others semi 2; d(x) >= 4 = n-1
    assert min_degree_semidegree(d).holds
    assert not min_degree_semidegree(gen_directed_cycle(5)).holds



def _pairs(keys, *values):
    return tuple(dict(zip(("x", "y", *keys), v)) for v in values)


FROZEN_WORST = [
    # the least key wins, the first pair on a tie: (0, 3) is not the first violation
    (woodall, gen_kstar_minus_arc(3, 3), {"x": 0, "y": 3, "sum": 4}, _pairs(
        ("sum", "required"), (0, 1, 5, 6), (0, 2, 5, 6), (0, 3, 4, 6), (4, 3, 5, 6), (5, 3, 5, 6)
    )),
    (woodall, gen_two_cliques(2), {"x": 1, "y": 2, "sum": 2}, _pairs(
        ("sum", "required"), (1, 2, 2, 3), (2, 1, 2, 3)
    )),
    (woodall, complete_digraph(4), None, ()),
    (meyniel, gen_directed_cycle(4), {"x": 0, "y": 2, "sum": 4}, _pairs(
        ("sum", "required"), (0, 2, 4, 7), (1, 3, 4, 7)
    )),
    (meyniel, gen_kstar_minus_arc(3, 3), {"x": 0, "y": 1, "sum": 11}, ()),
    (meyniel, complete_digraph(4), None, ()),
    (min_degree_semidegree, gen_directed_cycle(4), {"vertex": 0, "degree": 2}, tuple(
        {"vertex": v, "degree": 2, "out": 1, "in": 1} for v in range(4)
    )),
    (min_degree_semidegree, gen_two_cliques(2), {"vertex": 1, "degree": 2}, ()),
    (bjgl_16, gen_two_cliques(3), {"x": 1, "y": 3, "margin": -1}, _pairs(
        ("d_x", "d_y"), (1, 3, 4, 4), (1, 4, 4, 4), (2, 3, 4, 4), (2, 4, 4, 4)
    )),
    (bjgl_16, gen_kstar_minus_arc(3, 3), {"x": 0, "y": 1, "margin": 0}, ()),
    (bjgl_16, gen_directed_cycle(4), None, ()),
    (bjgl_17, gen_kstar_minus_arc(3, 3), {"x": 0, "y": 1, "sum": 5}, _pairs(
        ("sum", "required"), (0, 1, 5, 6), (0, 2, 5, 6), (3, 4, 5, 6), (3, 5, 5, 6)
    )),
    (bjgl_17, gen_directed_cycle(4), None, ()),
    (bgy_18, gen_two_cliques(3), {"x": 1, "y": 3, "margin": -1}, _pairs(
        ("pair_sum", "semi_sum"), (1, 3, 8, 4), (1, 4, 8, 4), (2, 3, 8, 4), (2, 4, 8, 4)
    )),
    (bgy_18, gen_kstar_minus_arc(3, 3), {"x": 0, "y": 1, "margin": 0}, ()),
    (bgy_18, gen_directed_cycle(4), None, ()),
]


@pytest.mark.parametrize("condition, d, worst, witnesses", FROZEN_WORST)
def test_worst_and_witnesses_frozen(condition, d, worst, witnesses):
    verdict = condition(d)
    assert verdict.worst == worst
    assert verdict.witnesses == witnesses
    assert verdict.holds == (not witnesses)
    assert verdict.total_violations == len(witnesses)


def test_every_verdict_frozen_over_orders_1_to_4():
    # sha256 over the repr of every report field and of lemma35_holds (or its
    # HypothesisUnmet text) for all 4,165 labeled digraphs of orders 1-4, in
    # enumeration order; it pins every witness, worst entry and dict key order
    digest = hashlib.sha256()
    for n in range(1, 5):
        for _, d in enum_labeled(n):
            report = condition_report(d)
            for f in fields(report):
                digest.update(repr(getattr(report, f.name)).encode() + b"\n")
            try:
                digest.update(repr(lemma35_holds(d)).encode() + b"\n")
            except HypothesisUnmet as exc:
                digest.update(f"HypothesisUnmet: {exc}".encode() + b"\n")
    assert digest.hexdigest() == "5ac53d216e90eb898223df7c5f2444f3f540a8329b5955120c7d4ab98a3e3052"

# --- triple condition --------------------------------------------------------


def test_condition_a0_kstar33_holds():
    assert condition_a_k(gen_kstar(3, 3), 0).holds


def test_condition_a0_directed_4cycle_frozen_violation():
    verdict = condition_a_k(gen_directed_cycle(4), 0)
    assert not verdict.holds
    tuples = {(w.x, w.y, w.z, w.clause, w.total, w.required) for w in verdict.witnesses}
    assert (0, 2, 3, "x->z", 6, 10) in tuples


def test_condition_a_k_vacuous_on_complete_digraph():
    assert condition_a_k(complete_digraph(4), 100).holds


def test_violation_list_is_capped():
    empty = from_rows(8, [0] * 8)
    verdict = condition_a_k(empty, 0)
    assert not verdict.holds
    assert len(verdict.witnesses) == VIOLATION_CAP
    assert verdict.total_violations > VIOLATION_CAP


def test_ak_margin_frozen_families():
    assert ak_margin(gen_kstar(3, 3)) == AkMargin(max_k=2)
    assert ak_margin(gen_two_cliques(3)) == AkMargin(max_k=-1)
    assert ak_margin(gen_kstar_minus_arc(3, 3)) == AkMargin(max_k=-1)
    assert ak_margin(gen_directed_cycle(4)) == AkMargin(max_k=-4)
    assert ak_margin(complete_digraph(4)).unbounded


def test_ak_margin_quantifier_variants():
    # with z allowed to coincide with y, tight families keep a bounded margin
    assert ak_margin(gen_kstar(2, 2)) == AkMargin(max_k=2)
    assert ak_margin(gen_two_cliques(2)) == AkMargin(max_k=-1)


EXACT_WORST = [(9, 0.3, seed) for seed in range(50)]
EXACT_WORST += [(20, 0.15, 3), (40, 0.1, 3), (64, 0.06, 3)]


def test_a0_worst_is_the_least_violating_clause():
    # each of these has more than VIOLATION_CAP violations, so the least
    # clause often lies past the capped witnesses
    for n, p, seed in EXACT_WORST:
        d = gen_random_strong(n, p, seed)
        verdict = condition_a_k(d, 0)
        assert verdict.total_violations > VIOLATION_CAP
        assert verdict.worst.total - verdict.worst.required == ak_margin(d).max_k


def test_akmargin_json_shapes():
    assert ak_margin(complete_digraph(3)).to_json() == {"kind": "unbounded"}
    assert ak_margin(gen_kstar(3, 3)).to_json() == {"kind": "bounded", "max_k": 2}


def test_bjgl_16_vectors():
    assert bjgl_16(gen_kstar(2, 2)).holds
    assert bjgl_16(gen_directed_cycle(4)).holds  # vacuous: no common in-neighbour
    verdict = bjgl_16(gen_two_cliques(3))
    assert not verdict.holds


def test_bjgl_17_vectors():
    assert bjgl_17(gen_kstar(2, 2)).holds
    assert not bjgl_17(gen_two_cliques(3)).holds
    assert bjgl_17(complete_digraph(4)).holds


def test_bgy_18_vectors():
    assert bgy_18(gen_kstar(2, 2)).holds
    assert not bgy_18(gen_two_cliques(3)).holds
    assert bgy_18(gen_directed_cycle(4)).holds  # vacuous


def test_lemma35_vectors():
    assert lemma35_holds(gen_kstar(3, 3)).holds
    assert lemma35_holds(complete_digraph(4)).holds
    with pytest.raises(HypothesisUnmet):
        lemma35_holds(gen_two_cliques(3))  # margin -1, hypothesis unmet


def test_condition_report_contract_keys():
    report = condition_report(gen_kstar(2, 2)).to_json()
    assert set(report) == {
        "ghouila_houri",
        "woodall",
        "meyniel",
        "min_degree_semidegree",
        "a0",
        "bjgl_16",
        "bjgl_17",
        "bgy_18",
        "ak_margin",
    }
    for key, value in report.items():
        if key == "ak_margin":
            assert value["kind"] in {"bounded", "unbounded"}
        else:
            assert set(value) == {"holds", "witnesses", "total_violations"}


# --- properties ---------------------------------------------------------------


@given(digraphs())
def test_ak_margin_matches_direct_oracle(d: Digraph):
    got = ak_margin(d)
    want = oracle_ak_margin(d)
    if want is None:
        assert got.unbounded
    else:
        assert not got.unbounded and got.max_k == want


@given(digraphs())
def test_margin_is_the_exact_threshold(d: Digraph):
    margin = ak_margin(d)
    if margin.unbounded:
        assert condition_a_k(d, 10**6).holds
    else:
        assert condition_a_k(d, margin.max_k).holds
        assert not condition_a_k(d, margin.max_k + 1).holds


@given(digraphs(), st.integers(min_value=-5, max_value=5))
def test_condition_monotone_in_slack(d: Digraph, k: int):
    if condition_a_k(d, k).holds:
        assert condition_a_k(d, k - 1).holds


@given(digraphs())
def test_ak_margin_converse_invariant(d: Digraph):
    assert ak_margin(d) == ak_margin(converse(d))


@given(digraphs())
def test_rows_kernel_matches_verdict(d: Digraph):
    for k in (0, 3):
        assert holds_a_k_rows(d.n, d.out, k) == condition_a_k(d, k).holds


@given(digraphs(min_n=2))
def test_ghouila_houri_implies_meyniel(d: Digraph):
    if ghouila_houri(d).holds:
        assert meyniel(d).holds


@given(digraphs(min_n=2))
def test_woodall_implies_meyniel(d: Digraph):
    if woodall(d).holds:
        assert meyniel(d).holds


@given(digraphs())
def test_lemma35_rows_matches_deficiency_oracle(d: Digraph):
    low = oracle_pair_deficiency(d)
    expected = all(len(partners) < 2 for partners in low.values())
    assert lemma35_rows(d.n, d.out) == expected
