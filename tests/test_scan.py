from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamlab import scan
from hamlab.conditions import holds_a_k_rows
from hamlab.digraph import strong_rows
from hamlab.generators import (
    GiveUpError,
    derived_seed,
    mix64,
    random_strong_rows,
)

from oracles import oracle_triple_flags


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=50))
def test_mix_vec_matches_scalar(values: list[int]):
    arr = np.array(values, dtype=np.uint64)
    mixed = scan.mix_vec(arr.copy())
    assert [int(v) for v in mixed] == [mix64(v) for v in values]


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=0, max_value=5000))
def test_seeds_for_matches_derived_seed(seed: int, start: int):
    ordinals = np.arange(start, start + 17, dtype=np.uint64)
    seeds = scan.seeds_for(seed, ordinals)
    assert [int(s) for s in seeds] == [derived_seed(seed, j) for j in range(start, start + 17)]


ALL_ORDER5 = 1 << 20


@pytest.fixture(scope="module")
def order5_rows() -> np.ndarray:
    return scan.decode_rows(5, np.arange(ALL_ORDER5, dtype=np.uint64))


@pytest.mark.parametrize("slack", [0, 1, 2, 3])
def test_triple_flags_match_cubic_oracle_over_full_order5_space(order5_rows, slack: int):
    flags = scan.triple_condition_flags(5, order5_rows, slack)
    assert np.array_equal(flags, oracle_triple_flags(5, order5_rows, slack))


def test_strong_flags_match_scalar_over_full_order5_space(order5_rows):
    flags = scan.strong_flags(5, order5_rows)
    expected = [strong_rows(5, row) for row in order5_rows.tolist()]
    assert flags.tolist() == expected
    assert int(flags.sum()) == 565_080


@st.composite
def row_blocks(draw):
    n = draw(st.integers(min_value=4, max_value=16))
    count = draw(st.integers(min_value=0, max_value=64))
    density = draw(st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    rng = np.random.default_rng(seed)
    arcs = rng.random((count, n, n)) < density
    arcs[:, np.arange(n), np.arange(n)] = False
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    rows = (arcs.astype(np.uint64) * weights).sum(axis=2, dtype=np.uint64)
    return n, rows


@given(row_blocks(), st.integers(min_value=0, max_value=6))
def test_screens_match_scalar_predicates_on_random_blocks(block, slack: int):
    n, rows = block
    strong = scan.strong_flags(n, rows)
    triple = scan.triple_condition_flags(n, rows, slack)
    assert strong.shape == triple.shape == (rows.shape[0],)
    for i, row in enumerate(rows):
        row_list = [int(r) for r in row]
        assert bool(strong[i]) == strong_rows(n, row_list)
        assert bool(triple[i]) == holds_a_k_rows(n, row_list, slack)


@pytest.mark.parametrize("slack", [-(1 << 40), -7, 1 << 40])
def test_triple_flags_extreme_slack(order5_rows, slack: int):
    rows = order5_rows[::97]
    flags = scan.triple_condition_flags(5, rows, slack)
    expected = [holds_a_k_rows(5, row, slack) for row in rows.tolist()]
    assert flags.tolist() == expected


@pytest.mark.parametrize("arc_prob", [0.3, 0.5, 0.9])
def test_vector_sampler_is_bit_exact_with_scalar(arc_prob: float):
    seed = 2024
    ordinals = np.arange(64, dtype=np.uint64)
    seeds = scan.seeds_for(seed, ordinals)
    for n in (6, 7, 10):
        rows = scan.sample_strong_rows(n, arc_prob, seeds)
        for j in range(64):
            expected = random_strong_rows(n, arc_prob, derived_seed(seed, j))
            assert expected is not None
            assert [int(r) for r in rows[j]] == expected


def test_vector_sampler_full_probability_shortcut():
    rows = scan.sample_strong_rows(4, 1.0, scan.seeds_for(0, np.arange(5, dtype=np.uint64)))
    complete = [(0b1111 & ~(1 << v)) for v in range(4)]
    for j in range(5):
        assert [int(r) for r in rows[j]] == complete


def test_vector_sampler_gives_up(monkeypatch):
    import hamlab.scan as scan_mod

    monkeypatch.setattr(scan_mod, "GIVE_UP_AFTER", 50)
    with pytest.raises(GiveUpError):
        scan.sample_strong_rows(6, 0.01, scan.seeds_for(1, np.arange(4, dtype=np.uint64)))
