from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamlab import harness, scan
from hamlab.conditions import holds_a_k_rows, lemma35_rows
from hamlab.cycles import find_cycle_rows, find_path_rows, hamiltonian_bypass_rows
from hamlab.digraph import GraphError, strong_rows
from hamlab.generators import (
    GiveUpError,
    derived_seed,
    index_from_rows,
    mix64,
    random_strong_rows,
    rows_from_index,
    tournament_rows_from_index,
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


def test_strong_flags_match_scalar_over_full_order5_space(order5_rows, order5_strong):
    flags = scan.strong_flags(5, order5_rows)
    assert np.array_equal(flags, order5_strong)
    assert int(flags.sum()) == 565_080


def test_sweep_strong_matches_scalar_over_full_order5_space(order5_rows, order5_strong):
    assert np.array_equal(scan._sweep_strong(5, order5_rows), order5_strong)


# --- word decode and strong screens vs their scalar twins --------------------------


def test_decode_rows_match_scalar_decode_over_full_order4_space(order4_rows):
    assert order4_rows.dtype == np.uint64 and order4_rows.shape == (1 << 12, 4)
    assert order4_rows.tolist() == [rows_from_index(4, i) for i in range(1 << 12)]


@pytest.mark.parametrize("n", [6, 8])
def test_decode_rows_match_scalar_decode_on_random_indices(n: int):
    top = (1 << n * (n - 1)) - 1
    rng = np.random.default_rng(n)
    indices = rng.integers(0, top, size=3000, dtype=np.uint64, endpoint=True)
    indices = np.append(indices, np.array([0, top], dtype=np.uint64))
    rows = scan.decode_rows(n, indices)
    assert rows.dtype == np.uint64 and rows.shape == (indices.size, n)
    assert rows.tolist() == [rows_from_index(n, i) for i in indices.tolist()]
    assert [index_from_rows(n, r) for r in rows.tolist()] == indices.tolist()
    # the all-ones index is the complete digraph, whose order-8 word is full
    assert rows[-1].tolist() == [(1 << n) - 1 ^ 1 << u for u in range(n)]
    assert scan.strong_flags(n, rows[-1:]).tolist() == [True]


def test_decode_rows_order_capped():
    with pytest.raises(ValueError):
        scan.decode_rows(9, np.zeros(1, dtype=np.uint64))


STRONG_KERNELS = ["strong_flags", "_sweep_strong"]


@pytest.mark.parametrize("kernel", STRONG_KERNELS)
@pytest.mark.parametrize("n, strong", [(4, 24), (5, 544), (6, 22_320)])
def test_strong_kernels_match_scalar_over_all_tournaments(kernel: str, n: int, strong: int):
    rows = scan.tournament_rows(n, np.arange(1 << n * (n - 1) // 2, dtype=np.uint64))
    flags = getattr(scan, kernel)(n, rows)
    assert flags.tolist() == [strong_rows(n, r) for r in rows.tolist()]
    assert int(flags.sum()) == strong


CYCLE8 = [1 << (u + 1) % 8 for u in range(8)]


@pytest.mark.parametrize("kernel", STRONG_KERNELS)
@pytest.mark.parametrize(
    "n, block",
    [
        (8, [[0xFF ^ 1 << u for u in range(8)]]),
        (8, [CYCLE8]),
        (8, [CYCLE8[:7] + [0]]),
        (8, []),
        (1, [[0], [0]]),
    ],
    ids=["complete", "cycle", "cycle-minus-arc", "empty", "order1"],
)
def test_strong_kernels_on_edge_blocks(kernel: str, n: int, block: list):
    rows = np.array(block, dtype=np.uint64).reshape(-1, n)
    flags = getattr(scan, kernel)(n, rows)
    assert flags.shape == (len(block),)
    assert flags.tolist() == [strong_rows(n, r) for r in block]


@st.composite
def row_blocks(draw, min_n: int = 4, max_n: int = 16):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
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


# --- hit-block kernels vs their scalar twins -------------------------------------


def _scalar_lengths(n: int, row: list[int]) -> int:
    return sum(1 << k for k in range(2, n + 1) if find_cycle_rows(n, row, k) is not None)


def _in_chunks(kernel, rows: np.ndarray, *args) -> np.ndarray:
    """A hit-block kernel over a large block, fed a harness-sized chunk at a time."""
    width = 1 << 15
    return np.concatenate(
        [kernel(rows.shape[1], rows[i : i + width], *args) for i in range(0, rows.shape[0], width)]
    )


@pytest.fixture(scope="module")
def order4_rows() -> np.ndarray:
    return scan.decode_rows(4, np.arange(1 << 12, dtype=np.uint64))


@pytest.fixture(scope="module")
def order5_strong(order5_rows) -> np.ndarray:
    return np.array([strong_rows(5, row) for row in order5_rows.tolist()])


@pytest.mark.parametrize("slack", [0, 3])
def test_confirm_flags_match_scalar_over_full_order4_space(order4_rows, slack: int):
    flags = scan.confirm_flags(4, order4_rows, slack)
    expected = [strong_rows(4, r) and holds_a_k_rows(4, r, slack) for r in order4_rows.tolist()]
    assert flags.tolist() == expected


@pytest.fixture(scope="module")
def order5_confirmed(order5_rows, order5_strong) -> dict[int, np.ndarray]:
    """Scalar strong ∧ triple condition over the full order-5 space, slacks 0 and 3.

    Slack 3 is evaluated only where slack 0 holds: a larger slack only raises
    the bound.
    """
    confirmed = {}
    live = order5_strong
    for slack in (0, 3):
        flags = live.copy()
        for i in np.flatnonzero(live).tolist():
            flags[i] = holds_a_k_rows(5, order5_rows[i].tolist(), slack)
        confirmed[slack] = live = flags
    return confirmed


@pytest.mark.parametrize("slack", [0, 3])
def test_confirm_flags_match_scalar_over_full_order5_space(order5_rows, order5_confirmed, slack):
    flags = _in_chunks(scan.confirm_flags, order5_rows, slack)
    assert np.array_equal(flags, order5_confirmed[slack])


def test_hit_judges_match_scalar_over_full_order4_space(order4_rows):
    rows = order4_rows.tolist()
    assert scan.cycle_lengths(4, order4_rows).tolist() == [_scalar_lengths(4, r) for r in rows]
    assert scan.lemma35_flags(4, order4_rows).tolist() == [lemma35_rows(4, r) for r in rows]
    assert scan.bypass_flags(4, order4_rows).tolist() == [
        hamiltonian_bypass_rows(4, r) is not None for r in rows
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_bypass_flags_match_scalar_over_full_small_spaces(n: int):
    rows = scan.decode_rows(n, np.arange(1 << n * (n - 1), dtype=np.uint64))
    expected = [hamiltonian_bypass_rows(n, r) is not None for r in rows.tolist()]
    assert scan.bypass_flags(n, rows).tolist() == expected


def test_hit_judges_match_scalar_over_order5_hits(order5_rows, order5_confirmed):
    # the slack-3 hits are among the slack-0 hits
    hits = order5_rows[order5_confirmed[0]]
    assert hits.shape[0] == 95_484
    lengths = _in_chunks(scan.cycle_lengths, hits)
    paired = _in_chunks(scan.lemma35_flags, hits)
    for i, row in enumerate(hits.tolist()):
        assert int(lengths[i]) == _scalar_lengths(5, row)
        assert bool(paired[i]) == lemma35_rows(5, row)


@given(row_blocks(min_n=6, max_n=8), st.integers(min_value=0, max_value=6))
def test_hit_kernels_match_scalar_on_random_blocks(block, slack: int):
    n, rows = block
    confirmed = scan.confirm_flags(n, rows, slack)
    lengths = scan.cycle_lengths(n, rows)
    paired = scan.lemma35_flags(n, rows)
    for i, row in enumerate(rows.tolist()):
        assert bool(confirmed[i]) == (strong_rows(n, row) and holds_a_k_rows(n, row, slack))
        assert int(lengths[i]) == _scalar_lengths(n, row)
        assert bool(paired[i]) == lemma35_rows(n, row)


@pytest.mark.parametrize(
    "kernel", ["confirm_flags", "cycle_lengths", "lemma35_flags", "bypass_flags"]
)
def test_hit_kernels_order_capped(kernel):
    n = scan.HIT_MAX_N + 1
    args = (0,) if kernel == "confirm_flags" else ()
    with pytest.raises(ValueError):
        getattr(scan, kernel)(n, np.zeros((1, n), dtype=np.uint64), *args)


# --- tournament decode and bypass judge vs their scalar twins ----------------------


@pytest.mark.parametrize(
    "n, stride", [(5, 1), (6, 1), (7, 97), (8, 12_289)], ids=["5-all", "6-all", "7", "8"]
)
def test_tournament_rows_match_scalar_decode(n: int, stride: int):
    indices = np.arange(0, 1 << n * (n - 1) // 2, stride, dtype=np.uint64)
    if stride > 1:  # the all-ones index too: every pair reversed
        indices = np.append(indices, np.uint64((1 << n * (n - 1) // 2) - 1))
    rows = scan.tournament_rows(n, indices)
    assert rows.dtype == np.uint64 and rows.shape == (indices.size, n)
    assert rows.tolist() == [tournament_rows_from_index(n, i) for i in indices.tolist()]


@pytest.mark.parametrize("n, strong, exceptions", [(5, 544, 40), (6, 22_320, 0)])
def test_bypass_flags_match_scalar_over_strong_tournaments(n: int, strong: int, exceptions: int):
    rows = scan.tournament_rows(n, np.arange(1 << n * (n - 1) // 2, dtype=np.uint64))
    rows = rows[scan.strong_flags(n, rows)]
    assert rows.shape[0] == strong
    flags = scan.bypass_flags(n, rows)
    expected = [hamiltonian_bypass_rows(n, row) is not None for row in rows.tolist()]
    assert flags.tolist() == expected
    assert int((~flags).sum()) == exceptions


@given(row_blocks(min_n=3, max_n=8))
def test_bypass_flags_match_scalar_on_random_blocks(block):
    n, rows = block
    flags = scan.bypass_flags(n, rows)
    assert flags.shape == (rows.shape[0],)
    for i, row in enumerate(rows.tolist()):
        assert bool(flags[i]) == (hamiltonian_bypass_rows(n, row) is not None)


# --- lockstep path search vs the scalar search -------------------------------------


def _scalar_witness(search, rows: np.ndarray, length: np.ndarray, pool: np.ndarray) -> list:
    """The scalar search's witnesses in ``first_paths``' layout, as lists."""
    out = []
    for row, k, p in zip(rows.tolist(), length.tolist(), pool.tolist()):
        found = search(8, row + [0] * (8 - len(row)), k, p) or ()
        out.append(list(found) + [255] * (8 - len(found)))
    return out


@pytest.fixture(scope="module")
def order4_setups(order4_rows) -> tuple[np.ndarray, np.ndarray, dict]:
    """Every order-4 digraph with every pool of its vertices, and the scalar
    witnesses of every length 0..5, keyed by (cyclic, length)."""
    rows = np.repeat(order4_rows, 16, axis=0)
    pool = np.tile(np.arange(16, dtype=np.uint8), order4_rows.shape[0])
    expected = {}
    for cyclic, search in ((False, find_path_rows), (True, find_cycle_rows)):
        for length in range(6):
            want = np.full(rows.shape[0], length, dtype=np.uint8)
            expected[cyclic, length] = _scalar_witness(search, rows, want, pool)
    return rows, pool, expected


@pytest.mark.parametrize("cap", [1, 16, 1 << 10], ids=["cap-1", "cap-16", "uncapped"])
@pytest.mark.parametrize("cyclic", [False, True], ids=["paths", "cycles"])
def test_first_paths_match_scalar_over_full_order4_space(monkeypatch, order4_setups, cyclic, cap):
    # a cap of one pass sends nearly every search to the scalar route, no cap none
    monkeypatch.setattr(scan, "_DFS_CAP", cap)
    rows, pool, expected = order4_setups
    for length in range(6):
        want = np.full(rows.shape[0], length, dtype=np.uint8)
        got = scan.first_paths(rows, want, pool, cyclic)
        assert got.dtype == np.uint8 and got.shape == (rows.shape[0], 8)
        assert got.tolist() == expected[cyclic, length]


@given(row_blocks(min_n=3, max_n=8), st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_first_paths_match_scalar_on_random_blocks(block, seed: int):
    n, rows = block
    rng = np.random.default_rng(seed)
    length = rng.integers(0, n + 2, rows.shape[0]).astype(np.uint8)
    pool = rng.integers(0, 1 << n, rows.shape[0]).astype(np.uint8)
    pool[::3] = (1 << n) - 1  # the whole vertex set, as the lemma bases use
    small = rows.astype(np.uint8)
    for cyclic, search in ((False, find_path_rows), (True, find_cycle_rows)):
        got = scan.first_paths(small, length, pool, cyclic)
        assert got.tolist() == _scalar_witness(search, small, length, pool)


def test_in_rows_transpose_the_arcs():
    rows = np.random.default_rng(8).integers(0, 256, (4096, 8), dtype=np.uint8)
    into = scan.in_rows(rows)
    for v in range(8):
        for w in range(8):
            assert np.array_equal(into[:, w] >> v & 1, rows[:, v] >> w & 1)


@pytest.mark.parametrize("top", range(3, 9))
def test_lemma_setups_match_scalar_setups(top: int):
    # one block of lemma samples: each sample's four (B, Q, gate) triples
    orders, rows, _, pairs = harness._lemma_inputs(top, top, np.arange(4096, dtype=np.uint64))
    base, q, hits = harness._lemma_setups(orders, rows, pairs)
    assert hits.any()
    for j, (n, row, draws) in enumerate(zip(orders.tolist(), rows.tolist(), pairs.T.tolist())):
        for k, kind in enumerate(harness._LEMMA_KEYS):
            length, chooser = draws[2 * k], draws[2 * k + 1]
            got = harness._witness(base[k][j].tolist()), harness._witness(q[k][j].tolist())
            want = harness._lemma_setup(n, row[:n], kind, length, chooser)
            assert (*got, bool(hits[k, j])) == want, (top, j, kind)


@pytest.mark.parametrize("arc_prob", [0.3, 0.5, 0.9, 1.0, 1 - 2**-53])
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


def test_vector_sampler_without_arcs_fails_at_once():
    seeds = scan.seeds_for(1, np.arange(4, dtype=np.uint64))
    for n in (2, 5):
        with pytest.raises(GraphError):
            scan.sample_strong_rows(n, 1e-30, seeds)
    assert scan.sample_strong_rows(1, 1e-30, seeds).tolist() == [[0]] * 4
