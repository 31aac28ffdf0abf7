from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_digraphs, digraphs
from hamlab.cycles import (
    Bypass,
    _cover_path_rows,
    _shortest_interior,
    absorb_path_into_cycle,
    cycle_spectrum,
    cycles_from_external_vertex,
    extend_maximally,
    find_c_bypass,
    find_cycle_of_length,
    find_cycle_rows,
    find_path_rows,
    hamiltonian_bypass,
    hamiltonian_bypass_rows,
    hamiltonian_cycle,
    insert_vertex,
    longest_non_hamiltonian_cycle,
    merge_path,
    pre_hamiltonian_cycle,
)
from hamlab.digraph import (
    CycleWitness,
    Digraph,
    GraphError,
    HypothesisUnmet,
    PathWitness,
    build,
    degree_toward,
    from_rows,
)
from hamlab.generators import (
    gen_directed_cycle,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_two_cliques,
    rows_from_index,
)
from oracles import (
    oracle_cycle_of_length,
    oracle_first_bypass,
    oracle_first_cover_path,
    oracle_first_cycle,
    oracle_first_path,
    oracle_hamiltonian_bypass,
    oracle_shortest_interior,
    oracle_spectrum,
)


def complete_digraph(n: int) -> Digraph:
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


# --- searches -----------------------------------------------------------------


def test_find_cycle_length_vectors():
    w = find_cycle_of_length(gen_kstar(3, 3), 4)
    assert w is not None and len(w) == 4
    w.validate(gen_kstar(3, 3))
    assert find_cycle_of_length(gen_directed_cycle(4), 3) is None
    with pytest.raises(GraphError):
        find_cycle_of_length(gen_directed_cycle(4), 1)
    with pytest.raises(GraphError):
        find_cycle_of_length(gen_directed_cycle(4), 5)


def test_spectrum_vectors():
    assert cycle_spectrum(gen_kstar(3, 3)).present == (2, 4, 6)
    assert cycle_spectrum(complete_digraph(4)).present == (2, 3, 4)
    assert cycle_spectrum(gen_directed_cycle(4)).present == (4,)
    assert cycle_spectrum(complete_digraph(4)).pancyclic
    assert not cycle_spectrum(gen_kstar(3, 3)).pancyclic


def test_hamiltonian_and_pre_hamiltonian_vectors():
    ham = hamiltonian_cycle(gen_kstar(2, 2))
    assert ham is not None and ham.vertices == (0, 2, 1, 3)
    assert pre_hamiltonian_cycle(gen_kstar(2, 2)) is None
    assert hamiltonian_cycle(gen_two_cliques(3)) is None
    sliced = gen_kstar_minus_arc(3, 3)
    assert hamiltonian_cycle(sliced) is not None
    assert pre_hamiltonian_cycle(sliced) is None


def test_longest_non_hamiltonian_vectors():
    w = longest_non_hamiltonian_cycle(gen_kstar(3, 3))
    assert w is not None and len(w) == 4
    assert longest_non_hamiltonian_cycle(gen_directed_cycle(4)) is None
    w = longest_non_hamiltonian_cycle(complete_digraph(4))
    assert w is not None and len(w) == 3


def test_hamiltonian_bypass_vectors():
    assert hamiltonian_bypass(gen_directed_cycle(5)) is None
    got = hamiltonian_bypass(gen_kstar(2, 2))
    assert got is not None
    path, chord = got
    assert chord == (path.first, path.last)
    path.validate(gen_kstar(2, 2))
    assert gen_kstar(2, 2).has_arc(*chord)


# --- constructive operations ---------------------------------------------------


def test_insert_vertex_takes_leftmost_slot():
    d = build(4, [(0, 1), (1, 2), (0, 3), (3, 1), (1, 3), (3, 2)])
    slot = insert_vertex(d, PathWitness((0, 1, 2)), 3)
    assert slot is not None
    i, extended = slot
    assert i == 0 and extended.vertices == (0, 3, 1, 2)
    extended.validate(d)


def test_insert_vertex_rejects_on_path_vertex():
    d = gen_directed_cycle(4)
    with pytest.raises(GraphError):
        insert_vertex(d, PathWitness((0, 1)), 0)


def test_cycles_from_external_vertex_full_fan():
    d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (1, 3), (3, 1), (2, 3), (3, 2)])
    c = CycleWitness((0, 1, 2))
    got = cycles_from_external_vertex(d, c, 3)
    assert sorted(got) == [2, 3, 4]
    for length, w in got.items():
        assert len(w) == length
        w.validate(d)
        assert w.mask() & ~(c.mask() | 8) == 0


def test_cycles_from_external_vertex_tight_degree():
    d = build(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])
    got = cycles_from_external_vertex(d, CycleWitness((0, 1)), 2)
    assert sorted(got) == [2, 3]


def test_cycles_from_external_vertex_hypothesis_guard():
    d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(HypothesisUnmet):
        cycles_from_external_vertex(d, CycleWitness((0, 1, 2)), 3)


def test_absorb_single_vertex_path():
    d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (3, 0)])
    got = absorb_path_into_cycle(d, CycleWitness((0, 1, 2)), PathWitness((3,)))
    assert sorted(got) == [2, 3, 4]
    for length, w in got.items():
        assert len(w) == length
        w.validate(d)


def test_absorb_two_vertex_path():
    d = build(4, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1)])
    got = absorb_path_into_cycle(d, CycleWitness((0, 1)), PathWitness((2, 3)))
    assert sorted(got) == [3, 4]
    for length, w in got.items():
        assert len(w) == length
        w.validate(d)


def test_absorb_hypothesis_guard():
    d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
    with pytest.raises(HypothesisUnmet):
        absorb_path_into_cycle(d, CycleWitness((0, 1, 2)), PathWitness((3,)))


def test_merge_path_block_insertion():
    d = build(5, [(0, 1), (1, 2), (0, 3), (1, 3), (4, 1), (4, 2), (3, 4)])
    merged = merge_path(d, PathWitness((0, 1, 2)), PathWitness((3, 4)))
    merged.validate(d)
    assert merged.first == 0 and merged.last == 2
    assert merged.mask() == 0b11111


def test_merge_path_hypothesis_guard():
    d = build(5, [(0, 1), (1, 2), (3, 4), (0, 3)])
    with pytest.raises(HypothesisUnmet):
        merge_path(d, PathWitness((0, 1, 2)), PathWitness((3, 4)))


def test_extend_maximally_progress_and_leftover():
    d = build(5, [(0, 1), (1, 2), (0, 3), (3, 1), (4, 0)])
    got = extend_maximally(d, PathWitness((0, 1, 2)), [3, 4])
    assert got.absorbed == {3}
    assert got.leftover == {4}
    assert got.path.vertices == (0, 3, 1, 2)
    got.path.validate(d)


def test_find_c_bypass_single_detour():
    d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)])
    got = find_c_bypass(d, CycleWitness((0, 1, 2)))
    assert got == Bypass(0, PathWitness((3,)), 2, 2)
    got.validate(d, CycleWitness((0, 1, 2)))


def test_find_c_bypass_prefers_smallest_gap():
    base = [(0, 1), (1, 2), (2, 3), (3, 0)]
    # detours 0->4->2 (gap 2) and 1->5->2 (gap 1): the gap-1 detour must win
    d = build(6, base + [(0, 4), (4, 2), (1, 5), (5, 2)])
    got = find_c_bypass(d, CycleWitness((0, 1, 2, 3)))
    assert got is not None and got.gap == 1
    assert (got.entry, got.exit) == (1, 2)


def test_find_c_bypass_takes_the_lex_first_shortest_interior():
    # 0->1->4->5 and 0->2->3->5 are both shortest; breadth-first discovery
    # order would meet 3 before 4 and return (2, 3)
    arcs = [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)]
    assert _shortest_interior(build(6, arcs), 0, 5, 0b011110) == (1, 4)
    d = build(6, arcs + [(0, 5), (5, 0)])
    assert find_c_bypass(d, CycleWitness((0, 5))) == Bypass(0, PathWitness((1, 4)), 5, 1)
    for perm in itertools.permutations(range(6)):  # every order of the tied chains
        d = build(6, [(perm[u], perm[v]) for u, v in arcs])
        pool = sum(1 << perm[v] for v in range(1, 5))
        want = oracle_shortest_interior(list(d.out), perm[0], perm[5], pool)
        assert _shortest_interior(d, perm[0], perm[5], pool) == want


def test_find_c_bypass_none_and_spanning_guard():
    d = build(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert find_c_bypass(d, CycleWitness((0, 1, 2))) is None
    with pytest.raises(GraphError):
        find_c_bypass(gen_directed_cycle(3), CycleWitness((0, 1, 2)))


# --- properties ----------------------------------------------------------------


@given(digraphs(min_n=2))
def test_find_cycle_matches_brute_force(d: Digraph):
    for length in range(2, d.n + 1):
        ours = find_cycle_of_length(d, length)
        brute = oracle_cycle_of_length(d, length)
        assert (ours is None) == (brute is None)
        if ours is not None:
            ours.validate(d)


def _assert_lex_first_witnesses(n: int, rows: list[int], pools, start_goals) -> None:
    """Every search kernel returns the oracle's lexicographically least witness."""
    for pool in pools:
        for length in range(n + 2):
            assert find_cycle_rows(n, rows, length, pool) == oracle_first_cycle(rows, length, pool)
            assert find_path_rows(n, rows, length, pool) == oracle_first_path(rows, length, pool)
        for start, goal in start_goals:
            want = oracle_first_cover_path(rows, start, goal, pool)
            assert _cover_path_rows(rows, start, goal, pool) == want
    want = oracle_first_bypass(rows)
    got = hamiltonian_bypass_rows(n, rows)
    assert got == (None if want is None else (want, (want[0], want[-1])))


def test_search_kernels_give_lex_first_witness_over_full_order4_space():
    start_goals = [(start, goal) for start in range(4) for goal in range(4)]
    for index in range(1 << 12):
        _assert_lex_first_witnesses(4, rows_from_index(4, index), range(16), start_goals)


@given(digraphs(min_n=1, max_n=7), st.data())
def test_search_kernels_give_lex_first_witness(d: Digraph, data):
    pool = data.draw(st.integers(min_value=0, max_value=d.full_mask), label="pool")
    start = data.draw(st.integers(min_value=0, max_value=d.n - 1), label="start")
    goal = data.draw(st.integers(min_value=0, max_value=d.n - 1), label="goal")
    _assert_lex_first_witnesses(d.n, list(d.out), [d.full_mask, pool], [(start, goal)])


@given(digraphs(min_n=2))
def test_spectrum_matches_brute_force(d: Digraph):
    assert set(cycle_spectrum(d).present) == oracle_spectrum(d)


@given(digraphs(min_n=3))
def test_bypass_matches_brute_force(d: Digraph):
    ours = hamiltonian_bypass(d)
    brute = oracle_hamiltonian_bypass(d)
    assert (ours is None) == (brute is None)
    if ours is not None:
        path, chord = ours
        path.validate(d)
        assert d.has_arc(*chord)
        assert len(path) == d.n


@given(dense_digraphs(), st.data())
def test_insert_vertex_guarantee_cases(d: Digraph, data):
    from hamlab.cycles import find_path_rows

    length = data.draw(st.integers(min_value=2, max_value=d.n - 1), label="path length")
    found = find_path_rows(d.n, d.out, length)
    if found is None:
        return
    path = PathWitness(found)
    outside = [v for v in range(d.n) if not path.mask() >> v & 1]
    x = data.draw(st.sampled_from(outside), label="vertex")
    _, _, total = degree_toward(d, x, path.vertices)
    m = len(path)
    ends_absent = (not d.has_arc(x, path.first)) + (not d.has_arc(path.last, x))
    guaranteed = (
        total >= m + 2
        or (total >= m + 1 and ends_absent >= 1)
        or (total >= m and ends_absent == 2)
    )
    slot = insert_vertex(d, path, x)
    if guaranteed:
        assert slot is not None
    if slot is not None:
        i, extended = slot
        extended.validate(d)
        assert extended.vertices[i + 1] == x
        assert len(extended) == m + 1
        # leftmost: no earlier slot works
        for j in range(i):
            assert not (d.has_arc(path.vertices[j], x) and d.has_arc(x, path.vertices[j + 1]))


@given(dense_digraphs(min_n=4))
def test_extend_maximally_leftovers_truly_stuck(d: Digraph):
    from hamlab.cycles import find_path_rows

    found = find_path_rows(d.n, d.out, 2)
    if found is None:
        return
    path = PathWitness(found)
    pool = [v for v in range(d.n) if not path.mask() >> v & 1]
    got = extend_maximally(d, path, pool)
    got.path.validate(d)
    assert got.absorbed | got.leftover == set(pool)
    assert len(got.path) == 2 + len(got.absorbed)
    for x in got.leftover:
        assert insert_vertex(d, got.path, x) is None


@given(st.data())
@settings(max_examples=300)
def test_shortest_interior_matches_lex_first_oracle(data):
    n = data.draw(st.integers(3, 7))
    # arcs at density 0.4 and mostly whole pools, where equal-length chains meet
    arcs = data.draw(st.lists(st.integers(0, 4), min_size=n * (n - 1), max_size=n * (n - 1)))
    d = from_rows(n, rows_from_index(n, sum(1 << i for i, a in enumerate(arcs) if a < 2)))
    entry, exit_ = data.draw(st.permutations(range(n)))[:2]
    pool = data.draw(st.sampled_from([d.full_mask, data.draw(st.integers(0, d.full_mask))]))
    pool &= ~(1 << entry | 1 << exit_)
    want = oracle_shortest_interior(list(d.out), entry, exit_, pool)
    assert _shortest_interior(d, entry, exit_, pool) == want


@given(dense_digraphs(min_n=4))
def test_find_c_bypass_gap_is_minimal(d: Digraph, ):
    from hamlab.cycles import find_cycle_rows

    found = find_cycle_rows(d.n, d.out, d.n - 1)
    if found is None:
        return
    c = CycleWitness(found)
    got = find_c_bypass(d, c)
    if got is None:
        return
    got.validate(d, c)
    x = next(v for v in range(d.n) if not c.mask() >> v & 1)
    # only one outside vertex, so every possible detour is entry -> x -> exit
    best = min(
        (
            c.gap(entry, exit_)
            for entry in c.vertices
            for exit_ in c.vertices
            if entry != exit_ and d.has_arc(entry, x) and d.has_arc(x, exit_)
        ),
        default=None,
    )
    assert best is not None and got.gap == best
