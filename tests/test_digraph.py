from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given

from conftest import digraphs
from hamlab.digraph import (
    CycleWitness,
    Digraph,
    GraphError,
    PathWitness,
    ParseError,
    adjacent,
    build,
    converse,
    degree_toward,
    degrees,
    from_rows,
    induced,
    is_strong,
    isomorphic_small,
    parse,
    recognize_kstar,
    serialize,
    strong_rows,
)
from hamlab.generators import (
    enum_bits,
    gen_directed_cycle,
    gen_kstar,
    gen_two_cliques,
    rows_from_index,
)
from oracles import oracle_is_kstar, oracle_strong


def test_build_rejects_bad_vertices():
    with pytest.raises(GraphError):
        build(3, [(0, 3)])
    with pytest.raises(GraphError):
        build(3, [(1, 1)])
    with pytest.raises(GraphError):
        build(0, [])
    with pytest.raises(GraphError):
        build(65, [])


def test_mirror_rows_consistent():
    d = build(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
    for u in range(4):
        for v in range(4):
            assert (d.out[u] >> v & 1) == (d.inn[v] >> u & 1)


def test_in_rows_are_the_transpose_over_orders_1_to_4():
    for n in range(1, 5):
        for index in range(1 << enum_bits(n)):
            d = from_rows(n, rows_from_index(n, index))
            transpose = [sum((d.out[u] >> v & 1) << u for u in range(n)) for v in range(n)]
            assert d.inn == tuple(transpose)


@given(digraphs())
def test_equality_and_hash_hold_whether_or_not_in_rows_were_read(d: Digraph):
    fresh = from_rows(d.n, d.out)
    d.inn
    assert "inn" not in vars(fresh)
    assert d == fresh and hash(d) == hash(fresh)
    assert converse(converse(fresh)) == d


def test_degrees_two_cliques_shared_vertex():
    d = gen_two_cliques(3)
    assert degrees(d, 0) == (4, 4, 8)
    assert degrees(d, 1) == (2, 2, 4)


def test_degree_toward_counts_only_target_set():
    d = gen_two_cliques(3)
    out, inn, total = degree_toward(d, 0, [1, 2])
    assert (out, inn, total) == (2, 2, 4)


def test_adjacent_needs_either_direction():
    d = build(3, [(0, 1)])
    assert adjacent(d, 0, 1) and adjacent(d, 1, 0)
    assert not adjacent(d, 0, 2)


def test_induced_kstar_part_is_empty():
    sub, relabel = induced(gen_kstar(2, 2), [0, 1])
    assert sub.n == 2 and sub.arc_count() == 0
    assert relabel == (0, 1)


def test_induced_cycle_pair_is_single_arc():
    sub, _ = induced(gen_directed_cycle(4), [0, 1])
    assert sub.arc_count() == 1 and sub.has_arc(0, 1)


def test_induced_clique_from_two_cliques():
    sub, _ = induced(gen_two_cliques(3), [0, 1, 2])
    assert sub.n == 3 and sub.arc_count() == 6


def test_induced_rejects_empty_selection():
    with pytest.raises(GraphError):
        induced(gen_directed_cycle(4), [])


def test_is_strong_directed_cycle_and_broken_cycle():
    assert is_strong(gen_directed_cycle(4))
    broken = build(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_strong(broken)


def test_is_strong_two_cliques_and_singleton():
    assert is_strong(gen_two_cliques(3))
    assert is_strong(build(1, []))


def test_recognize_kstar_roundtrip_and_rejections():
    got = recognize_kstar(gen_kstar(2, 2))
    assert got is not None
    p, q, parts = got
    assert (p, q) == (2, 2)
    assert {frozenset(parts[0]), frozenset(parts[1])} == {frozenset({0, 1}), frozenset({2, 3})}

    damaged = build(6, [a for a in gen_kstar(3, 3).arcs() if a != (0, 3)])
    assert recognize_kstar(damaged) is None
    assert recognize_kstar(build(3, [(u, v) for u in range(3) for v in range(3) if u != v])) is None


def test_isomorphic_small_rotation_and_mismatch():
    c4 = gen_directed_cycle(4)
    rotated = build(4, [(2, 3), (3, 0), (0, 1), (1, 2)])
    assert isomorphic_small(c4, rotated)
    assert not isomorphic_small(c4, gen_kstar(2, 2))


def test_isomorphic_small_rejects_large_orders():
    big = gen_directed_cycle(9)
    with pytest.raises(GraphError):
        isomorphic_small(big, big)


def test_converse_tournament_brute_force_agreement():
    # order-5 tournament: arcs u->v for u<v except reversals on (0,4),(1,3)
    arcs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    arcs.remove((0, 4)); arcs.append((4, 0))
    arcs.remove((1, 3)); arcs.append((3, 1))
    t = build(5, arcs)
    rev = converse(t)
    brute = any(
        all(rev.has_arc(pi[u], pi[v]) == t.has_arc(u, v) for u in range(5) for v in range(5) if u != v)
        for pi in permutations(range(5))
    )
    assert isomorphic_small(t, rev) == brute


def test_parse_serialize_roundtrip():
    d = gen_two_cliques(3)
    again = parse(serialize(d))
    assert again.n == d.n and list(again.arcs()) == list(d.arcs())


def test_parse_rejects_malformed_text():
    for bad in ("", "x\n", "3\n0 3\n", "3\n0\n", "3\n0 0\n", "2\n0 1\n0 1\n"):
        with pytest.raises(ParseError):
            parse(bad)


@given(digraphs())
def test_strong_matches_warshall_oracle(d: Digraph):
    assert is_strong(d) == oracle_strong(d)
    assert strong_rows(d.n, d.out) == oracle_strong(d)


@given(digraphs())
def test_converse_involution_and_degree_swap(d: Digraph):
    cc = converse(converse(d))
    assert cc.out == d.out
    c = converse(d)
    for v in range(d.n):
        assert d.out_degree(v) == c.in_degree(v)
        assert d.in_degree(v) == c.out_degree(v)
    assert is_strong(d) == is_strong(c)


@given(digraphs(max_n=5))
def test_recognize_kstar_matches_partition_oracle(d: Digraph):
    got = recognize_kstar(d)
    want = oracle_is_kstar(d)
    if want is None:
        assert got is None
    else:
        assert got is not None and (got[0], got[1]) == want


@given(digraphs())
def test_induced_full_vertex_set_is_identity(d: Digraph):
    sub, relabel = induced(d, range(d.n))
    assert relabel == tuple(range(d.n))
    assert sub.out == d.out


@given(digraphs())
def test_serialize_parse_identity(d: Digraph):
    assert parse(serialize(d)).out == d.out


@pytest.mark.parametrize(
    "witness, message",
    [
        (PathWitness(()), "path witness must contain at least one vertex"),
        (PathWitness((0, 1, 0)), "path witness repeats a vertex: (0, 1, 0)"),
        (PathWitness((1, 4)), "path vertex 4 out of range for n=4"),
        (PathWitness((0, 4, -1)), "path vertex 4 out of range for n=4"),
        (PathWitness((0, 1, -1)), "path vertex -1 out of range for n=4"),
        (PathWitness((0, 1, 3, 2)), "path witness uses missing arc (1, 3)"),
        (CycleWitness((0,)), "cycle witness needs at least two vertices"),
        (CycleWitness((0, 1, 1)), "cycle witness repeats a vertex: (0, 1, 1)"),
        (CycleWitness((1, 2, 0)), "cycle witness not in canonical rotation: (1, 2, 0)"),
        (CycleWitness((0, 5, 1)), "cycle vertex 5 out of range for n=4"),
        (CycleWitness((0, 1, 3)), "cycle witness uses missing arc (1, 3)"),
        (CycleWitness((0, 2, 3)), "cycle witness uses missing arc (0, 2)"),
        (CycleWitness((0, 1, 2)), "cycle witness uses missing arc (2, 0)"),
    ],
)
def test_witness_validate_messages(witness, message):
    # the directed 4-cycle 0 -> 1 -> 2 -> 3 -> 0; the first failed check is reported
    d = gen_directed_cycle(4)
    with pytest.raises(GraphError) as info:
        witness.validate(d)
    assert str(info.value) == message
