"""Independent brute-force oracles used to cross-check the fast implementations.

Everything here is deliberately naive: subsets plus permutations, Warshall
closure, direct formula evaluation.  None of it shares code with the package
so a bug has to be made twice to slip through.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

import numpy as np

from hamlab.digraph import Digraph


def oracle_cycle_of_length(d: Digraph, length: int) -> Optional[tuple[int, ...]]:
    """Subset-and-permutation search for a cycle with exactly ``length`` vertices."""
    if not 2 <= length <= d.n:
        return None
    for subset in combinations(range(d.n), length):
        first = subset[0]
        for rest in permutations(subset[1:]):
            order = (first,) + rest
            if all(d.has_arc(order[i], order[(i + 1) % length]) for i in range(length)):
                return order
    return None


def oracle_spectrum(d: Digraph) -> set[int]:
    return {length for length in range(2, d.n + 1) if oracle_cycle_of_length(d, length)}


def oracle_strong(d: Digraph) -> bool:
    """Warshall transitive closure; strong iff every ordered pair is reachable."""
    n = d.n
    if n == 1:
        return True
    reach = [[d.has_arc(u, v) for v in range(n)] for u in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                ri, rk = reach[i], reach[k]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(reach[i][j] for i in range(n) for j in range(n) if i != j)


def oracle_hamiltonian_bypass(d: Digraph) -> Optional[tuple[int, ...]]:
    """Spanning path whose first vertex also sends an arc to its last."""
    for order in permutations(range(d.n)):
        if all(d.has_arc(order[i], order[i + 1]) for i in range(d.n - 1)) and d.has_arc(
            order[0], order[-1]
        ):
            return order
    return None


def oracle_ak_margin(d: Digraph) -> Optional[int]:
    """Direct evaluation of the triple-condition margin; None when no clause fires."""
    n = d.n
    best: Optional[int] = None
    for x in range(n):
        for y in range(n):
            if x == y or d.has_arc(x, y) or d.has_arc(y, x):
                continue
            for z in range(n):
                if z == x:
                    continue
                if not d.has_arc(x, z):
                    s = d.degree(x) + d.degree(y) + d.out_degree(x) + d.in_degree(z)
                    best = s if best is None else min(best, s)
                if not d.has_arc(z, x):
                    s = d.degree(x) + d.degree(y) + d.in_degree(x) + d.out_degree(z)
                    best = s if best is None else min(best, s)
    return None if best is None else best - (3 * n - 2)


def oracle_is_kstar(d: Digraph) -> Optional[tuple[int, int]]:
    """Part sizes (p, q) with p <= q if the digraph is a complete bipartite digraph."""
    n = d.n
    for size in range(1, n // 2 + 1):
        for part in combinations(range(n), size):
            a = set(part)
            b = set(range(n)) - a
            ok = True
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    want = (u in a) != (v in a)
                    if d.has_arc(u, v) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                p, q = sorted((len(a), len(b)))
                return p, q
    return None


def oracle_insertion_slots(d: Digraph, path: tuple[int, ...], x: int) -> list[int]:
    """Every index i where x fits between path[i] and path[i+1]."""
    return [
        i
        for i in range(len(path) - 1)
        if d.has_arc(path[i], x) and d.has_arc(x, path[i + 1])
    ]


def oracle_pair_deficiency(d: Digraph) -> dict[int, list[int]]:
    """Map each vertex to its non-adjacent partners with degree pair sum < 2n - 1."""
    n = d.n
    low: dict[int, list[int]] = {v: [] for v in range(n)}
    for x in range(n):
        for y in range(n):
            if x == y or d.has_arc(x, y) or d.has_arc(y, x):
                continue
            if d.degree(x) + d.degree(y) < 2 * n - 1:
                low[x].append(y)
    return low


def oracle_triple_flags(n: int, rows: np.ndarray, slack: int) -> np.ndarray:
    """Literal O(n^3) numpy evaluation of the triple condition over a row block.

    Every ordered non-adjacent pair (x, y) and every witness z != x is checked
    against the whole block; degrees are counted bit by bit in int64.
    """
    one = np.uint64(1)
    bit = [[(rows[:, u] >> np.uint64(v)) & one for v in range(n)] for u in range(n)]
    arc = [[bit[u][v].astype(bool) for v in range(n)] for u in range(n)]
    out_deg = [sum(bit[u][v].astype(np.int64) for v in range(n)) for u in range(n)]
    in_deg = [sum(bit[u][v].astype(np.int64) for u in range(n)) for v in range(n)]
    bound = 3 * n - 2 + slack
    ok = np.ones(rows.shape[0], dtype=bool)
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            nonadj = ~arc[x][y] & ~arc[y][x]
            base = out_deg[x] + in_deg[x] + out_deg[y] + in_deg[y]
            for z in range(n):
                if z == x:
                    continue
                ok &= ~(nonadj & ~arc[x][z] & (base + out_deg[x] + in_deg[z] < bound))
                ok &= ~(nonadj & ~arc[z][x] & (base + in_deg[x] + out_deg[z] < bound))
    return ok


def _first_sequence(pool: int, length: int, valid) -> Optional[tuple[int, ...]]:
    """First sequence of ``length`` distinct vertices of ``pool``, in
    lexicographic order, that ``valid`` accepts."""
    vertices = [v for v in range(pool.bit_length()) if pool >> v & 1]
    if length < 1:
        return None
    for order in permutations(vertices, length):
        if valid(order):
            return order
    return None


def _is_path(rows: list[int], order: tuple[int, ...]) -> bool:
    return all(rows[order[i]] >> order[i + 1] & 1 for i in range(len(order) - 1))


def oracle_first_cycle(rows: list[int], length: int, pool: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least cycle on ``length`` vertices of ``pool``, started
    at its minimum vertex (the first valid sequence among the permutations)."""
    if length < 2:
        return None
    return _first_sequence(
        pool,
        length,
        lambda order: order[0] == min(order)
        and _is_path(rows, order)
        and rows[order[-1]] >> order[0] & 1,
    )


def oracle_first_path(rows: list[int], length: int, pool: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least directed path on ``length`` vertices of ``pool``."""
    return _first_sequence(pool, length, lambda order: _is_path(rows, order))


def oracle_first_bypass(rows: list[int]) -> Optional[tuple[int, ...]]:
    """Lexicographically least spanning path whose first vertex sends an arc to its last."""
    n = len(rows)
    return _first_sequence(
        (1 << n) - 1, n, lambda order: _is_path(rows, order) and rows[order[0]] >> order[-1] & 1
    )


def oracle_first_cover_path(
    rows: list[int], start: int, goal: int, pool: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically least path from start to goal visiting exactly ``pool``."""
    return _first_sequence(
        pool,
        pool.bit_count(),
        lambda order: order[0] == start and order[-1] == goal and _is_path(rows, order),
    )


def oracle_shortest_interior(
    rows: list[int], entry: int, exit_: int, pool: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically least of the shortest vertex sequences of ``pool``
    that lead from ``entry`` to ``exit_`` (at least one vertex between them)."""
    for length in range(1, pool.bit_count() + 1):
        found = _first_sequence(
            pool,
            length,
            lambda order: rows[entry] >> order[0] & 1
            and _is_path(rows, order)
            and rows[order[-1]] >> exit_ & 1,
        )
        if found is not None:
            return found
    return None


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: (new state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (1 << 64) - 1
    return state, z ^ (z >> 31)


def oracle_lemma_inputs(seed: int, top: int, ordinal: int) -> tuple[int, list[int], list[int]]:
    """Scalar derivation of one lemma sample: (order, rows, [length, chooser] x 4).

    The sample's stream is seeded with the splitmix64 hash of
    seed + (ordinal + 1)·γ.  Its draws are the order (3..top), the arc bits
    (bit i is the i-th ordered pair (u, v), u != v, in row-major order) and a
    (length, chooser) pair per lemma, each length reduced to 2..order-1 and
    each chooser modulo order - length.
    """
    _, state = _splitmix64((seed + ordinal * 0x9E3779B97F4A7C15) & (1 << 64) - 1)
    draws = []
    for _ in range(10):
        state, out = _splitmix64(state)
        draws.append(out)
    n = 3 + draws[0] % (top - 2)
    rows = [0] * n
    bit = 0
    for u in range(n):
        for v in range(n):
            if v != u:
                rows[u] |= (draws[1] >> bit & 1) << v
                bit += 1
    pairs = draws[2:]
    for k in range(0, 8, 2):
        pairs[k] = 2 + pairs[k] % (n - 2)
        pairs[k + 1] %= n - pairs[k]
    return n, rows, pairs
