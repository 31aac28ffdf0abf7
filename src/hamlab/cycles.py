"""Exact cycle and path search plus the constructive absorption operations.

Cycle, path, bypass and covering-path searches share one iterative
depth-first kernel, ``_first_path``, over bitset neighbourhoods.  It keeps an
explicit stack of untried candidate masks, tries neighbours in ascending id
order and restricts the last step to an end set (a cycle's closing
in-neighbours, a bypass chord's head, a covering path's goal), so each search
returns the lexicographically least witness.  Roots ascend, and cycle
witnesses come out in canonical rotation (minimum vertex first) because a
cycle is only searched from its minimum vertex.

The constructive operations (vertex insertion, growing cycles around an
external vertex, absorbing a path into a cycle, splicing a path into another)
check their degree-sum hypotheses up front and raise
:class:`~hamlab.digraph.HypothesisUnmet` when asked outside their contract.
If a hypothesis holds but a guaranteed object cannot be found, that is a bug
worth shouting about, and :class:`LemmaViolation` is raised instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .digraph import (
    CycleWitness,
    Digraph,
    GraphError,
    HypothesisUnmet,
    PathWitness,
    bits,
    mask_of,
)


class LemmaViolation(RuntimeError):
    """A degree-sum guarantee failed to produce its promised witness."""


# ---------------------------------------------------------------------------
# row-level kernels


def _first_path(
    rows: Sequence[int], start: int, allowed: int, length: int, ends: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically least path of ``length`` vertices from ``start``.

    Every vertex after ``start`` comes from ``allowed`` except the last,
    which must lie in ``ends`` instead.  Depth-first over an explicit stack
    of untried candidate masks, lowest vertex first, so the first path found
    is the least one.
    """
    if length == 1:
        return (start,) if ends >> start & 1 else None
    path = [start]
    used = 1 << start
    depth = 1
    final = length - 1  # depth at which the next vertex is the last
    stack: list[int] = []
    cand = rows[start] & ~used & (ends if final == 1 else allowed)
    while True:
        if cand:
            low = cand & -cand
            w = low.bit_length() - 1
            path.append(w)
            depth += 1
            if depth == length:
                return tuple(path)
            stack.append(cand ^ low)
            used |= low
            cand = rows[w] & ~used & (ends if depth == final else allowed)
        elif stack:
            cand = stack.pop()
            used ^= 1 << path.pop()
            depth -= 1
        else:
            return None


def find_cycle_rows(
    n: int, rows: Sequence[int], length: int, allowed: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """First cycle of exactly ``length`` vertices, in canonical rotation.

    ``allowed`` restricts the vertex pool.  Roots are tried in ascending order
    and only vertices above the root may continue the cycle, so the witness
    always starts at its minimum vertex and the search is deterministic.
    """
    pool = (1 << n) - 1 if allowed is None else allowed
    if length < 2 or length > pool.bit_count():
        return None
    cand = pool
    while cand.bit_count() >= length:  # pools only shrink as the root rises
        low = cand & -cand
        cand ^= low  # the vertices above the root
        root = low.bit_length() - 1
        if not rows[root] & cand:
            continue
        ends = 0  # in-neighbours of the root: the vertices that close the cycle
        rest = cand
        while rest:
            v = rest & -rest
            rest ^= v
            if rows[v.bit_length() - 1] & low:
                ends |= v
        if ends:
            found = _first_path(rows, root, cand, length, ends)
            if found is not None:
                return found
    return None


def find_path_rows(
    n: int, rows: Sequence[int], length: int, allowed: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """First directed path on exactly ``length`` vertices inside ``allowed``."""
    pool = (1 << n) - 1 if allowed is None else allowed
    if length < 1 or length > pool.bit_count():
        return None
    for start in bits(pool):
        found = _first_path(rows, start, pool, length, pool)
        if found is not None:
            return found
    return None


def hamiltonian_bypass_rows(
    n: int, rows: Sequence[int]
) -> Optional[tuple[tuple[int, ...], tuple[int, int]]]:
    """Spanning path whose first vertex also sends an arc to its last vertex."""
    full = (1 << n) - 1
    for start in range(n):
        found = _first_path(rows, start, full, n, rows[start])
        if found is not None:
            return found, (start, found[-1])
    return None


def _cover_path_rows(
    rows: Sequence[int], start: int, goal: int, pool: int
) -> Optional[tuple[int, ...]]:
    """Path from start to goal visiting exactly the vertices of ``pool``."""
    if not (pool >> start & 1 and pool >> goal & 1):
        return None
    if start == goal:
        return (start,) if pool == 1 << start else None
    return _first_path(rows, start, pool & ~(1 << goal), pool.bit_count(), 1 << goal)


def lemma_gate(
    rows: Sequence[int], base: Sequence[int], q: Sequence[int], on_cycle: bool
) -> tuple[int, int]:
    """(degree, need) of the degree hypothesis for a path Q off a base B.

    degree is d-(head Q, B) + d+(tail Q, B), and the hypothesis is degree >=
    need, where need is |B| + 1 when B is a cycle and |B| + [last B -> head Q]
    + [tail Q -> first B] when B is a path.  With Q = (x) these are d(x, C) >=
    |C| + 1 and ``insert_vertex``'s three-case guarantee.
    """
    head, out = q[0], rows[q[-1]]
    degree = 0
    for b in base:
        degree += (rows[b] >> head & 1) + (out >> b & 1)
    ends = 1 if on_cycle else (rows[base[-1]] >> head & 1) + (out >> base[0] & 1)
    return degree, len(base) + ends


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class CycleSpectrum:
    """Which cycle lengths from 2..n occur, each with a validating witness."""

    n: int
    witnesses: dict[int, CycleWitness]

    @property
    def present(self) -> tuple[int, ...]:
        return tuple(sorted(self.witnesses))

    @property
    def pancyclic(self) -> bool:
        return self.n >= 3 and all(length in self.witnesses for length in range(3, self.n + 1))

    def to_json(self) -> dict[str, Any]:
        return {
            "present": list(self.present),
            "witnesses": {str(length): w.to_json() for length, w in sorted(self.witnesses.items())},
        }


@dataclass(frozen=True)
class Bypass:
    """Detour around a cycle: entry and exit on the cycle, interior off it.

    ``gap`` is the cyclic distance from entry to exit walking along the cycle.
    """

    entry: int
    interior: PathWitness
    exit: int
    gap: int

    def vertices(self) -> tuple[int, ...]:
        return (self.entry, *self.interior.vertices, self.exit)

    def validate(self, d: Digraph, c: CycleWitness) -> None:
        if self.entry == self.exit:
            raise GraphError("bypass endpoints must differ")
        if self.entry not in c.vertices or self.exit not in c.vertices:
            raise GraphError("bypass endpoints must lie on the cycle")
        if len(self.interior) < 1:
            raise GraphError("bypass interior must contain at least one vertex")
        if self.interior.mask() & c.mask():
            raise GraphError("bypass interior must avoid the cycle")
        self.interior.validate(d)
        if not d.has_arc(self.entry, self.interior.first):
            raise GraphError("bypass is missing its entry arc")
        if not d.has_arc(self.interior.last, self.exit):
            raise GraphError("bypass is missing its exit arc")
        if c.gap(self.entry, self.exit) != self.gap:
            raise GraphError("bypass gap does not match the cycle")

    def to_json(self) -> dict[str, Any]:
        return {
            "entry": self.entry,
            "interior": self.interior.to_json(),
            "exit": self.exit,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of maximal path extension by single-vertex insertion."""

    path: PathWitness
    absorbed: frozenset[int]
    leftover: frozenset[int]


def find_cycle_of_length(d: Digraph, length: int) -> Optional[CycleWitness]:
    """First cycle with exactly ``length`` vertices, canonical, deterministic."""
    if not 2 <= length <= d.n:
        raise GraphError(f"cycle length {length} outside 2..{d.n}")
    found = find_cycle_rows(d.n, d.out, length)
    return None if found is None else CycleWitness(found)


def cycle_spectrum(d: Digraph) -> CycleSpectrum:
    """Witnessed set of all cycle lengths present in the digraph."""
    witnesses: dict[int, CycleWitness] = {}
    for length in range(2, d.n + 1):
        found = find_cycle_rows(d.n, d.out, length)
        if found is not None:
            witnesses[length] = CycleWitness(found)
    return CycleSpectrum(d.n, witnesses)


def hamiltonian_cycle(d: Digraph) -> Optional[CycleWitness]:
    if d.n < 2:
        raise GraphError("hamiltonian cycle needs order >= 2")
    return find_cycle_of_length(d, d.n)


def pre_hamiltonian_cycle(d: Digraph) -> Optional[CycleWitness]:
    """Cycle through all but one vertex (length n - 1)."""
    if d.n < 3:
        raise GraphError("pre-hamiltonian cycle needs order >= 3")
    return find_cycle_of_length(d, d.n - 1)


def longest_non_hamiltonian_cycle(d: Digraph) -> Optional[CycleWitness]:
    """Longest cycle of length at most n - 1, or none."""
    for length in range(d.n - 1, 1, -1):
        found = find_cycle_rows(d.n, d.out, length)
        if found is not None:
            return CycleWitness(found)
    return None


def hamiltonian_bypass(d: Digraph) -> Optional[tuple[PathWitness, tuple[int, int]]]:
    """Spanning path v1..vn together with the chord arc v1->vn, if any."""
    if d.n < 3:
        raise GraphError("hamiltonian bypass needs order >= 3")
    found = hamiltonian_bypass_rows(d.n, d.out)
    if found is None:
        return None
    path, chord = found
    return PathWitness(path), chord


def insert_vertex(d: Digraph, p: PathWitness, x: int) -> Optional[tuple[int, PathWitness]]:
    """Insert ``x`` between consecutive path vertices at the leftmost valid slot.

    Returns (i, extended path) where the new vertex lands between positions i
    and i+1, or None when no slot admits it.  The single-vertex insertion
    guarantee: a slot exists whenever d(x, P) >= |P| + 2, or d(x, P) >= |P| + 1
    with one of the end arcs x->first / last->x absent, or d(x, P) >= |P| with
    both end arcs absent.
    """
    p.validate(d)
    if not 0 <= x < d.n:
        raise GraphError(f"vertex {x} out of range for n={d.n}")
    if p.mask() >> x & 1:
        raise GraphError(f"vertex {x} already lies on the path")
    vs = p.vertices
    for i in range(len(vs) - 1):
        if d.has_arc(vs[i], x) and d.has_arc(x, vs[i + 1]):
            return i, PathWitness(vs[: i + 1] + (x,) + vs[i + 1 :])
    return None


def cycles_from_external_vertex(
    d: Digraph, c: CycleWitness, x: int
) -> dict[int, CycleWitness]:
    """Cycles of every length 2..|C|+1 inside V(C)+x, given d(x, C) >= |C|+1.

    The one-vertex case of :func:`absorb_path_into_cycle`, with Q = (x).
    """
    if not 0 <= x < d.n:
        raise GraphError(f"vertex {x} out of range for n={d.n}")
    if c.mask() >> x & 1:
        raise GraphError(f"vertex {x} lies on the cycle")
    return absorb_path_into_cycle(d, c, PathWitness((x,)))


def absorb_path_into_cycle(
    d: Digraph, c: CycleWitness, q: PathWitness
) -> dict[int, CycleWitness]:
    """Cycles of every length |Q|+1..|C|+|Q| inside V(C)+V(Q).

    Hypothesis: the path's head receives, and its tail sends, jointly more
    than |C| arcs to the cycle (in-degree of head + out-degree of tail >= |C|+1).
    """
    c.validate(d)
    q.validate(d)
    if c.mask() & q.mask():
        raise GraphError("path and cycle must be vertex-disjoint")
    degree, need = lemma_gate(d.out, c.vertices, q.vertices, True)
    if degree < need:
        raise HypothesisUnmet(f"d-(head, C) + d+(tail, C) = {degree} < {need}")
    k = len(c)
    r = len(q)
    pool = c.mask() | q.mask()
    out: dict[int, CycleWitness] = {}
    for length in range(r + 1, k + r + 1):
        found = find_cycle_rows(d.n, d.out, length, pool)
        if found is None:
            raise LemmaViolation(f"guaranteed cycle of length {length} not found")
        out[length] = CycleWitness(found)
    return out


def merge_path(d: Digraph, p: PathWitness, q: PathWitness) -> PathWitness:
    """Path from first(P) to last(P) covering exactly V(P) union V(Q).

    Hypothesis: d-(head(Q), P) + d+(tail(Q), P) >= |P| + [last(P)->head(Q)]
    + [tail(Q)->first(P)].  Under it a covering path always exists (the degree
    count forces a consecutive pair of P admitting Q as a block), so a failed
    search raises :class:`LemmaViolation` rather than returning None.
    """
    p.validate(d)
    q.validate(d)
    if p.mask() & q.mask():
        raise GraphError("paths must be vertex-disjoint")
    degree, need = lemma_gate(d.out, p.vertices, q.vertices, False)
    if degree < need:
        raise HypothesisUnmet(f"d-(head, P) + d+(tail, P) = {degree} < {need}")
    found = _cover_path_rows(d.out, p.first, p.last, p.mask() | q.mask())
    if found is None:
        raise LemmaViolation("guaranteed covering path not found")
    return PathWitness(found)


def extend_maximally(d: Digraph, p: PathWitness, pool: Iterable[int]) -> ExtensionResult:
    """Repeatedly insert the lowest-id insertable pool vertex at its leftmost slot.

    Stops when no remaining vertex admits a single-vertex insertion; those
    stragglers are returned as ``leftover``.
    """
    p.validate(d)
    pool_mask = mask_of(pool, d.n)
    if pool_mask & p.mask():
        raise GraphError("pool overlaps the path")
    remaining = set(bits(pool_mask))
    absorbed: set[int] = set()
    current = p
    progress = True
    while progress and remaining:
        progress = False
        for x in sorted(remaining):
            slot = insert_vertex(d, current, x)
            if slot is not None:
                current = slot[1]
                remaining.remove(x)
                absorbed.add(x)
                progress = True
                break
    return ExtensionResult(current, frozenset(absorbed), frozenset(remaining))


def _shortest_interior(
    d: Digraph, entry: int, exit_: int, pool: int
) -> Optional[tuple[int, ...]]:
    """Lex-first shortest chain entry -> ... -> exit with interior inside pool.

    Layers of distance to ``exit_`` inside the pool come from a reverse
    breadth-first search; the walk from ``entry`` then takes the lowest
    out-neighbour one layer closer at every step.  O(n^2) on bitmasks.
    """
    layers = [d.inn[exit_] & pool]
    seen = layers[0]
    while layers[-1] and not d.out[entry] & layers[-1]:
        farther = 0
        for v in bits(layers[-1]):
            farther |= d.inn[v]
        layers.append(farther & pool & ~seen)
        seen |= layers[-1]
    chain: list[int] = []
    reach = d.out[entry]
    for layer in reversed(layers):
        step = reach & layer
        if not step:
            return None
        low = step & -step
        chain.append(low.bit_length() - 1)
        reach = d.out[chain[-1]]
    return tuple(chain)


def find_c_bypass(d: Digraph, c: CycleWitness) -> Optional[Bypass]:
    """Minimum-gap detour around a non-spanning cycle.

    Among all detours the one with the smallest gap wins; ties go to the
    lowest entry id, then to the shortest interior, and among interiors of
    that length to the lexicographically least vertex sequence.
    """
    c.validate(d)
    if len(c) == d.n:
        raise GraphError("cycle already spans the digraph; no room for a detour")
    outside = d.full_mask & ~c.mask()
    m = len(c)
    order = c.vertices
    by_id = sorted(range(m), key=lambda i: order[i])
    for gap in range(1, m):
        for i in by_id:
            entry = order[i]
            exit_ = order[(i + gap) % m]
            interior = _shortest_interior(d, entry, exit_, outside)
            if interior is not None:
                return Bypass(entry, PathWitness(interior), exit_, gap)
    return None
