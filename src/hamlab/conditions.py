"""Degree conditions used to screen digraphs for Hamiltonicity, plus a report.

Every predicate returns a :class:`ConditionVerdict` carrying the verdict, the
most binding witness, and a capped list of violations, so failures are always
explainable.  The central object is the triple degree-sum condition with slack
``k`` (``condition_a_k``) and its margin: the largest slack a digraph still
satisfies, or "unbounded" when no triple qualifies at all.

Row-level kernels (``*_rows``) operate on raw out-adjacency bitmasks so the
verification harness can call them in bulk without building Digraph objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Iterator, Optional, Sequence

from .digraph import Digraph, HypothesisUnmet, bits

#: violations kept per condition; totals are still exact
VIOLATION_CAP = 100


@dataclass(frozen=True)
class TripleViolation:
    """One failed clause of the triple condition.

    ``clause`` names the missing arc that fired the clause: ``"x->z"`` checks
    d(x)+d(y)+d+(x)+d-(z), ``"z->x"`` checks d(x)+d(y)+d-(x)+d+(z).
    """

    x: int
    y: int
    z: int
    clause: str
    total: int
    required: int

    def to_json(self) -> dict[str, Any]:
        return {
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "clause": self.clause,
            "sum": self.total,
            "required": self.required,
        }


@dataclass(frozen=True)
class AkMargin:
    """Largest slack k the digraph satisfies; ``max_k is None`` means unbounded."""

    max_k: Optional[int]

    @property
    def unbounded(self) -> bool:
        return self.max_k is None

    def admits(self, k: int) -> bool:
        return self.max_k is None or k <= self.max_k

    def to_json(self) -> dict[str, Any]:
        if self.max_k is None:
            return {"kind": "unbounded"}
        return {"kind": "bounded", "max_k": self.max_k}


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one condition: verdict, worst witness, capped violation list."""

    name: str
    holds: bool
    witnesses: tuple[Any, ...]
    total_violations: int
    worst: Optional[Any] = None

    def to_json(self) -> dict[str, Any]:
        items = [w.to_json() if hasattr(w, "to_json") else w for w in self.witnesses]
        return {
            "holds": self.holds,
            "witnesses": items,
            "total_violations": self.total_violations,
        }


def _degree_arrays(n: int, rows: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    out_deg = [rows[v].bit_count() for v in range(n)]
    in_deg = [0] * n
    for u in range(n):
        for v in bits(rows[u]):
            in_deg[v] += 1
    total = [out_deg[v] + in_deg[v] for v in range(n)]
    return out_deg, in_deg, total


def _verdict(name: str, items: Iterable[tuple[int, Any, Any]]) -> ConditionVerdict:
    """Fold (key, worst entry, violation or None) items into a verdict, streaming.

    ``worst`` is the entry of the least key, the first one on a tie, and stays
    None only when no item qualifies; the witnesses are the violations in item
    order, capped at ``VIOLATION_CAP``, and the count covers all of them.
    """
    least = worst = None
    witnesses: list[Any] = []
    total = 0
    for key, entry, violation in items:
        if least is None or key < least:
            least, worst = key, entry
        if violation is not None:
            total += 1
            if len(witnesses) < VIOLATION_CAP:
                witnesses.append(violation)
    return ConditionVerdict(name, total == 0, tuple(witnesses), total, worst)


def _nonadjacent(d: Digraph) -> Iterator[tuple[int, int]]:
    """The non-adjacent pairs x < y, in lexicographic order."""
    for x in range(d.n):
        for y in range(x + 1, d.n):
            if not (d.out[x] >> y | d.out[y] >> x) & 1:
                yield x, y


def _sharing(d: Digraph) -> Iterator[tuple[int, int]]:
    """The non-adjacent pairs x < y with a common out- or in-neighbour."""
    for x, y in _nonadjacent(d):
        if d.out[x] & d.out[y] or d.inn[x] & d.inn[y]:
            yield x, y


def ghouila_houri(d: Digraph) -> ConditionVerdict:
    """Total degree of every vertex at least n."""

    def items():
        for v in range(d.n):
            deg = d.degree(v)
            bad = {"vertex": v, "degree": deg, "required": d.n} if deg < d.n else None
            yield deg, {"vertex": v, "degree": deg}, bad

    return _verdict("ghouila_houri", items())


def woodall(d: Digraph) -> ConditionVerdict:
    """d+(x) + d-(y) >= n for every ordered pair with the arc x->y absent."""

    def items():
        for x in range(d.n):
            for y in range(d.n):
                if x == y or d.has_arc(x, y):
                    continue
                s = d.out_degree(x) + d.in_degree(y)
                bad = {"x": x, "y": y, "sum": s, "required": d.n} if s < d.n else None
                yield s, {"x": x, "y": y, "sum": s}, bad

    return _verdict("woodall", items())


def meyniel(d: Digraph) -> ConditionVerdict:
    """d(x) + d(y) >= 2n - 1 for every non-adjacent pair."""
    bound = 2 * d.n - 1

    def items():
        for x, y in _nonadjacent(d):
            s = d.degree(x) + d.degree(y)
            bad = {"x": x, "y": y, "sum": s, "required": bound} if s < bound else None
            yield s, {"x": x, "y": y, "sum": s}, bad

    return _verdict("meyniel", items())


def min_degree_semidegree(d: Digraph) -> ConditionVerdict:
    """Total degree >= n-1 everywhere and minimum semi-degree >= n/2 - 1.

    The half-integral comparison is done exactly as 2*min(d+, d-) >= n - 2.
    """

    def items():
        for v in range(d.n):
            o, i = d.out_degree(v), d.in_degree(v)
            deg = o + i
            low = deg < d.n - 1 or 2 * min(o, i) < d.n - 2
            bad = {"vertex": v, "degree": deg, "out": o, "in": i} if low else None
            yield deg, {"vertex": v, "degree": deg}, bad

    return _verdict("min_degree_semidegree", items())


def _clauses_below(
    n: int, rows: Sequence[int], bound: float
) -> Iterator[tuple[int, int, int, str, int]]:
    """Yield (x, y, z, clause, attained_sum) for every qualifying clause whose
    sum is below ``bound`` (``math.inf`` yields them all).

    Qualifying: x, y distinct and non-adjacent, z any vertex other than x
    (z = y included), and the named arc absent.  Both orderings of each
    non-adjacent pair are scanned.  The z = y clauses matter: complete
    bipartite digraphs with parts of size two have no qualifying triple at
    all without them.  This is the one scalar statement of the triple
    condition; every scalar verdict, margin and confirmation reads it.
    """
    out_deg, in_deg, deg = _degree_arrays(n, rows)
    for x in range(n):
        row_x = rows[x]
        for y in range(n):
            if y == x or (row_x >> y | rows[y] >> x) & 1:
                continue
            base = deg[x] + deg[y]
            need_in = bound - base - out_deg[x]
            need_out = bound - base - in_deg[x]
            for z in range(n):
                if z == x:
                    continue
                if not row_x >> z & 1 and in_deg[z] < need_in:
                    yield x, y, z, "x->z", base + out_deg[x] + in_deg[z]
                if not rows[z] >> x & 1 and out_deg[z] < need_out:
                    yield x, y, z, "z->x", base + in_deg[x] + out_deg[z]


def condition_a_k(d: Digraph, k: int) -> ConditionVerdict:
    """Triple degree-sum condition with slack ``k``.

    For every triple (x, y, z) with x, y non-adjacent and z != x: a missing
    arc x->z requires d(x)+d(y)+d+(x)+d-(z) >= 3n-2+k, and a missing arc
    z->x requires d(x)+d(y)+d-(x)+d+(z) >= 3n-2+k.  Negative slack is allowed
    so margins below zero can be probed directly.  ``worst`` is the violated
    clause of least sum over all violations.
    """
    required = 3 * d.n - 2 + k
    clauses = _clauses_below(d.n, d.out, required)
    verdict = _verdict(f"a{k}", ((c[4], c, c) for c in clauses))
    return replace(
        verdict,
        witnesses=tuple(TripleViolation(*c, required) for c in verdict.witnesses),
        worst=verdict.worst and TripleViolation(*verdict.worst, required),
    )


def ak_margin(d: Digraph) -> AkMargin:
    """Largest slack still satisfied: min qualifying sum minus (3n - 2).

    Unbounded when no clause qualifies (for instance, no non-adjacent pair).
    """
    best = min((c[4] for c in _clauses_below(d.n, d.out, math.inf)), default=None)
    return AkMargin(None if best is None else best - (3 * d.n - 2))


def holds_a_k_rows(n: int, rows: Sequence[int], k: int = 0) -> bool:
    """Row-level check of the triple condition with slack ``k``: no clause
    below 3n - 2 + k, stopping at the first."""
    return next(_clauses_below(n, rows, 3 * n - 2 + k), None) is None


def bjgl_16(d: Digraph) -> ConditionVerdict:
    """min degree >= n-1 and pair sum >= 2n-1 for non-adjacent pairs with a
    common in-neighbour."""
    bound = 2 * d.n - 1

    def items():
        for x, y in _nonadjacent(d):
            if not d.inn[x] & d.inn[y]:
                continue
            dx, dy = d.degree(x), d.degree(y)
            key = min(min(dx, dy) - (d.n - 1), dx + dy - bound)
            bad = {"x": x, "y": y, "d_x": dx, "d_y": dy} if key < 0 else None
            yield key, {"x": x, "y": y, "margin": key}, bad

    return _verdict("bjgl_16", items())


def bjgl_17(d: Digraph) -> ConditionVerdict:
    """min(d+(x)+d-(y), d-(x)+d+(y)) >= n for non-adjacent pairs with a common
    out-neighbour or a common in-neighbour."""

    def items():
        for x, y in _sharing(d):
            s = min(d.out_degree(x) + d.in_degree(y), d.in_degree(x) + d.out_degree(y))
            bad = {"x": x, "y": y, "sum": s, "required": d.n} if s < d.n else None
            yield s, {"x": x, "y": y, "sum": s}, bad

    return _verdict("bjgl_17", items())


def bgy_18(d: Digraph) -> ConditionVerdict:
    """Pair sum >= 2n-1 and min semi-sum >= n-1, for non-adjacent pairs with a
    common out-neighbour or a common in-neighbour."""
    bound = 2 * d.n - 1

    def items():
        for x, y in _sharing(d):
            pair = d.degree(x) + d.degree(y)
            semi = min(d.out_degree(x) + d.in_degree(y), d.in_degree(x) + d.out_degree(y))
            key = min(pair - bound, semi - (d.n - 1))
            bad = {"x": x, "y": y, "pair_sum": pair, "semi_sum": semi} if key < 0 else None
            yield key, {"x": x, "y": y, "margin": key}, bad

    return _verdict("bgy_18", items())


def _low_pairs(n: int, rows: Sequence[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x, y, z, d(x)+d(y), d(x)+d(z)) for every two low partners y < z
    of x: non-adjacent to x, with pair degree sum below 2n - 1."""
    _, _, deg = _degree_arrays(n, rows)
    bound = 2 * n - 1
    for x in range(n):
        low = [
            y
            for y in range(n)
            if y != x and not (rows[x] >> y | rows[y] >> x) & 1 and deg[x] + deg[y] < bound
        ]
        for i, y in enumerate(low):
            for z in low[i + 1 :]:
                yield x, y, z, deg[x] + deg[y], deg[x] + deg[z]


def lemma35_holds(d: Digraph) -> ConditionVerdict:
    """Under the slack-0 triple condition: each vertex has at most one
    non-adjacent partner with pair degree sum below 2n - 1.

    Raises :class:`HypothesisUnmet` when the digraph does not satisfy the
    slack-0 condition, so a hypothesis failure is never confused with a
    property failure.  ``worst`` is the first violation.
    """
    if not holds_a_k_rows(d.n, d.out, 0):
        raise HypothesisUnmet("slack-0 triple condition does not hold")
    bound = 2 * d.n - 1
    bad = (
        {"x": x, "y": y, "z": z, "sum_xy": xy, "sum_xz": xz, "required": bound}
        for x, y, z, xy, xz in _low_pairs(d.n, d.out)
    )
    return _verdict("lemma35", ((0, v, v) for v in bad))


def lemma35_rows(n: int, rows: Sequence[int]) -> bool:
    """Row-level check of the paired low-degree property (hypothesis NOT checked)."""
    return next(_low_pairs(n, rows), None) is None


@dataclass(frozen=True)
class ConditionReport:
    """All screening conditions for one digraph, plus the triple-slack margin."""

    ghouila_houri: ConditionVerdict
    woodall: ConditionVerdict
    meyniel: ConditionVerdict
    min_degree_semidegree: ConditionVerdict
    a0: ConditionVerdict
    bjgl_16: ConditionVerdict
    bjgl_17: ConditionVerdict
    bgy_18: ConditionVerdict
    ak_margin: AkMargin

    def to_json(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name).to_json() for f in fields(self)}


def condition_report(d: Digraph) -> ConditionReport:
    """Evaluate every screening condition on one digraph."""
    return ConditionReport(
        ghouila_houri=ghouila_houri(d),
        woodall=woodall(d),
        meyniel=meyniel(d),
        min_degree_semidegree=min_degree_semidegree(d),
        a0=condition_a_k(d, 0),
        bjgl_16=bjgl_16(d),
        bjgl_17=bjgl_17(d),
        bgy_18=bgy_18(d),
        ak_margin=ak_margin(d),
    )
