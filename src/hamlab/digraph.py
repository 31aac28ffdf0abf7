"""Bitset-backed simple digraphs plus a tiny plain-text exchange format.

Vertices are the integers 0..n-1 with n capped at 64, so each adjacency row
fits in a single machine word (a Python int used as a bitmask).  Everything
downstream — degree conditions, cycle search, exhaustive campaigns — works on
these rows, which is what keeps whole-space enumeration affordable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 64

#: cap for the brute-force isomorphism test
ISO_MAX = 8


class GraphError(ValueError):
    """Malformed digraph data or an argument outside an operation's contract."""


class ParseError(GraphError):
    """Unparseable digraph text; ``line`` is the offending 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class HypothesisUnmet(GraphError):
    """A constructive operation's degree-sum hypothesis does not hold.

    Kept distinct from other errors so callers can tell "you may not ask this"
    apart from "the guaranteed object was not found" (which is a bug).
    """


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members: Iterable[int], n: int) -> int:
    """Validate a vertex collection against order ``n`` and pack it into a mask."""
    m = 0
    for v in members:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Digraph:
    """Simple loop-free digraph on vertices 0..n-1 (n <= 64).

    ``out[v]`` / ``inn[v]`` are bitmasks of out- and in-neighbours.  The two
    views are mirror images of each other; ``from_rows`` derives the second.
    """

    n: int
    out: tuple[int, ...]
    inn: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.inn[v].bit_count()

    def degree(self, v: int) -> int:
        return self.out[v].bit_count() + self.inn[v].bit_count()

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs in lexicographic (tail, head) order."""
        for u in range(self.n):
            for v in bits(self.out[u]):
                yield (u, v)

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out)


def from_rows(n: int, rows: Sequence[int]) -> Digraph:
    """Assemble a Digraph from out-adjacency rows, deriving the in rows."""
    inn = [0] * n
    for u in range(n):
        bit, row = 1 << u, rows[u]
        while row:
            low = row & -row
            inn[low.bit_length() - 1] |= bit
            row ^= low
    return Digraph(n, tuple(rows), tuple(inn))


def _add_arc(n: int, out: list[int], u: int, v: int) -> None:
    """Set the arc u->v in ``out``, rejecting loops, range errors and repeats."""
    if u == v:
        raise GraphError(f"loop arc ({u}, {v})")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"arc ({u}, {v}) out of range for n={n}")
    if out[u] >> v & 1:
        raise GraphError(f"duplicate arc ({u}, {v})")
    out[u] |= 1 << v


def build(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Construct a digraph, rejecting loops, range errors and duplicate arcs."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"order {n} outside 1..{MAX_VERTICES}")
    out = [0] * n
    for u, v in arcs:
        _add_arc(n, out, u, v)
    return from_rows(n, out)


def degrees(d: Digraph, x: int) -> tuple[int, int, int]:
    """(out-degree, in-degree, total degree) of ``x``."""
    if not 0 <= x < d.n:
        raise GraphError(f"vertex {x} out of range for n={d.n}")
    o = d.out[x].bit_count()
    i = d.inn[x].bit_count()
    return o, i, o + i


def degree_toward(d: Digraph, x: int, others: Iterable[int]) -> tuple[int, int, int]:
    """Degrees of ``x`` counted toward the vertex set ``others`` (x not in it)."""
    if not 0 <= x < d.n:
        raise GraphError(f"vertex {x} out of range for n={d.n}")
    m = mask_of(others, d.n)
    if m >> x & 1:
        raise GraphError(f"vertex {x} may not belong to the target set")
    o = (d.out[x] & m).bit_count()
    i = (d.inn[x] & m).bit_count()
    return o, i, o + i


def adjacent(d: Digraph, x: int, y: int) -> bool:
    """True iff at least one of the two arcs between distinct x and y exists."""
    if x == y:
        raise GraphError("adjacency is defined for distinct vertices only")
    if not (0 <= x < d.n and 0 <= y < d.n):
        raise GraphError(f"pair ({x}, {y}) out of range for n={d.n}")
    return bool((d.out[x] >> y | d.out[y] >> x) & 1)


def converse(d: Digraph) -> Digraph:
    """Reverse every arc (swap the out/in views)."""
    return Digraph(d.n, d.inn, d.out)


def induced(d: Digraph, members: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Induced subdigraph on ``members`` plus the new->old relabeling map.

    Vertices are relabeled 0..|members|-1 in increasing original order, so
    ``label[i]`` is the original id of new vertex i.
    """
    m = mask_of(members, d.n)
    if m == 0:
        raise GraphError("induced subdigraph needs a nonempty vertex set")
    label = tuple(bits(m))
    pos = {v: i for i, v in enumerate(label)}
    out = [0] * len(label)
    for i, v in enumerate(label):
        for w in bits(d.out[v] & m):
            out[i] |= 1 << pos[w]
    return from_rows(len(label), out), label


def strong_rows(n: int, rows: Sequence[int]) -> bool:
    """Strong connectivity via two reachability sweeps from vertex 0."""
    if n == 1:
        return True
    full = (1 << n) - 1
    seen = 1
    frontier = 1
    while frontier:
        acc = 0
        for v in bits(frontier):
            acc |= rows[v]
        frontier = acc & ~seen
        seen |= frontier
    if seen != full:
        return False
    # grow the set that reaches vertex 0 to a fixed point
    back = 1
    changed = True
    while changed:
        changed = False
        for v in bits(full & ~back):
            if rows[v] & back:
                back |= 1 << v
                changed = True
    return back == full


def is_strong(d: Digraph) -> bool:
    """True iff the digraph is strongly connected (a single vertex counts)."""
    return strong_rows(d.n, d.out)


def recognize_kstar(d: Digraph) -> Optional[tuple[int, int, tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Detect a complete bipartite digraph, returning (p, q, (part, part)) with p <= q.

    The only candidate partition is derived from the non-neighbourhood of
    vertex 0 in the underlying graph and then verified exactly: both parts
    independent, every cross pair joined by both arcs.
    """
    if d.n < 2:
        return None
    other = d.out[0] | d.inn[0]
    own = d.full_mask & ~other  # includes vertex 0
    if other == 0:
        return None
    for v in range(d.n):
        want = other if own >> v & 1 else own
        if d.out[v] != want or d.inn[v] != want:
            return None
    a = tuple(bits(own))
    b = tuple(bits(other))
    if len(a) > len(b):
        a, b = b, a
    return len(a), len(b), (a, b)


def isomorphic_small(d1: Digraph, d2: Digraph) -> bool:
    """Brute-force isomorphism for orders up to 8, with a degree-pair prefilter."""
    if d1.n > ISO_MAX or d2.n > ISO_MAX:
        raise GraphError(f"isomorphism test capped at {ISO_MAX} vertices")
    if d1.n != d2.n or d1.arc_count() != d2.arc_count():
        return False
    n = d1.n
    pairs1 = [(d1.out_degree(v), d1.in_degree(v)) for v in range(n)]
    pairs2 = [(d2.out_degree(v), d2.in_degree(v)) for v in range(n)]
    if sorted(pairs1) != sorted(pairs2):
        return False
    for perm in itertools.permutations(range(n)):
        if any(pairs1[v] != pairs2[perm[v]] for v in range(n)):
            continue
        ok = True
        for u in range(n):
            image = 0
            for w in bits(d1.out[u]):
                image |= 1 << perm[w]
            if image != d2.out[perm[u]]:
                ok = False
                break
        if ok:
            return True
    return False


_ARC_LINE = re.compile(r"(\d+) +(\d+)")


def parse(text: str) -> Digraph:
    """Parse the plain-text format: header line ``n``, then ``u v`` arc lines.

    ``#`` starts a comment; blank lines are ignored; arcs are 0-based and a
    repeated arc is a parse error.
    """
    n: Optional[int] = None
    out: list[int] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if n is None:
            if not body.isdigit():
                raise ParseError(f"expected vertex count, got {body!r}", lineno)
            n = int(body)
            if not 1 <= n <= MAX_VERTICES:
                raise ParseError(f"order {n} outside 1..{MAX_VERTICES}", lineno)
            out = [0] * n
            continue
        m = _ARC_LINE.fullmatch(body)
        if m is None:
            raise ParseError(f"expected arc line 'u v', got {body!r}", lineno)
        try:
            _add_arc(n, out, int(m.group(1)), int(m.group(2)))
        except GraphError as exc:
            raise ParseError(str(exc), lineno) from None
    if n is None:
        raise ParseError("missing vertex count line", lineno + 1)
    return from_rows(n, out)


def serialize(d: Digraph) -> str:
    """Canonical text: header, then arcs sorted by (tail, head), newline-terminated."""
    lines = [str(d.n)]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PathWitness:
    """A directed path given by its vertex sequence (length >= 1)."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def validate(self, d: Digraph) -> None:
        vs = self.vertices
        if len(vs) < 1:
            raise GraphError("path witness must contain at least one vertex")
        if len(set(vs)) != len(vs):
            raise GraphError(f"path witness repeats a vertex: {vs}")
        if min(vs) < 0 or max(vs) >= d.n:
            for v in vs:
                if not 0 <= v < d.n:
                    raise GraphError(f"path vertex {v} out of range for n={d.n}")
        out = d.out
        for a, b in zip(vs, vs[1:]):
            if not out[a] >> b & 1:
                raise GraphError(f"path witness uses missing arc ({a}, {b})")

    def to_json(self) -> list[int]:
        return list(self.vertices)


@dataclass(frozen=True)
class CycleWitness:
    """A directed cycle in canonical rotation: the minimum vertex id comes first."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def gap(self, entry: int, exit_: int) -> int:
        """Cyclic distance from entry to exit walking along the cycle."""
        i = self.vertices.index(entry)
        j = self.vertices.index(exit_)
        return (j - i) % len(self.vertices)

    def validate(self, d: Digraph) -> None:
        vs = self.vertices
        if len(vs) < 2:
            raise GraphError("cycle witness needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise GraphError(f"cycle witness repeats a vertex: {vs}")
        least = min(vs)
        if vs[0] != least:
            raise GraphError(f"cycle witness not in canonical rotation: {vs}")
        if least < 0 or max(vs) >= d.n:
            for v in vs:
                if not 0 <= v < d.n:
                    raise GraphError(f"cycle vertex {v} out of range for n={d.n}")
        out = d.out
        for v, w in zip(vs, vs[1:] + vs[:1]):
            if not out[v] >> w & 1:
                raise GraphError(f"cycle witness uses missing arc ({v}, {w})")

    def to_json(self) -> list[int]:
        return list(self.vertices)
