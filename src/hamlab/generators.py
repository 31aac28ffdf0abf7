"""Digraph families, labeled-space enumeration, and seeded random generation.

The random generator contract is bit-exact so results reproduce anywhere:
a splitmix64 stream seeded with ``seed`` emits one 64-bit draw per ordered
pair in row-major order, and the arc is present iff the draw falls below
``floor(arc_prob * 2**64)``.  A digraph that is not strongly connected is
rejected and sampling simply continues on the same stream.

Labeled enumeration maps bit i of an index to the i-th ordered pair in the
same row-major order, which is what makes sharded scans and checkpoints
trivially composable: a shard owns the indices congruent to its id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .digraph import MAX_VERTICES, Digraph, GraphError, build, from_rows, strong_rows

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

#: strong-digraph sampling gives up after this many rejected draws
GIVE_UP_AFTER = 10**6

#: exhaustive enumeration cap: number of ordered pairs must fit in 40 bits
ENUM_MAX_BITS = 40

#: tournament enumeration cap
TOURNAMENT_MAX_N = 8


class GiveUpError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def mix64(z: int) -> int:
    """The splitmix64 output hash of one state value."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream; state advance is a constant add, so skipping is O(1)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)

    def skip(self, draws: int) -> None:
        self.state = (self.state + draws * GAMMA) & MASK64


def derived_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th independent substream (used per sample)."""
    return mix64((seed + (index + 1) * GAMMA) & MASK64)


def threshold_for(arc_prob: float) -> int:
    """Arc-presence cutoff: draws below floor(arc_prob * 2**64) become arcs."""
    if not 0.0 <= arc_prob <= 1.0:
        raise GraphError(f"arc probability {arc_prob} outside [0, 1]")
    return math.floor(arc_prob * 2**64)


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (u, v), u != v, in row-major order."""
    return [(u, v) for u in range(n) for v in range(n) if v != u]


# ---------------------------------------------------------------------------
# fixed families


def gen_kstar(p: int, q: int) -> Digraph:
    """Complete bipartite digraph: parts [0, p) and [p, p+q), all cross arcs."""
    if p < 1 or q < 1:
        raise GraphError("both parts need at least one vertex")
    n = p + q
    if n > MAX_VERTICES:
        raise GraphError(f"order {n} outside 1..{MAX_VERTICES}")
    part_b = ((1 << q) - 1) << p
    part_a = (1 << p) - 1
    rows = [part_b if v < p else part_a for v in range(n)]
    return from_rows(n, rows)


def gen_kstar_minus_arc(p: int, q: int) -> Digraph:
    """The complete bipartite digraph minus the single arc 0 -> p."""
    d = gen_kstar(p, q)
    rows = list(d.out)
    rows[0] &= ~(1 << p)
    return from_rows(d.n, rows)


def gen_two_cliques(m: int) -> Digraph:
    """Two complete digraphs of order m glued at vertex 0 (order 2m - 1)."""
    if m < 2:
        raise GraphError("each clique needs at least two vertices")
    n = 2 * m - 1
    if n > MAX_VERTICES:
        raise GraphError(f"order {n} outside 1..{MAX_VERTICES}")
    first = (1 << m) - 1  # {0} + [1, m)
    second = ((1 << (m - 1)) - 1) << m | 1  # {0} + [m, 2m-1)
    rows = []
    for v in range(n):
        home = first | second if v == 0 else (first if v < m else second)
        rows.append(home & ~(1 << v))
    return from_rows(n, rows)


def gen_directed_cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise GraphError("directed cycle needs order >= 2")
    return build(n, [(v, (v + 1) % n) for v in range(n)])


# ---------------------------------------------------------------------------
# seeded random strong digraphs


def random_strong_rows(n: int, arc_prob: float, seed: int) -> Optional[list[int]]:
    """Row kernel behind :func:`gen_random_strong`; None when the budget runs out.

    An arc probability too small to give any arc (cutoff 0) raises at once
    from order 2 up, since no arcless digraph there is strong.
    """
    if not 1 <= n <= 64:
        raise GraphError(f"order {n} outside 1..64")
    cutoff = threshold_for(arc_prob)
    if cutoff == 0 and n >= 2:
        raise GraphError(
            f"arc probability {arc_prob} draws no arcs, so no strong digraph of order {n}"
        )
    pairs = ordered_pairs(n)
    state = seed & MASK64
    for _ in range(GIVE_UP_AFTER):
        rows = [0] * n
        for u, v in pairs:
            state = (state + GAMMA) & MASK64
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
            if (z ^ (z >> 31)) < cutoff:
                rows[u] |= 1 << v
        if strong_rows(n, rows):
            return rows
    return None


def gen_random_strong(n: int, arc_prob: float, seed: int) -> Digraph:
    """Strongly connected random digraph from the pinned splitmix64 stream."""
    rows = random_strong_rows(n, arc_prob, seed)
    if rows is None:
        raise GiveUpError(
            f"no strong digraph of order {n} at arc_prob={arc_prob} "
            f"after {GIVE_UP_AFTER} draws (seed {seed})"
        )
    return from_rows(n, rows)


# ---------------------------------------------------------------------------
# exhaustive enumeration


@dataclass(frozen=True)
class EnumerationCursor:
    """Position in a sharded scan of the labeled space of order n."""

    n: int
    index: int
    shard: int = 0
    shards: int = 1

    def to_json(self) -> dict[str, int]:
        return {"n": self.n, "index": self.index, "shard": self.shard, "shards": self.shards}


def enum_bits(n: int) -> int:
    return n * (n - 1)


def rows_from_index(n: int, index: int) -> list[int]:
    """Decode a labeled-space index into out-adjacency rows.

    Bit i of the index corresponds to the i-th ordered pair in row-major
    order, so each vertex owns a contiguous (n-1)-bit chunk.
    """
    rows = []
    chunk = (1 << (n - 1)) - 1
    for u in range(n):
        c = index >> (u * (n - 1)) & chunk
        low = c & ((1 << u) - 1)
        rows.append(low | (c >> u) << (u + 1))
    return rows


def index_from_rows(n: int, rows: Sequence[int]) -> int:
    """Inverse of :func:`rows_from_index`."""
    index = 0
    for u in range(n):
        row = rows[u]
        low = row & ((1 << u) - 1)
        c = low | (row >> (u + 1)) << u
        index |= c << (u * (n - 1))
    return index


def enum_labeled(n: int, shard: int = 0, shards: int = 1) -> Iterator[tuple[int, Digraph]]:
    """Yield (index, digraph) for every labeled digraph with index % shards == shard."""
    if enum_bits(n) > ENUM_MAX_BITS:
        raise GraphError(f"labeled space of order {n} needs {enum_bits(n)} bits > {ENUM_MAX_BITS}")
    if shards < 1 or not 0 <= shard < shards:
        raise GraphError(f"shard {shard} outside 0..{shards - 1}")
    for index in range(shard, 1 << enum_bits(n), shards):
        yield index, from_rows(n, rows_from_index(n, index))


def tournament_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered pairs (u, v), u < v, in row-major order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def tournament_rows_from_index(n: int, index: int) -> list[int]:
    """Decode a tournament index: bit j clear means u->v for the j-th pair u<v."""
    rows = [0] * n
    for j, (u, v) in enumerate(tournament_pairs(n)):
        if index >> j & 1:
            rows[v] |= 1 << u
        else:
            rows[u] |= 1 << v
    return rows


def enum_tournaments(n: int) -> Iterator[Digraph]:
    """All labeled tournaments of order n (one arc per unordered pair)."""
    if not 1 <= n <= TOURNAMENT_MAX_N:
        raise GraphError(f"tournament enumeration capped at order {TOURNAMENT_MAX_N}")
    count = 1 << (n * (n - 1) // 2)
    for index in range(count):
        yield from_rows(n, tournament_rows_from_index(n, index))
