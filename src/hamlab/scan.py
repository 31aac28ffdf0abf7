"""Vectorized block kernels for bulk screening of digraph spaces.

The verification harness owes its throughput to these routines: whole blocks
of labeled-space or tournament indices (``decode_rows``, ``tournament_rows``)
or of random samples are decoded and screened with numpy, and the digraphs
that survive the cheap filters (strong connectivity, the triple degree-sum
condition) are re-confirmed and judged a block at a time by the hit-block
kernels below.  Every kernel mirrors a scalar routine bit for bit — the test
suite holds the two routes equal over full labeled spaces — and the harness
still sends each block's first hit and every negative verdict through the
scalar route, so the fast path never becomes the only authority.

All row blocks are ``(B, n)`` uint64 arrays of out-adjacency bitmasks, the
same encoding the scalar modules use.  Up to order 8 (``WORD_MAX_N``) a
whole digraph also fits one 64-bit word, an 8x8 bit matrix with row u in
byte u: ``decode_rows`` builds each index's word by shifts and masks and
inserts every row's diagonal bit at once, and ``in_rows`` transposes words.
The screens make O(n) or O(n²) passes over a block:

- ``strong_flags`` runs Warshall's closure on the words of a whole block, n
  steps of a few array operations with no per-row work; above order 8,
  ``_sweep_strong`` grows the sets reached from and reaching vertex 0 and
  retires each row once both are full or either stops growing short of full;
- ``triple_condition_flags`` reduces the O(n³) quantifier over (x, y, z) to
  one comparison per vertex x built from three per-row minima (see its
  docstring), and retires each row at the first x it fails.

The hit-block kernels cover orders up to ``HIT_MAX_N``:

- ``confirm_flags`` re-checks both hypotheses by formulations independent of
  the screens (the vertex-0 sweep of ``_sweep_strong`` for strong
  connectivity, and the literal clause form of the triple condition), so a
  defect in a screen has to be made twice to slip through;
- ``cycle_lengths`` gives every cycle length of each row from one Held–Karp
  pass over (subset, endpoint), the loop ``_held_karp``;
- ``bypass_flags`` finds a Hamiltonian bypass (a spanning path whose first
  vertex s beats its last) through the same loop: such a path is a
  Hamiltonian cycle of the digraph rewired so that s's in-mask is its
  out-row, so each start s swaps that one in-mask and reads bit n;
- ``lemma35_flags`` is the paired low-degree property;
- ``first_paths`` runs the lex-first path and cycle searches of
  ``cycles._first_path`` for a block of setups in lockstep (the lemma
  suite's bases B and paths Q).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cycles import find_cycle_rows, find_path_rows
from .digraph import GraphError
from .generators import GAMMA, GIVE_UP_AFTER, GiveUpError, threshold_for

U = np.uint64
ONE = U(1)
ONE_8 = np.uint8(1)
GAMMA_U = U(GAMMA)

_SH = [U(i) for i in range(65)]
_BIT = np.array([1 << v for v in range(64)], dtype=np.uint64)
#: byte of a row holding vertex v, and v's bit within that byte
_BYTE = np.arange(64) >> 3
_BIT8 = np.array([1 << (v & 7) for v in range(64)], dtype=np.uint8)

_M1 = U(0xBF58476D1CE4E5B9)
_M2 = U(0x94D049BB133111EB)
_S30, _S27, _S31 = U(30), U(27), U(31)

#: set-bit count of each byte value
POP8 = np.array([c.bit_count() for c in range(256)], dtype=np.uint8)
#: byte value -> uint64 holding bit j of the byte in byte j (a per-bit counter)
_SPREAD = np.array(
    [sum(1 << 8 * j for j in range(8) if c >> j & 1) for c in range(256)], dtype="<u8"
)

#: sentinel above every triple-condition sum (at most 6(n-1) = 378 for n <= 64)
_FAR = np.int16(1 << 10)

#: largest order the hit-block kernels take: Held–Karp endpoint sets are uint8
HIT_MAX_N = 8

#: largest order whose digraphs fit one word, row u in byte u
WORD_MAX_N = 8
#: bit 0 of every byte
_BYTE_LSB = U(0x0101010101010101)
#: bits 0..u-1 of each byte u: the chunk bits below u's diagonal
_LOW_BITS = U(sum(((1 << u) - 1) << 8 * u for u in range(8)))
#: per order n, the diagonal of the first n rows, and those rows all full
_DIAGONAL = [U(sum(1 << 9 * u for u in range(n))) for n in range(9)]
_FULL = [U(sum(((1 << n) - 1) << 8 * u for u in range(n))) for n in range(9)]


def mix_vec(
    state: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """splitmix64 output hash applied elementwise to a uint64 array.

    ``out`` and ``scratch`` are optional buffers shaped like ``state``; the
    hash is written into ``out`` (a new array when omitted).
    """
    z = np.right_shift(state, _S30, out=out)
    t = np.empty_like(state) if scratch is None else scratch
    z ^= state
    z *= _M1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def decode_rows(n: int, indices: np.ndarray) -> np.ndarray:
    """Decode labeled-space indices into out-adjacency row blocks (orders up to 8).

    Each index becomes one word: vertex u's (n-1)-bit chunk moves into byte
    u, and then every byte's diagonal bit is inserted at once (the bits of
    byte u from bit u up move up by one).  The word's first n bytes are the
    rows.
    """
    if n > WORD_MAX_N:
        raise ValueError(f"word decode covers orders up to {WORD_MAX_N}, got {n}")
    chunk_mask = (1 << (n - 1)) - 1
    words = indices & U(chunk_mask)
    chunk = np.empty_like(words)
    for u in range(1, n):
        # chunk u sits at bit u(n-1) and moves to bit 8u
        np.bitwise_and(indices, U(chunk_mask << u * (n - 1)), out=chunk)
        chunk <<= _SH[u * (9 - n)]
        words |= chunk
    np.bitwise_and(words, ~_LOW_BITS, out=chunk)
    chunk <<= ONE
    words &= _LOW_BITS
    words |= chunk
    return words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :n].astype(np.uint64)


def tournament_rows(n: int, indices: np.ndarray) -> np.ndarray:
    """Decode tournament indices into row blocks.

    Bit j of an index clear means u→v for the j-th pair u < v in row-major
    order, set means v→u, as in ``generators.tournament_rows_from_index``.
    """
    rows = np.zeros((indices.shape[0], n), dtype=np.uint64)
    j = 0
    for u in range(n):
        for v in range(u + 1, n):
            back = (indices >> _SH[j]) & ONE
            rows[:, v] |= back << _SH[u]
            rows[:, u] |= (back ^ ONE) << _SH[v]
            j += 1
    return rows


def strong_flags(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of strongly connected digraphs in a row block.

    Up to order 8 each row is one word, row u in byte u, and Warshall's
    closure runs on all words at once: at step k, bit 0 of byte u is set
    when u reaches k, and multiplying those bits by row k adds row k to
    every such row u (no byte carries into the next).  A digraph is strong
    when its closure plus the diagonal is full.  Above order 8 the vertex-0
    sweep (``_sweep_strong``) decides.
    """
    if n > WORD_MAX_N:
        return _sweep_strong(n, rows)
    packed = np.zeros((rows.shape[0], 8), dtype=np.uint8)
    packed[:, :n] = rows
    words = packed.view("<u8").ravel()
    column = np.empty_like(words)
    for k in range(n):
        np.right_shift(words, _SH[k], out=column)
        column &= _BYTE_LSB
        column *= packed[:, k]
        words |= column
    words |= _DIAGONAL[n]
    return words == _FULL[n]


def _sweep_strong(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of strongly connected digraphs, by sweeps from vertex 0.

    Each round sweeps the vertices once, growing ``reach`` (vertices reached
    from 0) and ``back`` (vertices reaching 0) in place, so it advances at
    least one BFS layer.  A row is decided when both sets are full (strong)
    or a round leaves either set unchanged short of full (that set is
    closed: not strong); decided rows leave the block.  Every row is decided
    within n - 1 rounds; the loop allows n so that order 1, whose sets are
    full from the start, is decided too.
    """
    count = rows.shape[0]
    full = U((1 << n) - 1)
    strong = np.zeros(count, dtype=bool)
    live = np.arange(count)
    reach = np.ones(count, dtype=np.uint64)
    back = np.ones(count, dtype=np.uint64)
    for _ in range(n):
        if not live.size:
            break
        before = reach.copy()
        step = np.empty_like(before)
        for v in range(n):
            # out-row of v where v is reached, else 0
            np.right_shift(reach, _SH[v], out=step)
            step &= ONE
            step *= rows[:, v]
            reach |= step
        closed = (reach == before) & (reach != full)
        np.copyto(before, back)
        for v in range(1, n):
            # bit v where an arc of v enters back, else 0
            np.bitwise_and(rows[:, v], back, out=step)
            np.minimum(step, ONE, out=step)
            step <<= _SH[v]
            back |= step
        closed |= (back == before) & (back != full)
        np.bitwise_and(reach, back, out=step)
        done = step == full
        del before, step  # freed ahead of the compaction copies
        strong[live[done]] = True
        undecided = ~(done | closed)
        live = live[undecided]
        rows = rows[undecided]
        reach = reach[undecided]
        back = back[undecided]
    return strong


def _degrees(n: int, octets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out-degree, in-degree) int16 tables of shape (n, B) from (B, n, w) row bytes.

    Out-degrees sum the bit counts of a row's bytes.  In-degrees add every
    row's bytes spread one bit per byte, so each byte of the sum counts the
    arcs into one vertex (at most 63, so no byte carries into the next).
    """
    count, _, width = octets.shape
    out_deg = np.zeros((n, count), dtype=np.int16)
    for b in range(width):
        out_deg += POP8[octets[:, :, b].T]
    counters = np.zeros((count, width), dtype="<u8")
    for u in range(n):
        counters += _SPREAD[octets[:, u]]
    in_deg = counters.view(np.uint8)[:, :n].T.astype(np.int16, order="C")
    return out_deg, in_deg


def triple_condition_flags(n: int, rows: np.ndarray, slack: int) -> np.ndarray:
    """Boolean mask of digraphs satisfying the triple degree-sum condition.

    Quantifier identical to the scalar row kernel: ordered non-adjacent pairs
    (x, y), witness z ranging over every vertex other than x, and

        d(x) + d(y) + d⁺(x) + d⁻(z) >= 3n - 2 + slack   when x↛z,
        d(x) + d(y) + d⁻(x) + d⁺(z) >= 3n - 2 + slack   when z↛x.

    For a fixed x the y-term and the z-term of each sum are independent, so
    every clause for x holds iff the least sum does:

        min_y d(y) + d(x) + min(d⁺(x) + mI(x), d⁻(x) + mO(x)) >= 3n - 2 + slack

    with y over the vertices non-adjacent to x, mI(x) the least d⁻(z) over
    z ≠ x with x↛z, and mO(x) the least d⁺(z) over z ≠ x with z↛x.  Both z
    sets contain every such y, so neither minimum is empty when a clause
    applies; when none applies the y-minimum is a sentinel above any bound.
    This is exact, not a relaxation: the minimizing (y, z) is itself a
    clause.  A row is dropped at the first x it fails, so later vertices
    scan only the survivors.
    """
    count = rows.shape[0]
    # every clause sum is at most 6(n-1) < _FAR, so clamping keeps each
    # comparison and keeps int16 arithmetic safe for any slack
    bound = min(max(3 * n - 2 + slack, 0), int(_FAR))
    # the ceil(n/8) low bytes of each row, the only ones that can hold arcs
    octets = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    octets = octets.reshape(count, n, 8)[:, :, : (n + 7) // 8]
    out_deg, in_deg = _degrees(n, octets)
    deg = out_deg + in_deg
    live = np.arange(count)
    byte_of, bit_of = _BYTE[:n], _BIT8[:n, None]
    for x in range(n):
        # (n, B) masks, read from bytes so that no uint64 temporary is made
        fwd = (octets[:, x].T[byte_of] & bit_of) != 0  # x→z
        back = np.bitwise_and(octets[:, :, x >> 3].T, _BIT8[x], order="C") != 0  # z→x
        adjacent = fwd | back
        adjacent[x] = fwd[x] = back[x] = True
        least = np.where(adjacent, _FAR, deg).min(axis=0)
        via_in = np.where(fwd, _FAR, in_deg).min(axis=0)
        via_out = np.where(back, _FAR, out_deg).min(axis=0)
        via_in += out_deg[x]
        via_out += in_deg[x]
        np.minimum(via_in, via_out, out=via_in)
        least += via_in
        least += deg[x]
        keep = least >= bound
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            octets = octets[keep]
            out_deg = out_deg[:, keep]
            in_deg = in_deg[:, keep]
            deg = deg[:, keep]
    ok = np.zeros(count, dtype=bool)
    ok[live] = True
    return ok


def _arc_matrix(n: int, rows: np.ndarray) -> np.ndarray:
    """(B, n, n) boolean adjacency matrices: ``[b, u, v]`` holds the arc u→v.

    Up to ``HIT_MAX_N`` a row fits in one byte, so the bits unpack straight
    to one byte per entry.
    """
    bits = np.unpackbits(_row_bytes(n, rows)[:, :, None], axis=2, bitorder="little")
    return bits[:, :, :n].view(bool)


def _row_bytes(n: int, rows: np.ndarray) -> np.ndarray:
    """The rows as uint8, which holds a whole row up to ``HIT_MAX_N``."""
    if n > HIT_MAX_N:
        raise ValueError(f"hit-block kernels cover orders up to {HIT_MAX_N}, got {n}")
    return rows.astype(np.uint8)


def confirm_flags(n: int, rows: np.ndarray, slack: int) -> np.ndarray:
    """Boolean mask of rows that are strong and satisfy the triple condition.

    Written independently of both screens.  Strong connectivity comes from
    the sweeps out of vertex 0 (``_sweep_strong``), not from the word closure
    that screened the rows.  The triple condition is the
    literal clause form: for every x, a (B, y, z) array of both clause sums
    over y non-adjacent to x and z ≠ x with the named arc absent, with
    degrees counted from the adjacency matrices rather than the row bytes.
    """
    arcs = _arc_matrix(n, rows)
    ok = _sweep_strong(n, rows)
    out_deg = arcs.sum(axis=2, dtype=np.int16)
    in_deg = arcs.sum(axis=1, dtype=np.int16)
    deg = out_deg + in_deg
    # every clause sum is at most 6(n-1) < _FAR, so the clamp keeps each verdict
    bound = min(max(3 * n - 2 + slack, 0), int(_FAR))
    for x in range(n):
        no_xz = ~arcs[:, x, :]  # (B, z)
        no_zx = ~arcs[:, :, x]
        nonadj = no_xz & no_zx  # (B, y)
        nonadj[:, x] = False
        if not nonadj.any():
            continue  # no clause for x in the block: ``low`` would be all False
        no_xz[:, x] = no_zx[:, x] = False
        pair = (deg[:, x, None] + deg)[:, :, None]  # d(x) + d(y), (B, y, 1)
        via_xz = (out_deg[:, x, None] + in_deg)[:, None, :]  # d⁺(x) + d⁻(z), (B, 1, z)
        via_zx = (in_deg[:, x, None] + out_deg)[:, None, :]  # d⁻(x) + d⁺(z)
        low = no_xz[:, None, :] & (pair + via_xz < bound)
        low |= no_zx[:, None, :] & (pair + via_zx < bound)
        low &= nonadj[:, :, None]
        ok &= ~low.any(axis=(1, 2))
    return ok


@lru_cache(maxsize=None)
def _held_karp_layers(n: int) -> tuple:
    """Subset layers of the Held–Karp pass, sizes 2..n.

    Each layer is (size, subsets, their minimum vertices, steps); a step
    pairs, for every subset, its j-th smallest member w (j >= 1) with the
    subset minus w and w's bit, so a layer is built from the one below it.
    """
    layers = []
    for size in range(2, n + 1):
        subsets = [s for s in range(1 << n) if s.bit_count() == size]
        members = [[v for v in range(n) if s >> v & 1] for s in subsets]
        steps = []
        for j in range(1, size):
            w = np.array([m[j] for m in members])
            prev = np.array([s & ~(1 << m[j]) for s, m in zip(subsets, members)])
            bit = np.array([[1 << m[j]] for m in members], dtype=np.uint8)
            steps.append((w, prev, bit))
        roots = np.array([m[0] for m in members])
        layers.append((size, np.array(subsets), roots, steps))
    return tuple(layers)


@lru_cache(maxsize=None)
def _rooted_layers(n: int) -> tuple:
    """The layers of ``_held_karp_layers`` cut to the subsets holding vertex 0.

    Vertex 0 is the root of each of them, so a pass over these layers finds
    the paths from 0.  Only the full layer keeps its roots, so the pass
    closes Hamiltonian cycles alone: closing every layer made
    ``bypass_flags`` about a third slower on random order-6 to 8 blocks,
    whose rows try several starts.
    """
    layers = []
    for size, subsets, roots, steps in _held_karp_layers(n):
        keep = roots == 0
        kept = [(w[keep], prev[keep], bit[keep]) for w, prev, bit in steps]
        layers.append((size, subsets[keep], roots[keep] if size == n else roots[:0], kept))
    return tuple(layers)


def _in_masks(n: int, small: np.ndarray) -> np.ndarray:
    """(n, B) uint8 in-neighbour masks of uint8 rows: bit v of ``[w]`` set when v→w."""
    padded = np.zeros((small.shape[0], 8), dtype=np.uint8)
    padded[:, :n] = small
    return np.ascontiguousarray(in_rows(padded)[:, :n].T)


def _held_karp(n: int, into: np.ndarray, layers: tuple) -> np.ndarray:
    """Per column of the (n, B) in-masks ``into``, the bitmask of the cycle
    lengths closed over ``layers`` (bit k: a k-cycle).

    Held–Karp over (subset, endpoint), rooted at each subset's minimum
    vertex: ``ends[S]`` is the uint8 set of vertices v such that a path from
    min(S) to v visits exactly S.  v joins ``ends[S]`` when some endpoint of
    S minus v has an arc into v (``steps`` pair each S with its
    predecessors, see ``_held_karp_layers``), and S closes a cycle of length
    |S| when an endpoint has an arc back into min(S).  A layer given no
    roots closes no cycle.
    """
    count = into.shape[1]
    ends = np.zeros((1 << n, count), dtype=np.uint8)
    for r in range(n):
        ends[1 << r] = 1 << r
    lengths = np.zeros(count, dtype=np.uint16)
    for size, subsets, roots, steps in layers:
        layer = np.zeros((subsets.size, count), dtype=np.uint8)
        for w, prev, bit in steps:
            step = ends[prev]
            step &= into[w]
            np.minimum(step, 1, out=step)
            step *= bit
            layer |= step
        ends[subsets] = layer
        if roots.size:
            layer &= into[roots]
            lengths[layer.any(axis=0)] |= np.uint16(1 << size)
    return lengths


def cycle_lengths(n: int, rows: np.ndarray) -> np.ndarray:
    """Per row, the bitmask of the cycle lengths present (bit k: a k-cycle).

    One Held–Karp pass (``_held_karp``) over every subset, which finds each
    cycle once, from its minimum vertex.
    """
    return _held_karp(n, _in_masks(n, _row_bytes(n, rows)), _held_karp_layers(n))


def bypass_flags(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with a Hamiltonian bypass: a spanning path whose
    first vertex s also has an arc to its last vertex v.

    Such a path is a Hamiltonian cycle of D_s, the digraph with the arcs into
    s replaced by v→s for every out-neighbour v of s, so only the in-mask of
    s changes: it becomes s's out-row.  The in-masks are built once; for
    each start s the Held–Karp pass runs on them with row s swapped, over
    the subsets holding vertex 0 (``_rooted_layers``), and bit n of its
    result tells.  A row leaves the block at the first start that gives it a
    bypass.
    """
    small = _row_bytes(n, rows)
    into = _in_masks(n, small)
    found = np.zeros(rows.shape[0], dtype=bool)
    live = np.arange(rows.shape[0])
    for s in range(n):
        if not live.size:
            break
        rewired = into.copy()
        rewired[s] = small[:, s]
        has = _held_karp(n, rewired, _rooted_layers(n)) >> n & 1 != 0
        found[live[has]] = True
        live, small, into = live[~has], small[~has], into[:, ~has]
    return found


def lemma35_flags(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of rows where every vertex has at most one non-adjacent
    partner with degree pair sum below 2n - 1 (the hypothesis is not checked)."""
    arcs = _arc_matrix(n, rows)
    deg = arcs.sum(axis=2, dtype=np.int16) + arcs.sum(axis=1, dtype=np.int16)
    nonadj = ~(arcs | arcs.transpose(0, 2, 1))
    nonadj[:, np.arange(n), np.arange(n)] = False
    low = nonadj & (deg[:, :, None] + deg[:, None, :] < 2 * n - 1)
    return (low.sum(axis=2) < 2).all(axis=1)


#: lowest set bit of each byte as a vertex id, 8 for the empty byte
_LOW8 = np.array([(c & -c).bit_length() - 1 if c else 8 for c in range(256)], dtype=np.uint8)
#: each vertex id's bit as a byte, 0 for the ids 8..255 that pad a witness
VERTEX_BIT = np.array([1 << v if v < 8 else 0 for v in range(256)], dtype=np.uint8)
#: per vertex r, the byte of the vertices above r
_ABOVE8 = np.array([0xFF << r + 1 & 0xFF for r in range(8)], dtype=np.uint8)
_R8 = np.arange(8, dtype=np.uint8)
#: masks and shifts of the three delta swaps that transpose an 8x8 bit matrix
_TRANSPOSE8 = [
    (U(0x00AA00AA00AA00AA), U(7)),
    (U(0x0000CCCC0000CCCC), U(14)),
    (U(0x00000000F0F0F0F0), U(28)),
]

#: pad of a witness row past its last vertex; a row of it alone is no witness
NO_VERTEX = np.uint8(255)

#: lockstep passes ``first_paths`` makes before the scalar search finishes
#: the setups still busy (about 1 in 100 of a lemma block)
_DFS_CAP = 16


def in_rows(rows: np.ndarray) -> np.ndarray:
    """(S, 8) uint8 in-rows of (S, 8) uint8 out-rows: bit v of ``[s, w]`` set when v→w.

    Each row is one 8x8 bit matrix in a uint64, transposed by three delta swaps.
    """
    x = np.ascontiguousarray(rows, dtype=np.uint8).view("<u8").ravel()
    for mask, shift in _TRANSPOSE8:
        t = x ^ (x >> shift)
        t &= mask
        x = x ^ t
        x ^= t << shift
    return x.view(np.uint8).reshape(-1, 8)


def first_paths(rows: np.ndarray, length: np.ndarray, pool: np.ndarray, cyclic: bool) -> np.ndarray:
    """Lex-first path or cycle witnesses for a block of setups.

    The block-wide twin of ``cycles.find_path_rows(n, rows, length, pool)``
    (``cyclic`` false) and ``cycles.find_cycle_rows(n, rows, length, pool)``
    (``cyclic`` true): setup s asks for a witness of ``length[s]`` vertices
    inside the vertex set ``pool[s]`` of the digraph ``rows[s]`` (uint8
    out-rows, up to 8 columns).  Row s of the (S, 8) uint8 result holds the
    witness followed by ``NO_VERTEX``, or only ``NO_VERTEX`` when there is
    none.

    Every setup runs ``cycles._first_path``'s depth-first search in lockstep:
    a pass backtracks each setup until it has an untried candidate, then
    extends it by its lowest one, so every setup meets the paths in the
    scalar order and stops at the same one.  Depth 0 is a virtual root whose
    candidates are the starts (every pool vertex) or the eligible cycle
    roots: r such that the pool holds at least ``length`` vertices from r
    up, an out-neighbour of r above r and an in-neighbour of r above r
    (``find_cycle_rows``' pruning).  Once a cycle's root r is pushed, its
    other vertices come from the pool above r and its last one from r's
    in-neighbours there.

    A setup with neither a candidate nor a vertex on its path is idle: it
    has found its witness (and keeps it) or run out of starts, and it writes
    only to a spare cell.  When at most half the setups are busy they are
    compacted to the next power of two, padded with idle ones, so the arrays
    that outlive a pass come in a few sizes.  Sizes that change from pass to
    pass fill numpy's cache of small buffers (up to 7 per byte size below
    1 KiB), which grew the heap from block to block.  Setups still busy
    after ``_DFS_CAP`` passes, the long searches, are finished by the scalar
    search.
    """
    count, width = rows.shape
    if width > HIT_MAX_N:
        raise ValueError(f"first_paths covers orders up to {HIT_MAX_N}, got {width}")
    out = np.zeros((count, 8), dtype=np.uint8)
    out[:, :width] = rows
    pool = pool.astype(np.uint8)
    if cyclic:
        # per (setup, root r): the pool above r, and r's in-neighbours there
        above = pool[:, None] & _ABOVE8
        ends = in_rows(out)
        ends &= above
        roots = (ends != 0) & (out & above != 0)
        del above
        roots &= POP8[pool[:, None] >> _R8] >= length[:, None]
        roots &= length[:, None] >= 2
        cand = np.packbits(roots, axis=1, bitorder="little")[:, 0] & pool
        ends = ends.ravel()
    else:
        cand = np.where((length >= 1) & (length <= POP8[pool]), pool, 0).astype(np.uint8)
    out_rows = out.ravel()
    # the paths and the stacks of untried candidates, a row of 8 per setup,
    # plus the spare cell
    path = np.full(count * 8 + 1, NO_VERTEX, dtype=np.uint8)
    stack = np.zeros(count * 8 + 1, dtype=np.uint8)
    spare = np.intp(count * 8)
    found = np.zeros(count, dtype=bool)
    # the live setups: the offset of their row, untried candidates, vertices
    # on the path, path length, target length and pool
    at = np.arange(0, count * 8, 8)
    used = np.zeros(count, dtype=np.uint8)
    depth = np.zeros(count, dtype=np.uint8)
    want = length.astype(np.uint8)
    limit = pool
    for _ in range(_DFS_CAP):
        while True:
            back = cand == 0
            back &= depth != 0
            if not back.any():
                break
            depth -= back
            top = at + depth
            np.copyto(cand, stack[top], where=back)
            used ^= VERTEX_BIT[path[top]] * back
        step = cand != 0
        w = _LOW8[cand]
        top = np.where(step, at + depth, spare)
        path[top] = w
        stack[top] = cand & (cand - ONE_8)
        used |= VERTEX_BIT[w]
        depth += step
        np.bitwise_and(out_rows[at + (w & 7)], ~used, out=cand, where=step)
        if cyclic:
            root = path[at] & 7
            cand &= np.where(depth + ONE_8 == want, ends[at + root], limit & _ABOVE8[root])
        else:
            cand &= limit
        done = depth == want
        done &= step
        if done.any():
            found[at >> 3] |= done
            np.copyto(cand, 0, where=done)
            np.copyto(depth, 0, where=done)
        busy = (cand != 0) | (depth != 0)
        live = int(np.count_nonzero(busy))
        if 2 * live <= at.size:
            if not live:
                break
            keep = np.argsort(~busy, kind="stable")[: 1 << (live - 1).bit_length()]
            at, cand, used, depth, want, limit = (
                at[keep], cand[keep], used[keep], depth[keep], want[keep], limit[keep]
            )
    witness = path[:-1].reshape(count, 8)
    witness[~found] = NO_VERTEX
    search = find_cycle_rows if cyclic else find_path_rows
    for s in (at[(cand != 0) | (depth != 0)] >> 3).tolist():
        scalar = search(8, out[s].tolist(), int(length[s]), int(pool[s]))
        if scalar is not None:
            witness[s, : len(scalar)] = scalar
    return witness


def seeds_for(seed: int, ordinals: np.ndarray) -> np.ndarray:
    """Per-sample substream seeds for the given sample ordinals."""
    return mix_vec(U(seed) + (ordinals.astype(np.uint64) + ONE) * GAMMA_U)


def _draw_block(block: np.ndarray, state: np.ndarray, top: np.uint64) -> None:
    """Fill ``block`` with one attempt per stream, row by row.

    ``state`` holds each stream's splitmix64 state and advances by γ per
    ordered pair (u, v) in row-major order, exactly as the scalar sampler's;
    the arc is present when the hash of the new state is at most ``top``.
    The scratch buffers are freed on return, before the block is screened.
    """
    n = block.shape[1]
    draw = np.empty_like(state)
    scratch = np.empty_like(state)
    row = np.empty_like(state)
    arc = np.empty(state.shape, dtype=bool)
    for u in range(n):
        row.fill(0)
        for v in range(n):
            if v == u:
                continue
            state += GAMMA_U
            mix_vec(state, draw, scratch)
            np.less_equal(draw, top, out=arc)
            np.multiply(arc, _BIT[v], out=scratch)
            row |= scratch
        block[:, u] = row


def sample_strong_rows(n: int, arc_prob: float, seeds: np.ndarray) -> np.ndarray:
    """Strong random digraphs, one per substream seed, as a (B, n) row block.

    Bit-exact vector replica of the scalar rejection sampler: each sample's
    stream emits one draw per ordered pair, and a digraph that is not strong
    is redrawn from where its stream stopped.  The first attempt is drawn
    into the output block itself; retries draw only the rejected samples.
    As in the scalar sampler, an arc probability too small to give any arc
    (cutoff 0) raises at once from order 2 up.
    """
    cutoff = threshold_for(arc_prob)
    if cutoff == 0 and n >= 2:
        raise GraphError(
            f"arc probability {arc_prob} draws no arcs, so no strong digraph of order {n}"
        )
    # draw < cutoff as draw <= cutoff - 1, which fits 64 bits (cutoff 0: order 1, no draws)
    top = U(max(cutoff - 1, 0))
    rows = np.empty((seeds.shape[0], n), dtype=np.uint64)
    block = rows
    pending = np.arange(seeds.shape[0])
    state = seeds.astype(np.uint64)
    for _ in range(GIVE_UP_AFTER):
        _draw_block(block, state, top)
        good = strong_flags(n, block)
        if block is not rows:
            rows[pending[good]] = block[good]
        rejected = ~good
        pending = pending[rejected]
        if not pending.size:
            return rows
        state = state[rejected]
        block = np.empty((pending.size, n), dtype=np.uint64)
    raise GiveUpError(
        f"no strong digraph of order {n} at arc_prob={arc_prob} "
        f"after {GIVE_UP_AFTER} attempts"
    )
