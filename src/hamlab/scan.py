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
same encoding the scalar modules use.  The screens make O(n) or O(n²)
passes over a block and drop the rows they have decided, so later passes
touch only the undecided rest:

- ``strong_flags`` grows the sets reached from and reaching vertex 0 and
  retires each row once both are full or either stops growing short of full;
- ``triple_condition_flags`` reduces the O(n³) quantifier over (x, y, z) to
  one comparison per vertex x built from three per-row minima (see its
  docstring), and retires each row at the first x it fails.

The hit-block kernels cover orders up to ``HIT_MAX_N``:

- ``confirm_flags`` re-checks both hypotheses by formulations independent of
  the screens (a Warshall closure, and the literal clause form of the triple
  condition), so a defect in a screen has to be made twice to slip through;
- ``cycle_lengths`` gives every cycle length of each row from one Held–Karp
  pass over (subset, endpoint);
- ``bypass_flags`` finds a Hamiltonian bypass (a spanning path whose first
  vertex beats its last) by the same pass rooted at each start vertex;
- ``lemma35_flags`` is the paired low-degree property.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generators import GAMMA, GIVE_UP_AFTER, GiveUpError, threshold_for

U = np.uint64
ONE = U(1)
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
_POP8 = np.array([c.bit_count() for c in range(256)], dtype=np.uint8)
#: byte value -> uint64 holding bit j of the byte in byte j (a per-bit counter)
_SPREAD = np.array(
    [sum(1 << 8 * j for j in range(8) if c >> j & 1) for c in range(256)], dtype="<u8"
)

#: sentinel above every triple-condition sum (at most 6(n-1) = 378 for n <= 64)
_FAR = np.int16(1 << 10)

#: largest order the hit-block kernels take: Held–Karp endpoint sets are uint8
HIT_MAX_N = 8


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


@lru_cache(maxsize=None)
def _row_tables(n: int) -> np.ndarray:
    """Per-vertex lookup tables mapping an (n-1)-bit chunk to an out-row.

    Chunk bit j addresses the j-th other vertex in ascending order; the table
    re-inserts the vertex's own (always clear) diagonal bit.
    """
    size = 1 << (n - 1)
    tables = np.zeros((n, size), dtype=np.uint64)
    for u in range(n):
        chunks = np.arange(size, dtype=np.uint64)
        low = chunks & U((1 << u) - 1)
        high = (chunks >> _SH[u]) << _SH[u + 1]
        tables[u] = low | high
    return tables


def decode_rows(n: int, indices: np.ndarray) -> np.ndarray:
    """Decode labeled-space indices into out-adjacency row blocks."""
    tables = _row_tables(n)
    chunk_mask = U((1 << (n - 1)) - 1)
    rows = np.empty((indices.shape[0], n), dtype=np.uint64)
    for u in range(n):
        chunks = (indices >> _SH[u * (n - 1)]) & chunk_mask
        rows[:, u] = tables[u][chunks]
    return rows


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

    Each round sweeps the vertices once, growing ``reach`` (vertices reached
    from 0) and ``back`` (vertices reaching 0) in place, so it advances at
    least one BFS layer and n - 1 rounds always suffice.  A row is decided
    when both sets are full (strong) or a round leaves either set unchanged
    short of full (that set is closed: not strong); decided rows leave the
    block.
    """
    count = rows.shape[0]
    full = U((1 << n) - 1)
    strong = np.zeros(count, dtype=bool)
    live = np.arange(count)
    reach = np.ones(count, dtype=np.uint64)
    back = np.ones(count, dtype=np.uint64)
    for _ in range(n - 1):
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
        out_deg += _POP8[octets[:, :, b].T]
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

    Written independently of both screens.  Strong connectivity comes from a
    Warshall closure of the bitmask rows (row i gains row k's reach once it
    reaches k), not from sweeps out of vertex 0.  The triple condition is the
    literal clause form: for every x, a (B, y, z) array of both clause sums
    over y non-adjacent to x and z ≠ x with the named arc absent, with
    degrees counted from the adjacency matrices rather than the row bytes.
    """
    arcs = _arc_matrix(n, rows)
    reach = rows.copy()
    for k in range(n):
        reach |= ((reach >> _SH[k]) & ONE) * reach[:, k : k + 1]
    ok = ((reach | _BIT[:n]) == U((1 << n) - 1)).all(axis=1)
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
    """The layers of ``_held_karp_layers`` restricted to subsets holding vertex 0.

    Vertex 0 is the minimum, so the root, of each of them.  Subsets and their
    predecessors are indexed by ``subset >> 1`` (bit 0 is always set), so an
    endpoint table over them has 2^(n-1) entries.  Each layer is (subsets,
    steps), with steps as in ``_held_karp_layers``.
    """
    layers = []
    for _, subsets, roots, steps in _held_karp_layers(n):
        keep = roots == 0
        kept = [(w[keep], prev[keep] >> 1, bit[keep]) for w, prev, bit in steps]
        layers.append((subsets[keep] >> 1, kept))
    return tuple(layers)


def _in_masks(n: int, small: np.ndarray) -> np.ndarray:
    """(n, B) uint8 in-neighbour masks of uint8 rows: bit v of ``[w]`` set when v→w."""
    heads = np.arange(n, dtype=np.uint8)[:, None]
    into = np.zeros((n, small.shape[0]), dtype=np.uint8)
    for v in range(n):
        into |= ((small[:, v] >> heads) & 1) << v
    return into


def _extend(ends: np.ndarray, into: np.ndarray, steps: list, width: int) -> np.ndarray:
    """Endpoint sets of one Held–Karp layer of ``width`` subsets.

    w joins the set of subset S when some endpoint of S minus w has an arc
    into w; ``steps`` pair each S with its predecessors (see
    ``_held_karp_layers``), and ``ends`` holds the layers below.
    """
    layer = np.zeros((width, ends.shape[1]), dtype=np.uint8)
    for w, prev, bit in steps:
        step = ends[prev]
        step &= into[w]
        np.minimum(step, 1, out=step)
        step *= bit
        layer |= step
    return layer


def cycle_lengths(n: int, rows: np.ndarray) -> np.ndarray:
    """Per row, the bitmask of the cycle lengths present (bit k: a k-cycle).

    Held–Karp over (subset, endpoint), rooted at each subset's minimum
    vertex: ``ends[S]`` is the uint8 set of vertices v such that a path from
    min(S) to v visits exactly S.  v joins ``ends[S]`` when some endpoint of
    S minus v has an arc into v, and S closes a cycle of length |S| when an
    endpoint has an arc back into min(S).  Every cycle is found once, from
    its minimum vertex.  In-neighbour masks are built once per block.
    """
    count = rows.shape[0]
    into = _in_masks(n, _row_bytes(n, rows))
    ends = np.zeros((1 << n, count), dtype=np.uint8)
    for r in range(n):
        ends[1 << r] = 1 << r
    lengths = np.zeros(count, dtype=np.uint16)
    for size, subsets, roots, steps in _held_karp_layers(n):
        layer = _extend(ends, into, steps, subsets.size)
        ends[subsets] = layer
        layer &= into[roots]
        lengths[layer.any(axis=0)] |= np.uint16(1 << size)
    return lengths


def bypass_flags(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with a Hamiltonian bypass: a spanning path whose
    first vertex s also has an arc to its last vertex v.

    Held–Karp over (start, subset, endpoint).  For start s the labels 0 and s
    are swapped, so the paths from s are the ones rooted at vertex 0 over the
    subsets holding it (``_rooted_layers``); the row has a bypass from s when
    some endpoint over the full vertex set is an out-neighbour of s.  A row
    leaves the block at the first start that gives it a bypass.
    """
    count = rows.shape[0]
    small = _row_bytes(n, rows)
    found = np.zeros(count, dtype=bool)
    live = np.arange(count)
    for s in range(n):
        if not live.size:
            break
        order = np.arange(n)
        order[[0, s]] = s, 0
        swapped = small[:, order]
        flip = (swapped ^ (swapped >> s)) & 1  # bit 0 differs from bit s
        swapped ^= flip | (flip << s)
        into = _in_masks(n, swapped)
        ends = np.zeros((1 << (n - 1), live.size), dtype=np.uint8)
        ends[0] = 1
        for subsets, steps in _rooted_layers(n):
            ends[subsets] = _extend(ends, into, steps, subsets.size)
        has = (ends[-1] & swapped[:, 0]) != 0
        found[live[has]] = True
        live = live[~has]
        small = small[~has]
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


def seeds_for(seed: int, ordinals: np.ndarray) -> np.ndarray:
    """Per-sample substream seeds for the given sample ordinals."""
    return mix_vec(U(seed) + (ordinals.astype(np.uint64) + ONE) * GAMMA_U)


def _draw_block(block: np.ndarray, state: np.ndarray, cut: np.uint64, all_arcs: bool) -> None:
    """Fill ``block`` with one attempt per stream, row by row.

    ``state`` holds each stream's splitmix64 state and advances by γ per
    ordered pair (u, v) in row-major order, exactly as the scalar sampler's;
    the arc is present when the hash of the new state falls below ``cut``.
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
            if all_arcs:
                row |= _BIT[v]
                continue
            mix_vec(state, draw, scratch)
            np.less(draw, cut, out=arc)
            np.multiply(arc, _BIT[v], out=scratch)
            row |= scratch
        block[:, u] = row


def sample_strong_rows(n: int, arc_prob: float, seeds: np.ndarray) -> np.ndarray:
    """Strong random digraphs, one per substream seed, as a (B, n) row block.

    Bit-exact vector replica of the scalar rejection sampler: each sample's
    stream emits one draw per ordered pair, and a digraph that is not strong
    is redrawn from where its stream stopped.  The first attempt is drawn
    into the output block itself; retries draw only the rejected samples.
    """
    cutoff = threshold_for(arc_prob)
    all_arcs = cutoff >= 1 << 64
    cut = U(min(cutoff, (1 << 64) - 1))
    rows = np.empty((seeds.shape[0], n), dtype=np.uint64)
    block = rows
    pending = np.arange(seeds.shape[0])
    state = seeds.astype(np.uint64)
    for _ in range(GIVE_UP_AFTER):
        _draw_block(block, state, cut, all_arcs)
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
