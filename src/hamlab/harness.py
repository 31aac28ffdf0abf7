"""Verification campaigns over enumerated or sampled digraph spaces.

A campaign pins one falsifiable claim ("every strong digraph passing the
slack-0 triple condition has a spanning cycle", and friends), a digraph
space, and a traversal order, then grinds through the space recording every
hypothesis hit and checking the claimed conclusion on each.  Campaigns are
sharded (a shard owns the indices congruent to its id), resumable from
atomic JSON checkpoints, and deterministic: the same spec always produces
the same result, field for field, no matter how it was interrupted, split,
or parallelized.

One block pipeline serves all three spaces (labeled digraphs, tournaments
and strong random samples): a block of positions becomes a block of strong
rows (numpy decode and strong screen, or the strong sampler), which the
vectorized kernels in :mod:`hamlab.scan` screen for the triple condition.
Up to order ``scan.HIT_MAX_N`` the hits of a block are then re-confirmed by
a vector kernel written independently of the screens and judged by a vector
pass: cycle lengths, the lemma35 property, or the Hamiltonian bypass.  The
scalar predicates and the scalar judge still take every negative verdict
(which also builds its counterexample detail or folds a bypass exception),
the first hit of every block and every hit above that order; wherever both
routes run they must agree, so the fast path can never silently decide
anything.

The lemma suite checks the four constructive operations through one setup:
a base B (a cycle, or a path) and a path Q off B, a single vertex for vertex
insertion and for cycles through an external vertex, under one degree gate.
Setups are found and gated in numpy a block at a time (``scan.first_paths``
gives the same lex-first witnesses as the scalar searches), while the
operations and their post-checks, which are what the suite verifies, stay
scalar and run only on the hits.  The scalar searches set up the first
sample of every chunk again, and the campaign raises on any difference.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import scan
from .conditions import AkMargin, ak_margin, holds_a_k_rows, lemma35_holds, lemma35_rows
from .cycles import (
    LemmaViolation,
    absorb_path_into_cycle,
    cycle_spectrum,
    cycles_from_external_vertex,
    find_cycle_rows,
    find_path_rows,
    hamiltonian_bypass_rows,
    insert_vertex,
    lemma_gate,
    merge_path,
)
from .digraph import (
    CycleWitness,
    Digraph,
    GraphError,
    ISO_MAX,
    MAX_VERTICES,
    PathWitness,
    from_rows,
    is_strong,
    isomorphic_small,
    parse,
    recognize_kstar,
    serialize,
    strong_rows,
)
from .generators import (
    ENUM_MAX_BITS,
    derived_seed,
    enum_bits,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_two_cliques,
    EnumerationCursor,
    threshold_for,
    tournament_rows_from_index,
)

#: block width for vectorized screening
_BLOCK = 1 << 15

#: block width over a tournament space and of the lemma suite; over
#: tournaments the narrower block keeps its progress cadence and its memory
#: peak (order 6: 1.2 MB, against 7.3 MB at ``_BLOCK`` and 5.5 MB for a
#: 1/1021 slice of the labeled space)
_SMALL_BLOCK = 1 << 12

#: least seconds of a run from the end of one checkpoint save to the next; a
#: save rewrites every counterexample so far, and one per block cost 3.8% of
#: an order-6 scan
_SAVE_EVERY_S = 1.0

#: per lemma, the detail keys naming its base B and its second piece Q off B:
#: a "cycle" base is a cycle (else a path), and an "x" piece is one vertex
_LEMMA_PIECES = {
    "external_cycles": ("cycle", "x"),
    "insertion": ("path", "x"),
    "absorption": ("cycle", "path"),
    "merge": ("path", "other"),
}

_LEMMA_KEYS = tuple(_LEMMA_PIECES)

#: [c, j]: the j-th lowest set bit of byte c, ``scan.NO_VERTEX`` past the last
_NTH_BIT = np.array(
    [[v for v in range(8) if c >> v & 1] + [255] * (8 - c.bit_count()) for c in range(256)],
    dtype=np.uint8,
)

#: ``scan.NO_VERTEX`` as a Python int, the pad a witness row ends in
_PAD = int(scan.NO_VERTEX)

#: lemma samples turned into Python lists at a time; converting a whole block
#: at once raised peak memory by about 4 MB
_LEMMA_CHUNK = 256


class CampaignError(ValueError):
    """Invalid campaign spec, or a run the caller must opt into explicitly."""


class CheckpointError(RuntimeError):
    """Checkpoint file missing, corrupt, or written for a different spec."""


@dataclass(frozen=True)
class _Claim:
    """One claim's row: all the engine knows of it but its conclusion code.

    ``space`` is the exhaustive space, "digraphs" (labeled) or "tournaments";
    None for the lemma suite, which only samples, each arc with probability
    1/2.  ``max_n`` caps the order in every mode: bypass exception classes
    need the isomorphism test, capped at ``ISO_MAX``, and one 64-bit draw
    holds a lemma sample's arcs.
    ``free_n`` is the highest exhaustive order run without ``allow_long``.
    ``wanted(n)`` gives the conclusion bits ``_judge`` and ``_vector_gaps``
    test: the cycle lengths a hit needs, or bit 0 for the lemma35 property
    and for a Hamiltonian bypass.  ``detail()`` is a fresh result's detail.
    A row holds no function that a test patches or a tracer wraps.
    """

    space: Optional[str]
    max_n: int
    free_n: int
    slack: int
    wanted: Callable[[int], int]
    detail: Callable[[], dict[str, Any]]


def _no_judge(n: int) -> int:
    raise CampaignError("no conclusion judge for the lemma suite")


_CLAIMS = {
    "thm15": _Claim("digraphs", MAX_VERTICES, 5, 0, lambda n: 1 << n, dict),
    "thm110": _Claim(
        "digraphs", MAX_VERTICES, 5, 0, lambda n: 1 << (n - 1),
        lambda: {"pre_hamiltonian": 0, "kstar": 0},
    ),
    "conj19": _Claim("digraphs", MAX_VERTICES, 5, 3, lambda n: (1 << (n + 1)) - (1 << 3), dict),
    "bypass_claim": _Claim(
        "tournaments", ISO_MAX, 6, 0, lambda n: 1, lambda: {"exception_members": 0}
    ),
    "lemma35": _Claim("digraphs", MAX_VERTICES, 5, 0, lambda n: 1, dict),
    "lemma_suite": _Claim(
        None, 8, 5, 0, _no_judge, lambda: {key: {"hits": 0, "successes": 0} for key in _LEMMA_KEYS}
    ),
}

CLAIMS = tuple(_CLAIMS)

#: bits of a position in each exhaustive space
_SPACE_BITS = {"digraphs": enum_bits, "tournaments": lambda n: n * (n - 1) // 2}


# ---------------------------------------------------------------------------
# campaign spec


@dataclass(frozen=True)
class CampaignSpec:
    """Identity of one verification campaign.

    The identity fields (everything except ``checkpoint_path``) are hashed
    into a fingerprint; a checkpoint only resumes a spec with the same
    fingerprint.
    """

    claim: str
    n: int
    mode: str = "exhaustive"
    shard: int = 0
    shards: int = 1
    samples: int = 0
    arc_prob: float = 0.5
    seed: int = 0
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.claim not in _CLAIMS:
            raise CampaignError(f"unknown claim {self.claim!r}; pick one of {', '.join(CLAIMS)}")
        row = _CLAIMS[self.claim]
        if not 4 <= self.n <= row.max_n:
            raise CampaignError(f"{self.claim} order {self.n} outside 4..{row.max_n}")
        if self.mode not in ("exhaustive", "sample"):
            raise CampaignError(f"mode must be 'exhaustive' or 'sample', got {self.mode!r}")
        if row.space is None and self.mode != "sample":
            raise CampaignError(f"{self.claim} only runs in sample mode")
        if row.space is None and self.arc_prob != 0.5:
            raise CampaignError(f"{self.claim} draws every arc with probability 0.5")
        if self.shards < 1 or not 0 <= self.shard < self.shards:
            raise CampaignError(f"shard {self.shard} outside 0..{self.shards - 1}")
        if not 0 <= self.seed < 1 << 64:
            raise CampaignError("seed must fit in 64 bits")
        if self.mode == "sample":
            if self.samples < 1:
                raise CampaignError("sample mode needs samples >= 1")
            if not 0.0 < self.arc_prob <= 1.0:
                raise CampaignError(f"arc_prob {self.arc_prob} outside (0, 1]")
            if row.space is not None and threshold_for(self.arc_prob) == 0:
                raise CampaignError(
                    f"arc_prob {self.arc_prob} draws no arcs, so no strong digraph"
                )
        else:
            for key, default in (("samples", 0), ("arc_prob", 0.5), ("seed", 0)):
                if getattr(self, key) != default:
                    raise CampaignError(f"{key} only applies to sample mode")
            if _SPACE_BITS[row.space](self.n) > ENUM_MAX_BITS:
                raise CampaignError(
                    f"space of order-{self.n} {row.space} exceeds the enumeration cap"
                )

    def identity(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in _IDENTITY}

    def fingerprint(self) -> str:
        blob = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CampaignSpec":
        """Inverse of ``identity``; other keys of ``data`` are ignored."""
        missing = [k for k in _IDENTITY if k not in data]
        if missing:
            raise CampaignError(f"campaign spec lacks {', '.join(missing)}")
        return cls(**{k: data[k] for k in _IDENTITY})


#: the identity fields of a spec, in declaration order
_IDENTITY = tuple(f.name for f in fields(CampaignSpec) if f.name != "checkpoint_path")


# ---------------------------------------------------------------------------
# per-digraph classification


@dataclass(frozen=True)
class ClassificationRecord:
    """Hypothesis and conclusion predicates of one digraph, all at once."""

    strong: bool
    a0: bool
    a3: bool
    hamiltonian: bool
    pre_hamiltonian: bool
    pancyclic: bool
    kstar_balanced: Optional[tuple[int, int]]
    ham_bypass: bool
    ak_margin: AkMargin

    def to_json(self) -> dict[str, Any]:
        return {
            "strong": self.strong,
            "a0": self.a0,
            "a3": self.a3,
            "hamiltonian": self.hamiltonian,
            "pre_hamiltonian": self.pre_hamiltonian,
            "pancyclic": self.pancyclic,
            "kstar_balanced": list(self.kstar_balanced) if self.kstar_balanced else None,
            "ham_bypass": self.ham_bypass,
            "ak_margin": self.ak_margin.to_json(),
        }


def classify(d: Digraph) -> ClassificationRecord:
    """Evaluate every campaign-relevant predicate on one digraph."""
    margin = ak_margin(d)
    parts = recognize_kstar(d)
    balanced = None
    if parts is not None and parts[0] == parts[1]:
        balanced = (parts[0], parts[1])
    spectrum = cycle_spectrum(d)
    return ClassificationRecord(
        strong=is_strong(d),
        a0=margin.admits(0),
        a3=margin.admits(3),
        hamiltonian=d.n in spectrum.witnesses,
        pre_hamiltonian=d.n - 1 in spectrum.witnesses,
        pancyclic=spectrum.pancyclic,
        kstar_balanced=balanced,
        ham_bypass=d.n >= 3 and hamiltonian_bypass_rows(d.n, d.out) is not None,
        ak_margin=margin,
    )


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Counterexample:
    """One digraph that met a claim's hypothesis and failed its conclusion."""

    index: int
    digraph: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {"index": self.index, "digraph": self.digraph, "detail": self.detail}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Counterexample":
        return cls(int(data["index"]), str(data["digraph"]), dict(data["detail"]))


@dataclass(frozen=True)
class ExceptionClass:
    """One isomorphism class of hypothesis hits excused from a conclusion."""

    index: int
    digraph: str
    count: int

    def to_json(self) -> dict[str, Any]:
        return {"index": self.index, "digraph": self.digraph, "count": self.count}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExceptionClass":
        return cls(int(data["index"]), str(data["digraph"]), int(data["count"]))


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign run (possibly partial, possibly one shard).

    Equality deliberately ignores ``elapsed_ms`` so determinism checks
    (shard merge, checkpoint resume) can compare results directly.
    """

    spec: CampaignSpec
    scanned: int
    strong: int
    hypothesis_hits: int
    verified: int
    counterexamples: tuple[Counterexample, ...]
    exceptions: tuple[ExceptionClass, ...]
    detail: dict[str, Any]
    cursor: Optional[int]
    complete: bool
    elapsed_ms: int = field(compare=False)

    def to_json(self) -> dict[str, Any]:
        if self.complete or self.cursor is None:
            cursor_json: Any = None
        elif self.spec.mode == "exhaustive":
            cursor_json = EnumerationCursor(
                self.spec.n, self.cursor, self.spec.shard, self.spec.shards
            ).to_json()
        else:
            cursor_json = self.cursor
        return {
            **self.spec.identity(),
            "scanned": self.scanned,
            "strong": self.strong,
            "hypothesis_hits": self.hypothesis_hits,
            "verified": self.verified,
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "exceptions": [e.to_json() for e in self.exceptions],
            "detail": self.detail,
            "cursor": cursor_json,
            "complete": self.complete,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CampaignResult":
        """Inverse of ``to_json``; ``checkpoint_path`` is not part of a result.

        A complete result has no cursor, as ``to_json`` writes none.
        """
        cursor = data["cursor"]
        if isinstance(cursor, dict):  # an exhaustive scan's EnumerationCursor
            cursor = cursor["index"]
        return cls(
            spec=CampaignSpec.from_json(data),
            scanned=data["scanned"],
            strong=data["strong"],
            hypothesis_hits=data["hypothesis_hits"],
            verified=data["verified"],
            counterexamples=tuple(Counterexample.from_json(c) for c in data["counterexamples"]),
            exceptions=tuple(ExceptionClass.from_json(e) for e in data["exceptions"]),
            detail=data["detail"],
            cursor=None if data["complete"] else cursor,
            complete=data["complete"],
            elapsed_ms=data.get("elapsed_ms", 0),  # committed results leave it out
        )


def _merge_detail(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = dict(a)
    for key, val in b.items():
        if key not in out:
            out[key] = val
        elif isinstance(out[key], dict) and isinstance(val, dict):
            out[key] = _merge_detail(out[key], val)
        elif isinstance(out[key], (int, float)) and not isinstance(out[key], bool):
            out[key] = out[key] + val
        elif out[key] != val:
            raise CampaignError(f"cannot merge detail key {key!r}: {out[key]!r} vs {val!r}")
    return out


def merge_results(results: Sequence[CampaignResult]) -> CampaignResult:
    """Combine complete per-shard results into the single-shard equivalent."""
    if not results:
        raise CampaignError("nothing to merge")
    if any(not r.complete for r in results):
        raise CampaignError("only complete shard results can be merged")
    base = results[0].spec
    for r in results:
        if replace(r.spec, shard=0, checkpoint_path=None) != replace(
            base, shard=0, checkpoint_path=None
        ):
            raise CampaignError("shard results disagree on campaign identity")
    shard_ids = sorted(r.spec.shard for r in results)
    if shard_ids != list(range(base.shards)):
        raise CampaignError(f"expected shards 0..{base.shards - 1}, got {shard_ids}")
    ordered = sorted(results, key=lambda r: r.spec.shard)
    detail: dict[str, Any] = {}
    for r in ordered:
        detail = _merge_detail(detail, r.detail)
    counterexamples = tuple(
        sorted((c for r in ordered for c in r.counterexamples), key=lambda c: c.index)
    )
    classes: list[tuple[int, Digraph, int]] = []
    for e in sorted((e for r in ordered for e in r.exceptions), key=lambda e: e.index):
        _fold_exception(classes, e.index, parse(e.digraph), e.count)
    return CampaignResult(
        spec=replace(base, shard=0, shards=1, checkpoint_path=None),
        scanned=sum(r.scanned for r in ordered),
        strong=sum(r.strong for r in ordered),
        hypothesis_hits=sum(r.hypothesis_hits for r in ordered),
        verified=sum(r.verified for r in ordered),
        counterexamples=counterexamples,
        exceptions=tuple(ExceptionClass(i, serialize(d), c) for i, d, c in classes),
        detail=detail,
        cursor=None,
        complete=True,
        elapsed_ms=sum(r.elapsed_ms for r in ordered),
    )


def _fold_exception(
    classes: list[tuple[int, Digraph, int]], index: int, d: Digraph, count: int
) -> None:
    """Add ``count`` members to d's isomorphism class, opening it at ``index``."""
    for i, (rep_index, rep, rep_count) in enumerate(classes):
        if d.n == rep.n and isomorphic_small(d, rep):
            classes[i] = (rep_index, rep, rep_count + count)
            return
    classes.append((index, d, count))


# ---------------------------------------------------------------------------
# checkpointing


def checkpoint_save(path: str, result: CampaignResult, cursor: int) -> None:
    """Atomically persist a partial result with its spec fingerprint.

    The file is the result JSON plus ``fingerprint``, with ``cursor`` holding
    the next raw position of the shard (the result JSON's cursor is null once
    complete, and an ``EnumerationCursor`` for a partial exhaustive scan).
    """
    payload = {"fingerprint": result.spec.fingerprint(), **result.to_json(), "cursor": cursor}
    _write_checkpoint(path, payload)


def _write_checkpoint(path: str, payload: Optional[dict[str, Any]]) -> None:
    """Write ``payload`` to ``path`` through a temporary file and a rename;
    with no payload, only check that the temporary file can be written, and
    remove it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if payload is not None:
                json.dump(payload, fh)
                fh.write("\n")
        if payload is None:
            os.remove(tmp)
        else:
            os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def checkpoint_load(path: str, spec: CampaignSpec) -> tuple[CampaignResult, int]:
    """Read the partial result and next raw position saved for ``spec``.

    Rejects files of other specs and corrupt or inconsistent ones, including
    checkpoints in any other format.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {exc.msg} at position {exc.pos}"
        ) from exc
    if not isinstance(payload, dict) or "fingerprint" not in payload:
        raise CheckpointError(f"corrupt checkpoint {path}: no fingerprint field")
    if payload["fingerprint"] != spec.fingerprint():
        raise CheckpointError(
            f"checkpoint {path} belongs to a different campaign spec"
        )
    try:
        result = CampaignResult.from_json(payload)
        # a resumed run folds new members into the exception classes
        orders = {parse(e.digraph).n for e in result.exceptions}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: bad entry ({exc!r})") from exc
    cursor = payload["cursor"]
    counters = (
        cursor, result.scanned, result.strong, result.hypothesis_hits, result.verified,
        result.elapsed_ms,
    )
    if not all(map(_is_count, counters)):
        raise CheckpointError(
            f"corrupt checkpoint {path}: counters, cursor and elapsed_ms must be "
            "non-negative integers"
        )
    if not _counts_like(result.detail, _CLAIMS[spec.claim].detail()):
        raise CheckpointError(
            f"corrupt checkpoint {path}: detail must have exactly the keys of "
            f"{_CLAIMS[spec.claim].detail()}, with non-negative integer counts"
        )
    members = [e.count for e in result.exceptions]
    if (
        orders - {spec.n}
        or min(members, default=1) < 1
        or sum(members) != result.detail.get("exception_members", 0)
    ):
        raise CheckpointError(
            f"corrupt checkpoint {path}: exception classes must be order-{spec.n} digraphs "
            "with positive counts that sum to exception_members"
        )
    if cursor % spec.shards != spec.shard or cursor >= _space_size(spec) + spec.shards:
        raise CheckpointError(
            f"corrupt checkpoint {path}: cursor {cursor} is not a position of "
            f"shard {spec.shard} of {spec.shards}"
        )
    if not isinstance(payload["counterexamples"], list):
        raise CheckpointError(f"corrupt checkpoint {path}: counterexamples is not a list")
    if result.verified + len(result.counterexamples) > result.hypothesis_hits:
        raise CheckpointError(
            f"corrupt checkpoint {path}: verified + counterexamples exceeds hits"
        )
    return result, cursor


def _is_count(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _counts_like(saved: Any, fresh: dict[str, Any]) -> bool:
    """Whether ``saved`` has exactly the keys of ``fresh``, nested alike, with counts."""
    return isinstance(saved, dict) and saved.keys() == fresh.keys() and all(
        _counts_like(saved[k], v) if isinstance(v, dict) else _is_count(saved[k])
        for k, v in fresh.items()
    )


# ---------------------------------------------------------------------------
# the campaign engine


class _Tally:
    """Mutable accumulator threaded through one campaign run.

    It starts empty at the shard's first position, or from a saved partial
    result and the next raw position (``checkpoint_load``).
    """

    def __init__(
        self, spec: CampaignSpec, saved: Optional[tuple[CampaignResult, int]] = None
    ) -> None:
        if saved is None:
            detail = _CLAIMS[spec.claim].detail()
            saved = CampaignResult(spec, 0, 0, 0, 0, (), (), detail, None, False, 0), spec.shard
        result, self.cursor = saved
        self.spec = spec
        self.scanned = result.scanned
        self.strong = result.strong
        self.hits = result.hypothesis_hits
        self.verified = result.verified
        self.counterexamples = list(result.counterexamples)
        self.exception_classes = [
            (e.index, parse(e.digraph), e.count) for e in result.exceptions
        ]
        self.detail = result.detail
        self.base_elapsed = result.elapsed_ms

    def result(self, elapsed_ms: int) -> CampaignResult:
        complete = self.cursor >= _space_size(self.spec)
        return CampaignResult(
            spec=self.spec,
            scanned=self.scanned,
            strong=self.strong,
            hypothesis_hits=self.hits,
            verified=self.verified,
            counterexamples=tuple(self.counterexamples),
            exceptions=tuple(
                ExceptionClass(i, serialize(d), c) for i, d, c in self.exception_classes
            ),
            detail=self.detail,
            cursor=None if complete else self.cursor,
            complete=complete,
            elapsed_ms=elapsed_ms,
        )

    def note_exception(self, index: int, d: Digraph) -> None:
        _fold_exception(self.exception_classes, index, d, 1)


def _space_size(spec: CampaignSpec) -> int:
    if spec.mode == "sample":
        return spec.samples
    return 1 << _SPACE_BITS[_CLAIMS[spec.claim].space](spec.n)


def _shard_total(spec: CampaignSpec) -> int:
    return len(range(spec.shard, _space_size(spec), spec.shards))


def _confirm_hit(n: int, rows: list[int], slack: int) -> None:
    if not strong_rows(n, rows) or not holds_a_k_rows(n, rows, slack):
        raise RuntimeError(
            "vectorized filter and scalar predicates disagree on a hypothesis hit"
        )


def _judge(
    claim: str, n: int, rows: list[int]
) -> tuple[bool, Optional[str], dict[str, Any], int]:
    """Check one claim's conclusion.

    Returns (ok, branch counter, failure detail, missing): ``missing`` holds
    the bits of the claim's ``wanted(n)`` the digraph lacks.  thm110's kstar
    branch is verified although its cycle of length n-1 is missing, and so
    is a bypass_claim hit without a bypass, which the caller excuses as an
    exception member.
    """
    wanted = _CLAIMS[claim].wanted(n)
    if claim == "lemma35":
        missing = 0 if lemma35_rows(n, rows) else wanted
    elif claim == "bypass_claim":
        missing = 0 if hamiltonian_bypass_rows(n, rows) is not None else wanted
    else:
        missing = sum(
            1 << length
            for length in range(n + 1)
            if wanted >> length & 1 and find_cycle_rows(n, rows, length) is None
        )
    if not missing:
        return True, "pre_hamiltonian" if claim == "thm110" else None, {}, 0
    if claim == "bypass_claim":
        return True, "exception_members", {}, missing
    if claim == "thm15":
        return False, None, {"reason": "no spanning cycle"}, missing
    if claim == "thm110":
        parts = recognize_kstar(from_rows(n, rows))
        if parts is not None and parts[0] == parts[1]:
            return True, "kstar", {}, missing
        return False, None, {
            "reason": "no cycle of length n-1 and not a balanced complete bipartite digraph"
        }, missing
    if claim == "conj19":
        lengths = [length for length in range(n + 1) if missing >> length & 1]
        return False, None, {"conjecture_candidate": True, "missing_lengths": lengths}, missing
    verdict = lemma35_holds(from_rows(n, rows))
    return False, None, {
        "reason": "a vertex has two non-adjacent partners below the pair-sum bound",
        "violation": verdict.witnesses[0] if verdict.witnesses else None,
    }, missing


def _vector_gaps(claim: str, n: int, rows: np.ndarray) -> np.ndarray:
    """Per hit, the conclusion bits the vector kernels find missing (0: verified)."""
    wanted = np.uint16(_CLAIMS[claim].wanted(n))
    if claim == "lemma35":
        return wanted * ~scan.lemma35_flags(n, rows)
    if claim == "bypass_claim":
        return wanted * ~scan.bypass_flags(n, rows)
    return wanted & ~scan.cycle_lengths(n, rows)


def _record_hit(
    tally: _Tally, spec: CampaignSpec, rows: list[int], index: int, gaps: Optional[int] = None
) -> None:
    """Confirm one screened hit with scalar predicates and judge its conclusion.

    ``gaps`` is the vector verdict on the hit (see ``_vector_gaps``), if it
    has one; the scalar verdict must agree with it.  A sampled counterexample
    carries its sample ordinal and the stream seed that regenerates it.
    """
    claim, n = spec.claim, spec.n
    _confirm_hit(n, rows, _CLAIMS[claim].slack)
    ok, branch, failure, missing = _judge(claim, n, rows)
    if gaps is not None and missing != gaps:
        raise RuntimeError("vector and scalar conclusion judges disagree on a hypothesis hit")
    tally.hits += 1
    if ok:
        tally.verified += 1
        if branch is not None:
            tally.detail[branch] += 1
        if branch == "exception_members":
            tally.note_exception(index, from_rows(n, rows))
    else:
        detail: dict[str, Any] = {"claim": claim}
        if spec.mode == "sample":
            detail.update(sample=index, stream_seed=derived_seed(spec.seed, index))
        detail.update(failure)
        tally.counterexamples.append(
            Counterexample(index, serialize(from_rows(n, rows)), detail)
        )


def _record_block(
    tally: _Tally, spec: CampaignSpec, rows: np.ndarray, indices: np.ndarray
) -> None:
    """Confirm and judge one block of screened hits at positions ``indices``.

    Up to order ``scan.HIT_MAX_N`` every hit is re-confirmed by
    ``scan.confirm_flags`` and judged by the vector kernels; the hits they
    verify are counted at once.  The scalar route (``_record_hit``) takes
    every other hit and the block's first one, and raises if its verdict
    differs from the vector one.  Above that order every hit takes it.
    """
    if not indices.size:
        return
    claim, n = spec.claim, spec.n
    scalar = np.ones(indices.size, dtype=bool)
    gaps: list[Optional[int]] = [None] * indices.size
    if n <= scan.HIT_MAX_N:
        if not scan.confirm_flags(n, rows, _CLAIMS[claim].slack).all():
            raise RuntimeError("vectorized screens and vector confirmation disagree on a hit")
        found = _vector_gaps(claim, n, rows)
        scalar = found != 0
        scalar[0] = True  # the live differential check of the fast path
        settled = indices.size - int(scalar.sum())
        tally.hits += settled
        tally.verified += settled
        if "pre_hamiltonian" in tally.detail:
            tally.detail["pre_hamiltonian"] += settled
        gaps = found.tolist()
    for i in np.flatnonzero(scalar).tolist():
        _record_hit(tally, spec, [int(r) for r in rows[i]], int(indices[i]), gaps[i])


Progress = Callable[[int, int], None]


def run_campaign(
    spec: CampaignSpec,
    *,
    stop_after: Optional[int] = None,
    allow_long: bool = False,
    progress: Optional[Progress] = None,
) -> CampaignResult:
    """Execute one campaign shard, optionally resuming from its checkpoint.

    ``stop_after`` halts the run after that many items (useful for exercising
    resume paths); the returned result is then marked incomplete and carries
    the cursor.  ``allow_long`` opts into space sizes that take minutes or
    more.  ``progress`` receives (items done in shard, shard total) after
    every block.  With a checkpoint path, the partial result is saved after
    a block once ``_SAVE_EVERY_S`` has passed since the last save ended, and
    the returned one at the end (also on ``stop_after``) unless that block's
    save already holds it.
    """
    row = _CLAIMS[spec.claim]
    if spec.mode == "exhaustive" and not allow_long and spec.n > row.free_n:
        raise CampaignError(
            f"exhaustive scan of order-{spec.n} {row.space} is a long run; "
            "pass allow_long to opt in"
        )
    started = last_save = time.monotonic()
    saved = None
    if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
        saved = checkpoint_load(spec.checkpoint_path, spec)
    if spec.checkpoint_path:  # refuse an unwritable path before the first save is due
        _write_checkpoint(spec.checkpoint_path, None)
    tally = _Tally(spec, saved)
    saved_cursor = None

    def elapsed_ms() -> int:
        return tally.base_elapsed + int((time.monotonic() - started) * 1000)

    def tick() -> None:
        nonlocal last_save, saved_cursor
        if spec.checkpoint_path and time.monotonic() - last_save >= _SAVE_EVERY_S:
            checkpoint_save(spec.checkpoint_path, tally.result(elapsed_ms()), tally.cursor)
            last_save, saved_cursor = time.monotonic(), tally.cursor
        if progress is not None:
            progress(tally.scanned, _shard_total(spec))

    _run_space(spec, tally, stop_after, tick)
    result = tally.result(elapsed_ms())
    if result.complete and result.verified + len(result.counterexamples) != result.hypothesis_hits:
        raise RuntimeError("campaign bookkeeping broke: verified + failures != hits")
    if spec.checkpoint_path and saved_cursor != tally.cursor:
        checkpoint_save(spec.checkpoint_path, result, tally.cursor)
    return result


def _strong_rows_at(spec: CampaignSpec, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and positions of the strong digraphs at a block of positions.

    Labeled or tournament indices are decoded and screened by
    ``scan.strong_flags``; sample ordinals are drawn by the strong sampler.
    The first tournament of each block is decoded again by the scalar
    ``tournament_rows_from_index``, and the campaign raises if the two
    decodes differ.
    """
    n = spec.n
    if spec.mode == "sample":
        seeds = scan.seeds_for(spec.seed, positions)
        return scan.sample_strong_rows(n, spec.arc_prob, seeds), positions
    if _CLAIMS[spec.claim].space == "tournaments":
        rows = scan.tournament_rows(n, positions)
        if rows[0].tolist() != tournament_rows_from_index(n, int(positions[0])):
            raise RuntimeError("vector and scalar tournament decodes disagree")
    else:
        rows = scan.decode_rows(n, positions)
    strong = scan.strong_flags(n, rows)
    return rows[strong], positions[strong]


def _run_space(
    spec: CampaignSpec, tally: _Tally, stop_after: Optional[int], tick: Callable[[], None]
) -> None:
    """Run the shard's positions block by block, honoring stop_after.

    A block is screened and its hits recorded (``_screen_block``), or, for
    the lemma suite, its lemma setups found and their hits run
    (``_lemma_block``).  Tournament and lemma blocks are ``_SMALL_BLOCK``
    wide, the others ``_BLOCK``.  The cursor moves past a block before the
    block runs, so a checkpoint ``tick`` writes after it records the next
    unprocessed position (an abandoned block is never persisted: checkpoints
    are written only after the block's tallies are in).
    """
    kind = _CLAIMS[spec.claim].space
    body = _screen_block if kind else _lemma_block
    tournaments = kind == "tournaments" and spec.mode == "exhaustive"
    width = _SMALL_BLOCK if not kind or tournaments else _BLOCK
    space, done = _space_size(spec), 0
    while tally.cursor < space and (stop_after is None or done < stop_after):
        take = width if stop_after is None else min(width, stop_after - done)
        hi = min(space, tally.cursor + take * spec.shards)
        positions = np.arange(tally.cursor, hi, spec.shards, dtype=np.uint64)
        done += positions.size
        tally.cursor = int(positions[-1]) + spec.shards
        body(spec, tally, positions)
        tally.scanned += positions.size
        tick()


def _screen_block(spec: CampaignSpec, tally: _Tally, positions: np.ndarray) -> None:
    """Screen one block for strong digraphs and the triple condition, and record its hits."""
    rows, kept = _strong_rows_at(spec, positions)
    tally.strong += kept.size
    if kept.size:
        passing = scan.triple_condition_flags(spec.n, rows, _CLAIMS[spec.claim].slack)
        _record_block(tally, spec, rows[passing], kept[passing])


# ---------------------------------------------------------------------------
# lemma instance suite


def _lemma_block(spec: CampaignSpec, tally: _Tally, ordinals: np.ndarray) -> None:
    """Screen one block of seeded random digraphs for the four lemma setups.

    The block's inputs (order, rows, strong flag, draws) come from numpy in
    one pass (``_lemma_inputs``), and so do its setups: every base B, path Q
    and gate (``_lemma_setups``).  Only the samples with a hit reach Python,
    in ordinal order and ``_LEMMA_CHUNK`` at a time, where the unchanged
    scalar operations and post-checks run (``_lemma_hit``), because those are
    what the suite verifies.  The first sample of every chunk is screened
    again by the scalar ``strong_rows`` and set up again by the scalar
    ``_lemma_setup``, and the campaign raises if either differs from the
    vector route.
    """
    orders, rows, strong, pairs = _lemma_inputs(spec.seed, spec.n, ordinals)
    tally.strong += int(strong.sum())
    base, q, hits = _lemma_setups(orders, rows, pairs)
    for lo in range(0, ordinals.size, _LEMMA_CHUNK):
        hi = lo + _LEMMA_CHUNK
        n = int(orders[lo])
        first = rows[lo, :n].tolist()
        if strong_rows(n, first) != strong[lo]:
            raise RuntimeError("vector and scalar strong screens disagree on a lemma sample")
        draws = pairs[:, lo].tolist()
        for k, kind in enumerate(_LEMMA_KEYS):
            got = _witness(base[k][lo].tolist()), _witness(q[k][lo].tolist()), bool(hits[k, lo])
            if _lemma_setup(n, first, kind, *draws[2 * k : 2 * k + 2]) != got:
                raise RuntimeError("vector and scalar lemma setups disagree")
        picked = lo + np.flatnonzero(hits[:, lo:hi].any(axis=0))
        chunk = zip(
            ordinals[picked].tolist(),
            orders[picked].tolist(),
            rows[picked].tolist(),
            hits[:, picked].T.tolist(),
            zip(*(b[picked].tolist() for b in base)),
            zip(*(p[picked].tolist() for p in q)),
        )
        for ordinal, n, row, hit, bases, paths in chunk:
            d = from_rows(n, row[:n])
            for k, kind in enumerate(_LEMMA_KEYS):
                if hit[k]:
                    b, p = _witness(bases[k]), _witness(paths[k])
                    _lemma_hit(spec, tally, ordinal, d, kind, b, p)


def _lemma_inputs(
    seed: int, top: int, ordinals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orders, rows, strong flags and lemma draws of a block of lemma samples.

    Sample j reads ten draws from the splitmix64 stream seeded with
    ``derived_seed(seed, j)``: its order 3..top, its arc bits (row-major over
    ordered pairs, as ``scan.decode_rows`` maps them), then a (length,
    chooser) pair for each lemma in ``_LEMMA_KEYS`` order.  The length is
    reduced to 2..order-1 and the chooser modulo order - length, the number
    of vertices off a cycle or path of that length, which is all a lemma
    uses it for.  Returns orders (B,), rows (B, 8) zero past each sample's
    order, strong flags (B,) and the pairs (8, B).  Everything but the flags
    is uint8 (orders are at most 8), and no array holds more than one uint64
    per sample.
    """
    state = scan.seeds_for(seed, ordinals)
    out = np.empty_like(state)
    scratch = np.empty_like(state)

    def draw() -> np.ndarray:
        np.add(state, scan.GAMMA_U, out=state)
        return scan.mix_vec(state, out, scratch)

    orders = (draw() % np.uint64(top - 2)).astype(np.uint8) + np.uint8(3)
    arcs = draw().copy()
    pairs = np.empty((8, ordinals.size), dtype=np.uint8)
    for k in range(0, 8, 2):
        pairs[k] = draw() % (orders - np.uint8(2)) + np.uint64(2)
        pairs[k + 1] = draw() % (orders - pairs[k])
    rows = np.zeros((ordinals.size, 8), dtype=np.uint8)
    strong = np.zeros(ordinals.size, dtype=bool)
    for n in range(3, top + 1):
        picked = np.flatnonzero(orders == n)
        block = scan.decode_rows(n, arcs[picked])
        rows[picked, :n] = block
        strong[picked] = scan.strong_flags(n, block)
    return orders, rows, strong, pairs


def _lemma_setup(
    n: int, rows: list[int], kind: str, length: int, chooser: int
) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]], bool]:
    """(B, Q, gate) of one lemma setup, by the scalar searches.

    B is the first cycle or path of ``length`` vertices, and Q off B is the
    chooser-th vertex outside B, or the first path of 1 + chooser vertices
    outside B; Q is None when B or the path is missing, and the gate is
    ``cycles.lemma_gate``, false without Q.
    """
    on_cycle = _LEMMA_PIECES[kind][0] == "cycle"
    base = (find_cycle_rows if on_cycle else find_path_rows)(n, rows, length)
    if base is None:
        return None, None, False
    pool = (1 << n) - 1
    for v in base:
        pool &= ~(1 << v)
    if _LEMMA_PIECES[kind][1] == "x":
        q: Optional[tuple[int, ...]] = ([v for v in range(n) if pool >> v & 1][chooser],)
    else:
        q = find_path_rows(n, rows, 1 + chooser, pool)
    if q is None:
        return base, None, False
    degree, need = lemma_gate(rows, base, q, on_cycle)
    return base, q, degree >= need


def _witness(row: list[int]) -> Optional[tuple[int, ...]]:
    """The vertices of a ``scan.first_paths`` witness row, its entries before
    the first pad; None for a row of pad alone."""
    end = row.index(_PAD) if row[-1] == _PAD else len(row)
    return tuple(row[:end]) or None


def _lemma_setups(
    orders: np.ndarray, rows: np.ndarray, pairs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Every setup of a block of lemma samples: the vector twin of ``_lemma_setup``.

    Takes ``_lemma_inputs``' orders, rows and pairs.  Returns per lemma, in
    ``_LEMMA_KEYS`` order, B and Q of each sample as (B, 8) uint8 witness
    rows (``scan.first_paths``' layout, read by ``_witness``), and the (4, B)
    hit flags.  Bases and paths Q come from ``scan.first_paths``, each Q
    inside the pool off its B; an "x" piece is the chooser-th vertex of that
    pool.  The gate is ``cycles.lemma_gate`` on whole arrays.  Lemmas run one
    at a time: two at once saved a few percent of the time and cost 0.6 MB
    more peak memory.
    """
    count = orders.size
    into = scan.in_rows(rows)
    full = ((1 << orders.astype(np.uint16)) - 1).astype(np.uint8)
    bases, paths = [], []
    hits = np.zeros((4, count), dtype=bool)
    for k, (base_key, q_key) in enumerate(_LEMMA_PIECES.values()):
        length, chooser = pairs[2 * k], pairs[2 * k + 1]
        base = scan.first_paths(rows, length, full, base_key == "cycle")
        on_base = np.bitwise_or.reduce(scan.VERTEX_BIT[base], axis=1)
        pool = full & ~on_base
        found = base[:, 0] != scan.NO_VERTEX
        if q_key == "x":
            size = np.ones(count, dtype=np.uint8)
            q = np.full((count, 8), scan.NO_VERTEX, dtype=np.uint8)
            q[found, 0] = _NTH_BIT[pool[found], chooser[found]]
        else:
            size = chooser + np.uint8(1)
            q = scan.first_paths(rows, np.where(found, size, 0), pool, False)
        # the gate over the setups with a Q: d-(head Q, B) + d+(tail Q, B)
        # against |B| + 1 on a cycle, and against |B| + [last B -> head Q]
        # + [tail Q -> first B] on a path
        s = np.flatnonzero(q[:, 0] != scan.NO_VERTEX)
        head, tail = q[s, 0], q[s, size[s] - 1]
        tail_out, mask = rows[s, tail], on_base[s]
        degree = scan.POP8[into[s, head] & mask] + scan.POP8[tail_out & mask]
        need = length[s] + np.uint8(1)
        if base_key == "path":
            last = base[s, length[s] - 1]
            need = length[s] + (rows[s, last] >> head & 1) + (tail_out >> base[s, 0] & 1)
        hits[k, s] = degree >= need
        bases.append(base)
        paths.append(q)
    return bases, paths, hits


def _lemma_hit(
    spec: CampaignSpec,
    tally: _Tally,
    ordinal: int,
    d: Digraph,
    kind: str,
    base: tuple[int, ...],
    q: tuple[int, ...],
) -> None:
    """Run one hit's operation and check what it gives.

    The operation, looked up by module name at call time, must give a cycle
    of every length |Q|+1..|B|+|Q| inside V(B) + V(Q) (cycle base), or a path
    first(B) -> last(B) covering V(B) + V(Q) (path base); else, or if it
    raises, the hit is a counterexample.
    """
    base_key, q_key = _LEMMA_PIECES[kind]
    on_cycle = base_key == "cycle"
    tally.hits += 1
    tally.detail[kind]["hits"] += 1
    cover = 0
    for v in base + q:
        cover |= 1 << v
    try:
        if kind == "external_cycles":
            found = cycles_from_external_vertex(d, CycleWitness(base), q[0])
        elif kind == "absorption":
            found = absorb_path_into_cycle(d, CycleWitness(base), PathWitness(q))
        elif kind == "merge":
            found = merge_path(d, PathWitness(base), PathWitness(q))
        else:
            slot = insert_vertex(d, PathWitness(base), q[0])
            if slot is None:
                raise LemmaViolation("no slot found")
            found = slot[1]
        if on_cycle:
            for want in range(len(q) + 1, len(base) + len(q) + 1):
                witness = found[want]
                witness.validate(d)
                if len(witness) != want or witness.mask() & ~cover:
                    raise LemmaViolation(f"no cycle of length {want} inside V(B) + V(Q)")
        else:
            found.validate(d)
            if (found.first, found.last, found.mask()) != (base[0], base[-1], cover):
                raise LemmaViolation("no path first(B) -> last(B) covering V(B) + V(Q)")
    except (LemmaViolation, KeyError, GraphError) as exc:
        detail = {
            "claim": "lemma_suite",
            "lemma": kind,
            "sample": ordinal,
            "stream_seed": derived_seed(spec.seed, ordinal),
            base_key: list(base),
            q_key: q[0] if q_key == "x" else list(q),
            "error": str(exc),
        }
        tally.counterexamples.append(Counterexample(ordinal, serialize(d), detail))
    else:
        tally.verified += 1
        tally.detail[kind]["successes"] += 1


# ---------------------------------------------------------------------------
# sharpness audit and parallel driver


def audit_sharpness() -> dict[str, Any]:
    """Audit the tight families hugging both sides of the slack-0 bound.

    Two complete digraphs glued at a vertex sit one unit below the bound and
    are not Hamiltonian; a balanced complete bipartite digraph minus one arc
    sits one unit below yet stays Hamiltonian while losing the near-spanning
    cycle; the intact balanced complete bipartite digraph sits two units
    above as a control.
    """
    report: dict[str, Any] = {"two_cliques": {}, "kstar_minus_arc": {}, "kstar": {}}
    ok = True
    for m in (2, 3, 4, 5):
        record = classify(gen_two_cliques(m))
        entry = {
            "ak_margin": record.ak_margin.to_json(),
            "hamiltonian": record.hamiltonian,
            "ok": record.ak_margin.max_k == -1 and not record.hamiltonian,
        }
        ok = ok and entry["ok"]
        report["two_cliques"][str(m)] = entry
    for p in (2, 3, 4):
        record = classify(gen_kstar_minus_arc(p, p))
        entry = {
            "ak_margin": record.ak_margin.to_json(),
            "hamiltonian": record.hamiltonian,
            "pre_hamiltonian": record.pre_hamiltonian,
            "kstar_balanced": record.kstar_balanced,
            "ok": (
                record.ak_margin.max_k == -1
                and record.hamiltonian
                and not record.pre_hamiltonian
                and record.kstar_balanced is None
            ),
        }
        ok = ok and entry["ok"]
        report["kstar_minus_arc"][str(p)] = entry
    for p in (2, 3, 4):
        record = classify(gen_kstar(p, p))
        entry = {
            "ak_margin": record.ak_margin.to_json(),
            "hamiltonian": record.hamiltonian,
            "ok": record.ak_margin.max_k == 2 and record.hamiltonian,
        }
        ok = ok and entry["ok"]
        report["kstar"][str(p)] = entry
    report["ok"] = ok
    return report


def _shard_worker(args: tuple[CampaignSpec, bool]) -> CampaignResult:
    spec, allow_long = args
    return run_campaign(spec, allow_long=allow_long)


def run_sharded(
    spec: CampaignSpec, jobs: int, *, allow_long: bool = False
) -> CampaignResult:
    """Run every shard of ``spec`` on a process pool and merge the results.

    ``spec.shard`` must be 0; the pool covers shards 0..shards-1.  With a
    checkpoint path set, each shard checkpoints to ``<path>.shard<i>``.
    """
    if spec.shard != 0:
        raise CampaignError("run_sharded drives all shards; start from shard 0")
    if jobs < 1:
        raise CampaignError("jobs must be at least 1")
    work = []
    for shard in range(spec.shards):
        path = f"{spec.checkpoint_path}.shard{shard}" if spec.checkpoint_path else None
        work.append((replace(spec, shard=shard, checkpoint_path=path), allow_long))
    if jobs == 1 or spec.shards == 1:
        results = [_shard_worker(item) for item in work]
    else:
        with multiprocessing.get_context("fork").Pool(min(jobs, spec.shards)) as pool:
            results = pool.map(_shard_worker, work)
    return merge_results(results)
