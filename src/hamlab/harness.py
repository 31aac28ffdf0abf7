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
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import scan
from .conditions import AkMargin, ak_margin, holds_a_k_rows, lemma35_holds, lemma35_rows
from .cycles import (
    LemmaViolation,
    absorb_path_into_cycle,
    cycles_from_external_vertex,
    find_cycle_rows,
    find_path_rows,
    hamiltonian_bypass_rows,
    insert_vertex,
    merge_path,
    pancyclic_rows,
)
from .digraph import (
    CycleWitness,
    Digraph,
    GraphError,
    HypothesisUnmet,
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
    TOURNAMENT_MAX_N,
    derived_seed,
    enum_bits,
    gen_kstar,
    gen_kstar_minus_arc,
    gen_two_cliques,
    EnumerationCursor,
    tournament_rows_from_index,
)

CLAIMS = ("thm15", "thm110", "conj19", "bypass_claim", "lemma35", "lemma_suite")

#: claims whose exhaustive space is the full labeled digraph space
_DIGRAPH_CLAIMS = ("thm15", "thm110", "conj19", "lemma35")

#: slack passed to the triple condition per claim
_CLAIM_SLACK = {"thm15": 0, "thm110": 0, "conj19": 3, "bypass_claim": 0, "lemma35": 0}

#: block width for vectorized screening
_BLOCK = 1 << 15

#: block width over a tournament space; the narrower block keeps its
#: checkpoint cadence and its memory peak (order 6: 1.2 MB, against 7.3 MB at
#: ``_BLOCK`` and 5.5 MB for a 1/1021 slice of the labeled space)
_TOURNAMENT_BLOCK = 1 << 12

#: exhaustive digraph space needs an explicit opt-in beyond this order
_FREE_DIGRAPH_ORDER = 5

#: exhaustive tournament space needs an explicit opt-in beyond this order
_FREE_TOURNAMENT_ORDER = 6

_LEMMA_KEYS = ("external_cycles", "insertion", "absorption", "merge")

#: lemma_suite orders: one 64-bit draw holds the n(n-1) arc bits
_LEMMA_MAX_N = 8

#: lemma samples turned into Python lists at a time; converting a whole block
#: at once raised peak memory by about 4 MB
_LEMMA_CHUNK = 256


class CampaignError(ValueError):
    """Invalid campaign spec, or a run the caller must opt into explicitly."""


class CheckpointError(RuntimeError):
    """Checkpoint file missing, corrupt, or written for a different spec."""


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
        if self.claim not in CLAIMS:
            raise CampaignError(f"unknown claim {self.claim!r}; pick one of {', '.join(CLAIMS)}")
        if not 4 <= self.n <= 64:
            raise CampaignError(f"campaign order {self.n} outside 4..64")
        if self.mode not in ("exhaustive", "sample"):
            raise CampaignError(f"mode must be 'exhaustive' or 'sample', got {self.mode!r}")
        if self.claim == "lemma_suite" and self.mode != "sample":
            raise CampaignError("lemma_suite only runs in sample mode")
        if self.shards < 1 or not 0 <= self.shard < self.shards:
            raise CampaignError(f"shard {self.shard} outside 0..{self.shards - 1}")
        if not 0 <= self.seed < 1 << 64:
            raise CampaignError("seed must fit in 64 bits")
        if self.mode == "sample":
            if self.samples < 1:
                raise CampaignError("sample mode needs samples >= 1")
            if not 0.0 < self.arc_prob <= 1.0:
                raise CampaignError(f"arc_prob {self.arc_prob} outside (0, 1]")
        else:
            if self.samples != 0:
                raise CampaignError("samples only applies to sample mode")
            if self.claim in _DIGRAPH_CLAIMS and enum_bits(self.n) > ENUM_MAX_BITS:
                raise CampaignError(
                    f"labeled space of order {self.n} exceeds the enumeration cap"
                )
            if self.claim == "bypass_claim" and self.n > TOURNAMENT_MAX_N:
                raise CampaignError(
                    f"tournament enumeration capped at order {TOURNAMENT_MAX_N}"
                )
        if self.claim == "bypass_claim" and self.n > 8:
            raise CampaignError("bypass exception dedup needs order <= 8")
        if self.claim == "lemma_suite" and self.n > _LEMMA_MAX_N:
            raise CampaignError(
                f"lemma_suite draws every arc from one 64-bit word; order {self.n} "
                f"exceeds {_LEMMA_MAX_N}"
            )

    def identity(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "n": self.n,
            "mode": self.mode,
            "shard": self.shard,
            "shards": self.shards,
            "samples": self.samples,
            "arc_prob": self.arc_prob,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CampaignSpec":
        """Inverse of ``identity``; other keys of ``data`` are ignored."""
        keys = list(cls(claim="thm15", n=4).identity())  # read off a default spec
        missing = [k for k in keys if k not in data]
        if missing:
            raise CampaignError(f"campaign spec lacks {', '.join(missing)}")
        return cls(**{k: data[k] for k in keys})


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
    rows = d.out
    return ClassificationRecord(
        strong=is_strong(d),
        a0=margin.admits(0),
        a3=margin.admits(3),
        hamiltonian=d.n >= 2 and find_cycle_rows(d.n, rows, d.n) is not None,
        pre_hamiltonian=d.n >= 3 and find_cycle_rows(d.n, rows, d.n - 1) is not None,
        pancyclic=pancyclic_rows(d.n, rows),
        kstar_balanced=balanced,
        ham_bypass=d.n >= 3 and hamiltonian_bypass_rows(d.n, rows) is not None,
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


@dataclass(frozen=True, eq=False)
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
    elapsed_ms: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignResult):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.scanned == other.scanned
            and self.strong == other.strong
            and self.hypothesis_hits == other.hypothesis_hits
            and self.verified == other.verified
            and self.counterexamples == other.counterexamples
            and self.exceptions == other.exceptions
            and self.detail == other.detail
            and self.cursor == other.cursor
            and self.complete == other.complete
        )

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
        """Inverse of ``to_json``; ``checkpoint_path`` is not part of a result."""
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
            cursor=cursor,
            complete=data["complete"],
            elapsed_ms=data["elapsed_ms"],
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


def checkpoint_save(path: str, spec: CampaignSpec, state: dict[str, Any]) -> None:
    """Atomically persist partial campaign state next to its spec fingerprint."""
    payload = {"fingerprint": spec.fingerprint(), "spec": spec.identity(), **state}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    os.replace(tmp, path)


def checkpoint_load(path: str, spec: CampaignSpec) -> dict[str, Any]:
    """Read checkpoint state for ``spec``; reject other specs and corrupt files."""
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
    required = ("cursor", "scanned", "strong", "hypothesis_hits", "verified")
    missing = [key for key in required if key not in payload]
    if missing:
        raise CheckpointError(f"corrupt checkpoint {path}: missing {', '.join(missing)}")
    for key in required:
        value = payload[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {key} must be a non-negative integer"
            )
    cursor = payload["cursor"]
    if cursor % spec.shards != spec.shard or cursor >= _space_size(spec) + spec.shards:
        raise CheckpointError(
            f"corrupt checkpoint {path}: cursor {cursor} is not a position of "
            f"shard {spec.shard} of {spec.shards}"
        )
    counterexamples = payload.get("counterexamples", [])
    if not isinstance(counterexamples, list):
        raise CheckpointError(f"corrupt checkpoint {path}: counterexamples is not a list")
    if payload["verified"] + len(counterexamples) > payload["hypothesis_hits"]:
        raise CheckpointError(
            f"corrupt checkpoint {path}: verified + counterexamples exceeds hits"
        )
    return payload


# ---------------------------------------------------------------------------
# the campaign engine


class _Tally:
    """Mutable accumulator threaded through one campaign run."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.scanned = 0
        self.strong = 0
        self.hits = 0
        self.verified = 0
        self.counterexamples: list[Counterexample] = []
        self.exception_classes: list[tuple[int, Digraph, int]] = []
        self.detail: dict[str, Any] = _fresh_detail(spec.claim)
        self.cursor = spec.shard
        self.base_elapsed = 0

    def load(self, payload: dict[str, Any]) -> None:
        self.scanned = int(payload["scanned"])
        self.strong = int(payload["strong"])
        self.hits = int(payload["hypothesis_hits"])
        self.verified = int(payload["verified"])
        self.counterexamples = [
            Counterexample.from_json(c) for c in payload.get("counterexamples", [])
        ]
        self.exception_classes = [
            (int(e["index"]), parse(e["digraph"]), int(e["count"]))
            for e in payload.get("exceptions", [])
        ]
        self.detail = payload.get("detail") or _fresh_detail(self.spec.claim)
        self.cursor = int(payload["cursor"])
        self.base_elapsed = int(payload.get("elapsed_ms", 0))

    def state(self, elapsed_ms: int) -> dict[str, Any]:
        return {
            "cursor": self.cursor,
            "scanned": self.scanned,
            "strong": self.strong,
            "hypothesis_hits": self.hits,
            "verified": self.verified,
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "exceptions": [
                {"index": i, "digraph": serialize(d), "count": c}
                for i, d, c in self.exception_classes
            ],
            "detail": self.detail,
            "elapsed_ms": elapsed_ms,
        }

    def note_exception(self, index: int, d: Digraph) -> None:
        _fold_exception(self.exception_classes, index, d, 1)


def _fresh_detail(claim: str) -> dict[str, Any]:
    if claim == "thm110":
        return {"pre_hamiltonian": 0, "kstar": 0}
    if claim == "bypass_claim":
        return {"exception_members": 0}
    if claim == "lemma_suite":
        return {key: {"hits": 0, "successes": 0} for key in _LEMMA_KEYS}
    return {}


def _space_size(spec: CampaignSpec) -> int:
    if spec.mode == "sample":
        return spec.samples
    if spec.claim == "bypass_claim":
        return 1 << (spec.n * (spec.n - 1) // 2)
    return 1 << enum_bits(spec.n)


def _shard_total(spec: CampaignSpec) -> int:
    return len(range(spec.shard, _space_size(spec), spec.shards))


def _confirm_hit(n: int, rows: list[int], slack: int) -> None:
    if not strong_rows(n, rows) or not holds_a_k_rows(n, rows, slack):
        raise RuntimeError(
            "vectorized filter and scalar predicates disagree on a hypothesis hit"
        )


def _wanted(claim: str, n: int) -> int:
    """Conclusion bits of a claim: the cycle lengths it needs (bit 0 for lemma35,
    and for bypass_claim, where it means "has a Hamiltonian bypass")."""
    if claim == "thm15":
        return 1 << n
    if claim == "thm110":
        return 1 << (n - 1)
    if claim == "conj19":
        return (1 << (n + 1)) - (1 << 3)
    if claim in ("lemma35", "bypass_claim"):
        return 1
    raise CampaignError(f"no conclusion judge for claim {claim!r}")


def _judge(
    claim: str, n: int, rows: list[int]
) -> tuple[bool, Optional[str], dict[str, Any], int]:
    """Check one claim's conclusion.

    Returns (ok, branch counter, failure detail, missing): ``missing`` holds
    the bits of ``_wanted(claim, n)`` the digraph lacks.  thm110's kstar
    branch is verified although its cycle of length n-1 is missing, and so
    is a bypass_claim hit without a bypass, which the caller excuses as an
    exception member.
    """
    wanted = _wanted(claim, n)
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
    wanted = np.uint16(_wanted(claim, n))
    if claim == "lemma35":
        return wanted * ~scan.lemma35_flags(n, rows)
    if claim == "bypass_claim":
        return wanted * ~scan.bypass_flags(n, rows)
    return wanted & ~scan.cycle_lengths(n, rows)


def _record_hit(
    tally: _Tally,
    claim: str,
    n: int,
    rows: list[int],
    index: int,
    extra: dict[str, Any],
    gaps: Optional[int] = None,
) -> None:
    """Confirm one screened hit with scalar predicates and judge its conclusion.

    ``gaps`` is the vector verdict on the hit (see ``_vector_gaps``), if it
    has one; the scalar verdict must agree with it.
    """
    _confirm_hit(n, rows, _CLAIM_SLACK[claim])
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
        detail = {"claim": claim, **extra, **failure}
        tally.counterexamples.append(
            Counterexample(index, serialize(from_rows(n, rows)), detail)
        )


def _record_block(
    tally: _Tally,
    claim: str,
    n: int,
    rows: np.ndarray,
    indices: np.ndarray,
    extra: Callable[[int], dict[str, Any]],
) -> None:
    """Confirm and judge one block of screened hits at positions ``indices``.

    ``extra(index)`` is the detail a counterexample at that position carries.
    Up to order ``scan.HIT_MAX_N`` every hit is re-confirmed by
    ``scan.confirm_flags`` and judged by the vector kernels; the hits they
    verify are counted at once.  The scalar route (``_record_hit``) takes
    every other hit and the block's first one, and raises if its verdict
    differs from the vector one.  Above that order every hit takes it.
    """
    if not indices.size:
        return
    scalar = np.ones(indices.size, dtype=bool)
    gaps: list[Optional[int]] = [None] * indices.size
    if n <= scan.HIT_MAX_N:
        if not scan.confirm_flags(n, rows, _CLAIM_SLACK[claim]).all():
            raise RuntimeError("vectorized screens and vector confirmation disagree on a hit")
        found = _vector_gaps(claim, n, rows)
        scalar = found != 0
        scalar[0] = True  # the live differential check of the fast path
        settled = indices.size - int(scalar.sum())
        tally.hits += settled
        tally.verified += settled
        if claim == "thm110":
            tally.detail["pre_hamiltonian"] += settled
        gaps = found.tolist()
    for i in np.flatnonzero(scalar).tolist():
        index = int(indices[i])
        row_list = [int(r) for r in rows[i]]
        _record_hit(tally, claim, n, row_list, index, extra(index), gaps[i])


def _no_extra(index: int) -> dict[str, Any]:
    return {}


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
    every block.
    """
    if spec.mode == "exhaustive" and not allow_long:
        if spec.claim in _DIGRAPH_CLAIMS and spec.n > _FREE_DIGRAPH_ORDER:
            raise CampaignError(
                f"exhaustive digraph scan at order {spec.n} is a long run; "
                "pass allow_long to opt in"
            )
        if spec.claim == "bypass_claim" and spec.n > _FREE_TOURNAMENT_ORDER:
            raise CampaignError(
                f"exhaustive tournament scan at order {spec.n} is a long run; "
                "pass allow_long to opt in"
            )
    started = time.monotonic()
    tally = _Tally(spec)
    if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
        payload = checkpoint_load(spec.checkpoint_path, spec)
        try:
            tally.load(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {spec.checkpoint_path}: bad entry ({exc!r})"
            ) from exc

    def elapsed_ms() -> int:
        return tally.base_elapsed + int((time.monotonic() - started) * 1000)

    def tick() -> None:
        if spec.checkpoint_path:
            checkpoint_save(spec.checkpoint_path, spec, tally.state(elapsed_ms()))
        if progress is not None:
            progress(tally.scanned, _shard_total(spec))

    if spec.claim == "lemma_suite":
        _run_lemma_suite(spec, tally, stop_after, tick)
    else:
        _run_space(spec, tally, stop_after, tick)

    space = _space_size(spec)
    complete = tally.cursor >= space
    if complete and tally.verified + len(tally.counterexamples) != tally.hits:
        raise RuntimeError("campaign bookkeeping broke: verified + failures != hits")
    result = CampaignResult(
        spec=spec,
        scanned=tally.scanned,
        strong=tally.strong,
        hypothesis_hits=tally.hits,
        verified=tally.verified,
        counterexamples=tuple(tally.counterexamples),
        exceptions=tuple(
            ExceptionClass(i, serialize(d), c) for i, d, c in tally.exception_classes
        ),
        detail=tally.detail,
        cursor=None if complete else tally.cursor,
        complete=complete,
        elapsed_ms=elapsed_ms(),
    )
    if spec.checkpoint_path:
        checkpoint_save(spec.checkpoint_path, spec, tally.state(result.elapsed_ms))
    return result


def _block_positions(
    spec: CampaignSpec, tally: _Tally, stop_after: Optional[int], width: int
):
    """Yield numpy position blocks for this shard, honoring stop_after.

    The cursor moves past a block before the block is handed out, so the
    consumer's end-of-block checkpoint always records the next unprocessed
    position (an abandoned block is never persisted: checkpoints are written
    only after the block's tallies are in).
    """
    space = _space_size(spec)
    done = 0
    while tally.cursor < space:
        take = width
        if stop_after is not None:
            if done >= stop_after:
                return
            take = min(take, stop_after - done)
        hi = min(space, tally.cursor + take * spec.shards)
        positions = np.arange(tally.cursor, hi, spec.shards, dtype=np.uint64)
        if positions.size == 0:
            return
        done += positions.size
        tally.cursor = int(positions[-1]) + spec.shards
        yield positions


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
    if spec.claim == "bypass_claim":
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
    """Screen the campaign's space block by block and record each block's hits."""
    slack = _CLAIM_SLACK[spec.claim]
    n = spec.n

    def sample_extra(j: int) -> dict[str, Any]:
        return {"sample": j, "stream_seed": derived_seed(spec.seed, j)}

    extra = sample_extra if spec.mode == "sample" else _no_extra
    tournaments = spec.claim == "bypass_claim" and spec.mode == "exhaustive"
    width = _TOURNAMENT_BLOCK if tournaments else _BLOCK
    for positions in _block_positions(spec, tally, stop_after, width):
        rows, kept = _strong_rows_at(spec, positions)
        tally.strong += kept.size
        if kept.size:
            passing = scan.triple_condition_flags(n, rows, slack)
            _record_block(tally, spec.claim, n, rows[passing], kept[passing], extra)
        tally.scanned += positions.size
        tick()


# ---------------------------------------------------------------------------
# lemma instance suite


def _run_lemma_suite(
    spec: CampaignSpec, tally: _Tally, stop_after: Optional[int], tick: Callable[[], None]
) -> None:
    """Screen blocks of seeded random digraphs for the four lemma setups.

    Each block's inputs (order, rows, strong flag, draws) come from numpy in
    one pass (``_lemma_inputs``); the samples then run one by one in ordinal
    order, turned into Python lists ``_LEMMA_CHUNK`` at a time to bound the
    memory the lists take.  The first sample of every chunk is re-screened
    by the scalar ``strong_rows``, and the campaign raises if the two screens
    disagree.  Checkpoints fall after every block of 4096 samples.
    """
    for ordinals in _block_positions(spec, tally, stop_after, 1 << 12):
        orders, rows, strong, pairs = _lemma_inputs(spec.seed, spec.n, ordinals)
        tally.strong += int(strong.sum())
        for lo in range(0, ordinals.size, _LEMMA_CHUNK):
            hi = lo + _LEMMA_CHUNK
            first = int(orders[lo])
            if strong_rows(first, rows[lo, :first].tolist()) != strong[lo]:
                raise RuntimeError("vector and scalar strong screens disagree on a lemma sample")
            chunk = zip(
                ordinals[lo:hi].tolist(),
                orders[lo:hi].tolist(),
                rows[lo:hi].tolist(),
                pairs[:, lo:hi].T.tolist(),
            )
            for ordinal, n, row, draws in chunk:
                _lemma_sample(spec, tally, ordinal, n, row[:n], draws)
        tally.scanned += ordinals.size
        tick()


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
    uses it for.  Returns orders (B,), rows (B, top) zero-padded past each
    sample's order, strong flags (B,) and the pairs (8, B).  Everything but
    the flags is uint8 (orders are at most 8), and no array holds more than
    one uint64 per sample.
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
    rows = np.zeros((ordinals.size, top), dtype=np.uint8)
    strong = np.zeros(ordinals.size, dtype=bool)
    for n in range(3, top + 1):
        picked = np.flatnonzero(orders == n)
        block = scan.decode_rows(n, arcs[picked])
        rows[picked, :n] = block
        strong[picked] = scan.strong_flags(n, block)
    return orders, rows, strong, pairs


def _lemma_sample(
    spec: CampaignSpec,
    tally: _Tally,
    ordinal: int,
    n: int,
    rows: list[int],
    draws: list[int],
) -> None:
    """Check one random digraph against all four constructive-lemma setups.

    ``draws`` holds a (length, chooser) pair per lemma, in ``_LEMMA_KEYS``
    order (see ``_lemma_inputs``).
    """
    d: Optional[Digraph] = None

    def materialize() -> Digraph:
        nonlocal d
        if d is None:
            d = from_rows(n, rows)
        return d

    def fail(kind: str, info: dict[str, Any]) -> None:
        tally.counterexamples.append(
            Counterexample(
                ordinal,
                serialize(materialize()),
                {
                    "claim": "lemma_suite",
                    "lemma": kind,
                    "sample": ordinal,
                    "stream_seed": derived_seed(spec.seed, ordinal),
                    **info,
                },
            )
        )

    def succeed(kind: str) -> None:
        tally.verified += 1
        tally.detail[kind]["successes"] += 1

    def hit(kind: str) -> None:
        tally.hits += 1
        tally.detail[kind]["hits"] += 1

    # cycles through an external vertex
    length, chooser = draws[0], draws[1]
    cycle = find_cycle_rows(n, rows, length)
    if cycle is not None:
        cmask = 0
        for v in cycle:
            cmask |= 1 << v
        outside = [v for v in range(n) if not cmask >> v & 1]
        x = outside[chooser]
        toward = (rows[x] & cmask).bit_count() + sum(rows[c] >> x & 1 for c in cycle)
        if toward >= length + 1:
            hit("external_cycles")
            try:
                found = cycles_from_external_vertex(
                    materialize(), CycleWitness(cycle), x
                )
                for want in range(2, length + 2):
                    witness = found[want]
                    witness.validate(materialize())
                    if witness.mask() & ~(cmask | 1 << x):
                        raise LemmaViolation("cycle escaped the allowed vertex pool")
                succeed("external_cycles")
            except (LemmaViolation, HypothesisUnmet, KeyError, GraphError) as exc:
                fail("external_cycles", {"cycle": list(cycle), "x": x, "error": str(exc)})

    # single-vertex insertion into a path
    length, chooser = draws[2], draws[3]
    path = find_path_rows(n, rows, length)
    if path is not None:
        pmask = 0
        for v in path:
            pmask |= 1 << v
        outside = [v for v in range(n) if not pmask >> v & 1]
        x = outside[chooser]
        toward = (rows[x] & pmask).bit_count() + sum(rows[p] >> x & 1 for p in path)
        to_first = rows[x] >> path[0] & 1
        from_last = rows[path[-1]] >> x & 1
        guaranteed = (
            toward >= length + 2
            or (toward >= length + 1 and (not to_first or not from_last))
            or (toward >= length and not to_first and not from_last)
        )
        if guaranteed:
            hit("insertion")
            slot = insert_vertex(materialize(), PathWitness(path), x)
            if slot is None:
                fail("insertion", {"path": list(path), "x": x, "error": "no slot found"})
            else:
                extended = slot[1]
                try:
                    extended.validate(materialize())
                    ok = (
                        len(extended) == length + 1
                        and extended.first == path[0]
                        and extended.last == path[-1]
                        and extended.mask() == pmask | 1 << x
                    )
                    if not ok:
                        raise LemmaViolation("extended path malformed")
                    succeed("insertion")
                except (LemmaViolation, GraphError) as exc:
                    fail("insertion", {"path": list(path), "x": x, "error": str(exc)})

    # absorbing a disjoint path into a cycle
    length, chooser = draws[4], draws[5]
    cycle = find_cycle_rows(n, rows, length)
    if cycle is not None:
        cmask = 0
        for v in cycle:
            cmask |= 1 << v
        pool = ((1 << n) - 1) & ~cmask
        r = 1 + chooser
        q = find_path_rows(n, rows, r, pool)
        if q is not None:
            head_in = sum(rows[c] >> q[0] & 1 for c in cycle)
            tail_out = (rows[q[-1]] & cmask).bit_count()
            if head_in + tail_out >= length + 1:
                hit("absorption")
                try:
                    found = absorb_path_into_cycle(
                        materialize(), CycleWitness(cycle), PathWitness(q)
                    )
                    qmask = 0
                    for v in q:
                        qmask |= 1 << v
                    for want in range(r + 1, length + r + 1):
                        witness = found[want]
                        witness.validate(materialize())
                        if witness.mask() & ~(cmask | qmask):
                            raise LemmaViolation("cycle escaped the allowed vertex pool")
                    succeed("absorption")
                except (LemmaViolation, HypothesisUnmet, KeyError, GraphError) as exc:
                    fail(
                        "absorption",
                        {"cycle": list(cycle), "path": list(q), "error": str(exc)},
                    )

    # merging two disjoint paths endpoint-to-endpoint
    length, chooser = draws[6], draws[7]
    path = find_path_rows(n, rows, length)
    if path is not None:
        pmask = 0
        for v in path:
            pmask |= 1 << v
        pool = ((1 << n) - 1) & ~pmask
        r = 1 + chooser
        q = find_path_rows(n, rows, r, pool)
        if q is not None:
            head_in = sum(rows[p] >> q[0] & 1 for p in path)
            tail_out = (rows[q[-1]] & pmask).bit_count()
            need = length + (rows[path[-1]] >> q[0] & 1) + (rows[q[-1]] >> path[0] & 1)
            if head_in + tail_out >= need:
                hit("merge")
                try:
                    merged = merge_path(materialize(), PathWitness(path), PathWitness(q))
                    merged.validate(materialize())
                    qmask = 0
                    for v in q:
                        qmask |= 1 << v
                    ok = (
                        merged.first == path[0]
                        and merged.last == path[-1]
                        and merged.mask() == pmask | qmask
                    )
                    if not ok:
                        raise LemmaViolation("merged path malformed")
                    succeed("merge")
                except (LemmaViolation, HypothesisUnmet, GraphError) as exc:
                    fail("merge", {"path": list(path), "other": list(q), "error": str(exc)})


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


def _shard_worker(args: tuple[dict[str, Any], Optional[str], bool]) -> dict[str, Any]:
    spec_json, checkpoint_path, allow_long = args
    spec = CampaignSpec.from_json(spec_json)
    if checkpoint_path:
        spec = replace(spec, checkpoint_path=checkpoint_path)
    return run_campaign(spec, allow_long=allow_long).to_json()


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
        shard_spec = replace(spec, shard=shard, checkpoint_path=None)
        shard_ckpt = (
            f"{spec.checkpoint_path}.shard{shard}" if spec.checkpoint_path else None
        )
        work.append((shard_spec.identity(), shard_ckpt, allow_long))
    if jobs == 1 or spec.shards == 1:
        payloads = [_shard_worker(item) for item in work]
    else:
        with multiprocessing.get_context("fork").Pool(min(jobs, spec.shards)) as pool:
            payloads = pool.map(_shard_worker, work)
    return merge_results([CampaignResult.from_json(p) for p in payloads])
