"""In-memory span recorder wrapped around hamlab's layer functions.

Tracing lives in the benchmark, not in the program: :func:`install` replaces
each listed function with a recording wrapper in every hamlab module that
holds a reference to it.  ``harness`` imports ``find_cycle_rows``,
``holds_a_k_rows`` and friends by value, so patching only the defining module
would miss the calls the campaign engine makes.

A span is (name, parent span, campaign id, start, end) with nanosecond
clocks.  Spans are kept in flat arrays while the run lasts and written out
once at the end.  A span's self time is its duration minus the durations of
its direct children; children of one span never overlap, so self time is
never negative.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from typing import Any, Callable, NamedTuple, Optional

import numpy as np


def _rows_passed(args: tuple, result: Any) -> dict[str, int]:
    return {"rows": int(args[1].shape[0]), "passed": int(result.sum())}


def _rows_decoded(args: tuple, result: Any) -> dict[str, int]:
    return {"rows": int(result.shape[0])}


def _found(args: tuple, result: Any) -> dict[str, int]:
    return {"found": int(result is not None)}


def _bytes_written(args: tuple, result: Any) -> dict[str, int]:
    return {"bytes": os.path.getsize(args[0])}


class Layer(NamedTuple):
    """One traced function: where it lives, what it counts, who must call it."""

    module: str
    function: str
    #: per-call counters, taken after the span closes so they cost it nothing
    count: Optional[Callable[[tuple, Any], dict[str, int]]]
    #: ratio metrics as (metric suffix, numerator counter, denominator counter)
    ratios: tuple[tuple[str, str, str], ...]
    #: plain counters reported per round
    totals: tuple[str, ...]
    #: workloads on which the span must record at least one call
    exercised_by: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("scan", "triple_condition_flags", _rows_passed,
          (("pass_ratio", "passed", "rows"),), ("rows",), ("exhaustive-n6", "sampled-n7")),
    Layer("scan", "sample_strong_rows", None, (), (), ("sampled-n7",)),
    Layer("scan", "strong_flags", _rows_passed,
          (("pass_ratio", "passed", "rows"),), (), ("exhaustive-n6", "sampled-n7")),
    Layer("scan", "decode_rows", _rows_decoded, (), ("rows",), ("exhaustive-n6",)),
    Layer("conditions", "holds_a_k_rows", None, (), (), ("exhaustive-n6", "sampled-n7")),
    Layer("conditions", "lemma35_rows", None, (), (), ("exhaustive-n6",)),
    Layer("digraph", "strong_rows", None, (), (), ("exhaustive-n6", "sampled-n7", "lemma-suite")),
    Layer("digraph", "isomorphic_small", None, (), (), ("exhaustive-n6",)),
    Layer("harness", "_judge", None, (), (), ("exhaustive-n6", "sampled-n7")),
    Layer("harness", "checkpoint_save", _bytes_written, (), ("bytes",), ("exhaustive-n6",)),
    Layer("harness", "run_campaign", None, (), (), ("exhaustive-n6", "sampled-n7", "lemma-suite")),
    Layer("cycles", "find_cycle_rows", _found,
          (("found_ratio", "found", "calls"),), (),
          ("exhaustive-n6", "sampled-n7", "lemma-suite")),
    Layer("cycles", "find_path_rows", _found,
          (("found_ratio", "found", "calls"),), (), ("lemma-suite",)),
    Layer("cycles", "cycles_from_external_vertex", None, (), (), ("lemma-suite",)),
    Layer("cycles", "absorb_path_into_cycle", None, (), (), ("lemma-suite",)),
    Layer("cycles", "merge_path", None, (), (), ("lemma-suite",)),
    Layer("cycles", "insert_vertex", None, (), (), ("lemma-suite",)),
    Layer("cycles", "hamiltonian_bypass_rows", None, (), (), ("exhaustive-n6",)),
    Layer("generators", "tournament_rows_from_index", None, (), (), ("exhaustive-n6",)),
)

#: per-layer metric for the traced run's own throughput
TRACED_RATE = "traced.digraphs_per_s"


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer.name}.self_s", f"{layer.name}.calls"]
        names += [f"{layer.name}.{total}" for total in layer.totals]
        names += [f"{layer.name}.{suffix}" for suffix, _, _ in layer.ratios]
    return names + [TRACED_RATE]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("i")
        self.campaign = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: list[dict[str, int]] = [{} for _ in LAYERS]
        self.campaign_id = 0
        self._stack: list[int] = []

    def wrap(self, layer_id: int, fn: Callable, count: Optional[Callable]) -> Callable:
        names, parents, campaigns = self.name, self.parent, self.campaign
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters[layer_id]
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(starts)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            campaigns.append(self.campaign_id)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if count is not None:
                for key, val in count(args, result).items():
                    counters[key] = counters.get(key, 0) + val
            return result

        return traced

    def self_times(self) -> np.ndarray:
        """Self time in nanoseconds of every recorded span."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return dur - child

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics averaged per round."""
        own = self.self_times()
        ids = np.asarray(self.name, dtype=np.int64)
        self_s = np.bincount(ids, weights=own, minlength=len(LAYERS)) / 1e9
        calls = np.bincount(ids, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            counts = dict(self.counters[i], calls=int(calls[i]))
            out[f"{layer.name}.self_s"] = float(self_s[i]) / rounds
            out[f"{layer.name}.calls"] = counts["calls"] / rounds
            for total in layer.totals:
                out[f"{layer.name}.{total}"] = counts.get(total, 0) / rounds
            for suffix, num, den in layer.ratios:
                base = counts.get(den, 0)
                out[f"{layer.name}.{suffix}"] = counts.get(num, 0) / base if base else 0.0
        return out

    def missing_layers(self, workload: str) -> list[str]:
        """Layers meant to be exercised by ``workload`` that recorded no call."""
        calls = np.bincount(np.asarray(self.name, dtype=np.int64), minlength=len(LAYERS))
        return [
            layer.name
            for i, layer in enumerate(LAYERS)
            if workload in layer.exercised_by and calls[i] == 0
        ]

    def save(self, path: str) -> None:
        """Write every span to an ``.npz`` file (columns plus the layer names)."""
        np.savez(
            path,
            layer=np.asarray(self.name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            campaign=np.frombuffer(self.campaign, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            layers=np.array([layer.name for layer in LAYERS]),
        )


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function wherever hamlab holds it; return the undo."""
    package = importlib.import_module("hamlab")
    modules = [package] + [
        importlib.import_module(f"hamlab.{name}")
        for name in ("scan", "conditions", "digraph", "cycles", "generators", "harness")
    ]
    patched: list[tuple[Any, str, Any]] = []
    for layer_id, layer in enumerate(LAYERS):
        home = importlib.import_module(f"hamlab.{layer.module}")
        original = getattr(home, layer.function)
        wrapper = tracer.wrap(layer_id, original, layer.count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))

    def undo() -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return undo
