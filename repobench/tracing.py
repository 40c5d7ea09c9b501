"""Per-layer tracing for the traced benchmark run.

:func:`install` replaces the public entry points of each ``repro`` layer with
timing wrappers.  It must run before any layer object is built, because some
objects keep bound methods from construction on.  Nothing inside
``src/repro`` changes: the wrappers are set as attributes on the modules and
classes from here.

Every wrapped call is a span.  A span's *self* time is its duration minus the
durations of the wrapped calls nested in it.  Coarse layers (workload
synthesis, sweep cells, backend runs, analysis calls, ...) are kept as
individual span records ``[id, name, start, end, parent id, self]`` that
share the tracer's run id.  Per-region component calls (direction
predictor, BTB, L1-I, ...) happen millions of times per run, so they are
aggregated per name as ``[calls, total seconds, self seconds]`` instead of
being stored one by one.  Counts (cache hits, regions generated, ...) are
taken at the same call boundaries.

Forked pool workers inherit the wrappers.  Each worker starts from empty
state (see ``os.register_at_fork``) and appends its spans to
``<out_dir>/spans-<pid>.jsonl`` after every sweep cell, so a worker that is
terminated at pool shutdown loses nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter

#: (module, attribute path, span name, keep individual span records).
#: Attribute paths name a module-level function or ``Class.method``; callers
#: inside ``repro`` reach all of these through a module global or an
#: attribute lookup at call time, so replacing the attribute reroutes them.
LAYER_ENTRY_POINTS = (
    ("repro.workloads.cfg", "synthesize_program", "workloads.synthesize", True),
    ("repro.workloads.generator", "TraceWalker.run_packed", "workloads.generate", True),
    ("repro.sweep", "cell_key", "sweep.cell_key", False),
    ("repro.sweep", "ResultCache.get", "sweep.cache_get", False),
    ("repro.sweep", "ResultCache.put", "sweep.cache_put", False),
    ("repro.sweep", "TraceStore.load", "sweep.trace_load", True),
    ("repro.sweep", "TraceStore.put", "sweep.trace_put", True),
    ("repro.sweep", "_simulate_cell_counted", "sweep.cell", True),
    ("repro.sweep", "run_cells", "sweep.run_cells", True),
    ("repro.resilience", "RunJournal.__init__", "resilience.journal", False),
    ("repro.resilience", "RunJournal.load", "resilience.journal", True),
    ("repro.resilience", "RunJournal.record", "resilience.journal", True),
    ("repro.core.cmp", "ChipMultiprocessor.run_design", "core.cmp.run_design", True),
    ("repro.backends.scalar", "ScalarBackend.run", "backends.scalar.run", True),
    ("repro.backends.reference", "ReferenceBackend.run", "backends.reference.run", True),
    ("repro.backends.batch", "BatchBackend.run", "backends.batch.run", True),
    ("repro.backends.batch", "BatchBackend.run_lanes", "backends.batch.run_lanes", True),
    ("repro.branch.direction", "HybridDirectionPredictor.predict", "branch.direction", False),
    ("repro.branch.direction", "HybridDirectionPredictor.update", "branch.direction", False),
    ("repro.branch.unit", "BranchPredictionUnit.predict", "branch.unit", False),
    ("repro.branch.unit", "BranchPredictionUnit.predict_region", "branch.unit", False),
    ("repro.branch.unit", "BranchPredictionUnit.predict_region_into", "branch.unit", False),
    ("repro.branch.unit", "BranchPredictionUnit.resolve", "branch.unit", False),
    ("repro.branch.unit", "BranchPredictionUnit.resolve_region", "branch.unit", False),
    ("repro.core.confluence", "Confluence.on_block_fill", "core.airbtb", False),
    ("repro.core.confluence", "Confluence.on_block_evict", "core.airbtb", False),
    ("repro.caches.l1i", "InstructionCache.access", "caches.l1i", False),
    ("repro.caches.l1i", "InstructionCache.fill", "caches.l1i", False),
    ("repro.caches.l1i", "InstructionCache.contains", "caches.l1i", False),
    ("repro.caches.l1i", "InstructionCache.touch", "caches.l1i", False),
    ("repro.caches.l1i", "InstructionCache.invalidate", "caches.l1i", False),
    ("repro.caches.llc", "SharedLLC.fetch_instruction_block", "caches.llc", False),
    ("repro.caches.llc", "SharedLLC.read_metadata", "caches.llc", False),
    ("repro.caches.llc", "SharedLLC.write_metadata", "caches.llc", False),
    ("repro.prefetch.shift", "ShiftPrefetcher.prefetch_targets", "prefetch.shift", False),
    ("repro.prefetch.shift", "ShiftHistory.record", "prefetch.shift", False),
    ("repro.prefetch.shift", "ShiftHistory.lookup", "prefetch.shift", False),
    ("repro.prefetch.shift", "ShiftHistory.read_stream", "prefetch.shift", False),
    ("repro.prefetch.fdp", "FetchDirectedPrefetcher.prefetch_targets", "prefetch.fdp", False),
    ("repro.analysis.experiments", "run_btb_coverage", "analysis.btb_coverage", True),
    ("repro.analysis.experiments", "frontend_comparison",
     "analysis.frontend_comparison", True),
)

#: BTB methods wrapped on every :class:`~repro.branch.btb_base.BaseBTB`
#: subclass that defines them; AirBTB's count as ``core.airbtb``.
BTB_METHODS = ("lookup", "lookup_into", "update", "on_block_fill", "on_block_evict",
               "peek_hit")

#: Span names whose results are simulation results (a ``FrontendResult`` or
#: a list of them); their simulated prefetch counters feed
#: ``prefetch.accuracy``.
RESULT_SPANS = frozenset(
    {"backends.scalar.run", "backends.reference.run", "backends.batch.run_lanes"}
)


class Tracer:
    """In-memory spans, per-name aggregates and counts of one process."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset(parent=None)

    def _reset(self, parent: Optional[str]) -> None:
        self.pid = os.getpid()
        self.serial = 0
        #: Frames of the calls in progress: [child seconds, kept span id].
        self.stack: List[List[Any]] = [[0.0, parent]]
        self.spans: List[list] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)

    def after_fork(self) -> None:
        """A forked worker starts empty; its root spans hang off the span
        that was open in the parent when the worker was forked."""
        self._reset(parent=self.stack[-1][1])

    def wrap(self, func: Callable, name: str, keep: bool,
             observe: Optional[Callable[[Any, tuple, dict], None]] = None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            if keep:
                tracer.serial += 1
                span_id = f"{tracer.pid}:{tracer.serial}"
                parent = stack[-1][1]
            else:
                span_id = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_time = duration - frame[0]
                total = tracer.totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += self_time
                if keep:
                    tracer.spans.append(
                        [span_id, name, start, end, parent, self_time]
                    )
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def payload(self) -> Dict[str, Any]:
        return {
            "run": self.run_id,
            "pid": self.pid,
            "spans": self.spans,
            "totals": dict(self.totals),
            "counts": dict(self.counts),
        }

    def flush(self) -> None:
        """Append this process's records to its spans file and start over."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.payload()) + "\n")
        parent = self.stack[0][1]
        self._reset(parent=parent)


def _count(tracer: Tracer, key: str) -> Callable[[Any, tuple, dict], None]:
    def observe(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.counts[key] += 1
        if result is not None:
            tracer.counts[key + "_hit"] += 1
    return observe


def _observers(tracer: Tracer) -> Dict[str, Callable[[Any, tuple, dict], None]]:
    # Observers look ``tracer.counts`` up on every call: a flush or a fork
    # replaces the dictionary.

    def regions(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.counts["workloads.regions"] += len(result)

    def sweep_stats(result: Any, args: tuple, kwargs: dict) -> None:
        stats = result[1]
        counts = tracer.counts
        counts["sweep.retried"] += stats.retried
        counts["sweep.quarantined"] += stats.quarantined
        workers = kwargs.get("workers")
        counts["sweep.workers"] = max(counts["sweep.workers"], workers or 1)

    def cell(result: Any, args: tuple, kwargs: dict) -> None:
        if os.getpid() != tracer.root_pid:
            tracer.flush()

    def simulated(result: Any, args: tuple, kwargs: dict) -> None:
        counts = tracer.counts
        for frontend in result if isinstance(result, list) else (result,):
            counts["prefetch.hits"] += frontend.l1i_prefetch_hits
            counts["prefetch.issued"] += frontend.prefetches_issued

    observers = {
        "workloads.generate": regions,
        "sweep.cache_get": _count(tracer, "sweep.cache_get"),
        "sweep.trace_load": _count(tracer, "sweep.trace_load"),
        "sweep.run_cells": sweep_stats,
        "sweep.cell": cell,
    }
    observers.update({name: simulated for name in RESULT_SPANS})
    return observers


def _wrap_attribute(tracer: Tracer, owner: Any, attribute: str, name: str,
                    keep: bool, observe: Optional[Callable]) -> None:
    original = inspect.getattr_static(owner, attribute)
    if not inspect.isfunction(original):
        raise TypeError(f"cannot trace {owner!r}.{attribute}: not a plain function")
    setattr(owner, attribute, tracer.wrap(original, name, keep, observe))


def install(run_id: str, out_dir: Path) -> Tracer:
    """Wrap every layer entry point; returns the process's tracer."""
    tracer = Tracer(run_id, out_dir)
    observers = _observers(tracer)
    for module_name, path, name, keep in LAYER_ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        _wrap_attribute(tracer, owner, attribute, name, keep, observers.get(name))

    from repro.branch.btb_base import BaseBTB
    from repro.core.airbtb import AirBTB

    pending = [BaseBTB]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        airbtb = issubclass(cls, AirBTB)
        for attribute in BTB_METHODS:
            method = inspect.getattr_static(cls, attribute)
            if attribute in cls.__dict__:
                _wrap_attribute(tracer, cls, attribute,
                                "core.airbtb" if airbtb else "branch.btb", False, None)
            elif airbtb:
                # AirBTB time spent in methods it inherits is AirBTB time.
                method = getattr(method, "__wrapped__", method)
                setattr(cls, attribute, tracer.wrap(method, "core.airbtb", False))
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def load_records(out_dir: Path) -> List[Dict[str, Any]]:
    """Every record the run's processes flushed into ``out_dir``."""
    records = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records
