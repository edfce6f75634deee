"""Benchmark-side spans around the calls into each layer of the program.

The program is never asked to trace itself (no ``obs=`` or
``--trace-out``): :class:`Tracer` wraps the public functions and methods
named in :func:`layer_targets` for the duration of a traced iteration,
times every call, and restores the originals afterwards.  Spans nest by
call order on the one benchmark thread, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_MISSING = object()


@dataclasses.dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id, or None."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    dur: float
    args: dict


class Tracer:
    """Records spans in memory while active; writes them out at the end."""

    def __init__(self):
        self.active = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """Time the block as span ``name``; the yielded dict takes more args."""
        if not self.active:
            yield args
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield args
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, dur, args))

    @contextlib.contextmanager
    def recording(self):
        """Record spans opened by the benchmark itself inside the block."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextlib.contextmanager
    def instrumented(self):
        """Record spans, with every layer target wrapped, inside the block."""
        try:
            for target, replacement in layer_targets(self):
                self._patch(target, replacement)
            with self.recording():
                yield self
        finally:
            while self._patches:
                owner, attr, saved = self._patches.pop()
                if saved is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, saved)

    def wrap(self, func: Callable, name: str, note=None) -> Callable:
        """``func`` timed as span ``name``; ``note(result, *args)`` adds args."""

        def timed(*args, **kwargs):
            with self.span(name) as span_args:
                result = func(*args, **kwargs)
                if note is not None:
                    span_args.update(note(result, *args, **kwargs))
            return result

        return timed

    def _patch(self, target, replacement) -> None:
        """Point every reference to ``target`` at ``replacement``.

        A function is replaced in every ``repro`` module that holds it
        (it may be imported under its own name in several), a
        ``(class, method)`` pair on the class.  A target nobody holds
        means the program changed shape: fail rather than time nothing.
        """
        if isinstance(target, tuple):
            sites = [target]
        else:
            sites = [
                (module, attr)
                for module in list(sys.modules.values())
                if module is not None
                and (module.__name__ == "repro"
                     or module.__name__.startswith("repro."))
                for attr, value in list(vars(module).items())
                if value is target
            ]
            if not sites:
                raise LookupError(f"no repro module holds {target!r}")
        for owner, attr in sites:
            saved = vars(owner).get(attr, _MISSING)
            self._patches.append((owner, attr, saved))
            setattr(owner, attr, replacement(getattr(owner, attr)))

    def take(self) -> List[Span]:
        """The spans recorded so far, emptying the buffer."""
        spans, self.spans = self.spans, []
        return spans


def layer_targets(tracer: Tracer):
    """``(target, replacement-builder)`` for every layer boundary timed.

    Imported lazily: these are the program's public entry points into
    each layer, and importing them is part of the timed set-up.
    """
    from repro.faults import FaultCampaign, WarmState, build_warm_state
    from repro.harness import (
        figure10,
        figure11,
        figure12,
        run_benchmark,
        scorecard,
        sweep_interleaving,
        sweep_l1_size,
        sweep_seu_rate,
        table2,
        table3,
    )
    from repro.memsim.hierarchy import MemoryHierarchy
    from repro.reliability import estimate_double_fault_failure_fast
    from repro.tools.run_experiment import table3mc_text
    from repro.workloads import make_workload

    def span(name, note=None):
        return lambda func: tracer.wrap(func, name, note)

    targets = [
        (make_workload, lambda func: _eager_generation(tracer, func)),
        (run_benchmark, span("harness.run_benchmark", _run_counts)),
        (figure10, span("timing.price")),
        (estimate_double_fault_failure_fast,
         span("reliability.mc", _mc_samples)),
        (scorecard, span("harness.scorecard")),
        ((FaultCampaign, "run"), span("faults.campaign", _campaign_counts)),
        (build_warm_state, span("faults.warm", _warm_engine)),
        ((WarmState, "fork"), span("memsim.fork")),
        ((MemoryHierarchy, "flush"), span("memsim.flush")),
    ]
    targets += [(f, span("energy.figures")) for f in (figure11, figure12)]
    targets += [
        (f, span("harness.tables")) for f in (table2, table3, table3mc_text)
    ]
    targets += [
        (f, span("harness.sensitivity"))
        for f in (sweep_l1_size, sweep_seu_rate, sweep_interleaving)
    ]
    return targets


def _eager_generation(tracer: Tracer, make_workload: Callable) -> Callable:
    """``make_workload`` whose ``records(n)`` materialises the trace alone.

    The program consumes traces lazily, interleaved with simulation; a
    materialised list handed back as an iterator keeps its semantics
    while the generation cost lands in its own span.
    """

    def make(*args, **kwargs):
        workload = make_workload(*args, **kwargs)
        records = workload.records

        def timed_records(n_references):
            with tracer.span("workloads.generate", refs=n_references):
                return iter(list(records(n_references)))

        workload.records = timed_records
        return workload

    return make


def _run_counts(run, *args, **kwargs) -> dict:
    return {
        "l1_accesses": run.l1.accesses,
        "l1_misses": run.l1.misses,
        "l2_misses": run.l2.misses,
        "l1_writebacks": run.l1.writebacks,
        "stores_to_dirty_units": run.l1.stores_to_dirty_units,
        "events": len(run.events),
    }


def _mc_samples(estimate, *args, **kwargs) -> dict:
    return {"samples": estimate.samples}


def _campaign_counts(result, campaign, *args, **kwargs) -> dict:
    config = campaign.config
    return {
        "scheme": config.scheme_factory.scheme,
        "benchmark": config.benchmark,
        "fault_kind": config.fault_kind,
        "trials": config.trials,
        "failed": result.failed,
        **{outcome.value: n for outcome, n in result.counts.items()},
    }


def _warm_engine(state, *args, **kwargs) -> dict:
    return {"warm_engine": state.warm_engine}


# ----------------------------------------------------------------------
# Span aggregation
# ----------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.dur
    return {span.id: span.dur - children[span.id] for span in spans}


def write_chrome_trace(path, spans: List[Span], run_id: str, title: str) -> None:
    """Write ``spans`` as a chrome://tracing file through the program's sink."""
    from repro.obs import ChromeTraceSink

    sink = ChromeTraceSink(path, process_name=title)
    try:
        for span in sorted(spans, key=lambda s: s.start):
            sink.span(
                span.name.split(".")[0],
                span.name,
                span.start,
                span.dur,
                {"run": run_id, "id": span.id, "parent": span.parent,
                 **span.args},
            )
    finally:
        sink.close()

