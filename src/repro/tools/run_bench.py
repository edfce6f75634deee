"""Benchmark the repo's fast paths against their reference simulators.

One table, :data:`BENCH_MODES`, has a row per fast path (``replay``, the
default; ``tracestore``; ``campaign``; ``reliability``; ``timing``) and
one driver runs every row.  The bench first proves its fast path
bit-identical to the scalar oracle (exit 1 on an
:class:`~repro.errors.EquivalenceError`, mismatch lines on stderr).  The
report is then compared against ``BENCH_baseline.json``
(``--compare-baseline``, warn-only), written to ``BENCH_<mode>.json``
and ratio-gated: exit 3 below ``--min-speedup`` (or the mode's own
spelling of it, e.g. ``--min-campaign-speedup``) or above
``--max-obs-overhead``.  Bad arguments exit 2.  Gates bound ratios,
never absolute wall-clock, so slow runners cannot flake them::

    python -m repro.tools.run_bench --trace-len 20000 --min-speedup 3
    python -m repro.tools.run_bench --trace-format columnar --min-load-speedup 5
    python -m repro.tools.run_bench --campaign --trials 200 --min-campaign-speedup 3
    python -m repro.tools.run_bench --reliability --min-mc-speedup 50
    python -m repro.tools.run_bench --timing --min-timing-speedup 5

A new fast path adds a table row, not a new ``main``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import pathlib
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..equivalence import raise_on
from ..errors import EquivalenceError
from ..faults.schemes import SCHEMES, scheme_factory
from ..memsim.batch import BatchTrace
from ..obs import NullSink, make_sink
from ..workloads import benchmark_names, make_workload, materialize
from ..workloads.replay import FastReplay, TraceReplayer
from ..workloads.store import (
    DEFAULT_CHUNK_RECORDS,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    TraceCache,
    write_trace,
)
from ..workloads.trace import load_trace, save_trace
from ._cli import (
    add_obs_arguments,
    emit_metrics,
    fail,
    metrics_registry,
    resolve_exit,
)

#: Trace prefix used to warm both engines before the timed runs.
WARMUP_REFERENCES = 5_000

#: Default committed baseline file (see ``--compare-baseline``).
DEFAULT_BASELINE = "BENCH_baseline.json"


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(
    benchmark: str = "gcc",
    trace_len: int = 100_000,
    *,
    equivalence_len: int = 1_000,
    repeats: int = 3,
    seed: int = 0,
    trace_out: Optional[str] = None,
    registry=None,
) -> dict:
    """Run the comparison and return the report dictionary.

    ``trace_out`` additionally replays the trace once with a live sink
    attached (per-chunk spans land in the file); ``registry`` (a
    :class:`repro.obs.MetricsRegistry`) receives the batch run's cache
    statistics.
    """
    if trace_len < 1:
        raise ValueError("trace_len must be positive")
    records = materialize(make_workload(benchmark, seed=seed).records(trace_len))
    replayer = FastReplay(equivalence="never")

    # Correctness first: replay a short prefix through both engines and
    # compare final state word-for-word (raises EquivalenceError on any
    # divergence).
    checked = min(equivalence_len, trace_len)
    if checked:
        FastReplay(equivalence="always").run(records[:checked])

    # Pack the trace (and the warmup prefix) into columns once, outside
    # the timed runs.
    trace = BatchTrace.from_records(records)
    warm_trace = trace.slice(0, min(WARMUP_REFERENCES, trace_len))
    warm = records[: len(warm_trace)]

    # Warm both paths so one-time NumPy/interpreter setup costs do not
    # pollute the measurement.
    replayer.engine.replay(warm_trace)
    TraceReplayer(replayer.scalar_cache()).run(warm)

    def batch_once():
        return replayer.engine.replay(trace)

    # Zero-overhead-when-disabled: a NullSink attached to the engine must
    # keep the hot loop on its uninstrumented branch, so this ratio stays
    # ~1.0 regardless of machine speed.  The two batch variants are timed
    # in alternation (not in separate back-to-back blocks) so slow drift
    # on a noisy machine cancels out of the ratio.
    disabled = FastReplay(equivalence="never", obs=NullSink())
    disabled.engine.replay(warm_trace)

    def disabled_once():
        disabled.engine.replay(trace)

    batch_s = disabled_s = float("inf")
    for _ in range(max(1, repeats)):
        batch_s = min(batch_s, _time_best(batch_once, 1))
        disabled_s = min(disabled_s, _time_best(disabled_once, 1))

    scalar_s = _time_best(
        lambda: TraceReplayer(replayer.scalar_cache()).run(records),
        repeats,
    )

    report = {
        "benchmark": benchmark,
        "trace_len": trace_len,
        "seed": seed,
        "repeats": repeats,
        "equivalence_checked_references": checked,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_ops_per_sec": trace_len / scalar_s,
        "batch_ops_per_sec": trace_len / batch_s,
        "speedup": scalar_s / batch_s,
        "disabled_sink_seconds": disabled_s,
        "obs_overhead_ratio": disabled_s / batch_s,
    }
    if registry is not None:
        batch_once().stats.export_metrics(registry, prefix="batch.")
    if trace_out is not None:
        with make_sink(trace_out) as sink:
            FastReplay(equivalence="never", obs=sink).run(trace)
        report["trace_out"] = str(trace_out)
    return report


def run_tracestore_bench(
    benchmark: str = "gcc",
    trace_len: int = 200_000,
    *,
    equivalence_len: int = 1_000,
    repeats: int = 3,
    seed: int = 0,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    workdir=None,
) -> dict:
    """Benchmark the columnar trace store and return the report.

    Writes the same generated trace in both formats under ``workdir``
    (a temporary directory by default), then measures, best of
    ``repeats``:

    * columnar load (file → replay-ready :class:`BatchTrace` columns)
      against text parse (``load_trace`` → ``from_records``) — the
      ``load_speedup`` ratio this mode gates on;
    * chunked replay throughput straight off the reader;
    * trace-cache miss (generate + write) vs. hit (decode) latency.

    Correctness is asserted, not sampled: the columnar columns must be
    bit-identical to the text round-trip, and a ``trace_len``-capped
    prefix is replayed with ``FastReplay(equivalence="always")`` from
    the columnar file, so a format bug fails the bench rather than
    skewing it.  The writer streams from the generator; the report
    records its buffered high-water mark.
    """
    if trace_len < 1:
        raise ValueError("trace_len must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(workdir) if workdir is not None else pathlib.Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        col_path = base / f"{benchmark}-{trace_len}.coltrace"
        text_path = base / f"{benchmark}-{trace_len}.trace"

        # Streaming generation straight into chunks (bounded memory).
        start = time.perf_counter()
        with ColumnarTraceWriter(col_path, chunk_records=chunk_records) as writer:
            writer.extend(make_workload(benchmark, seed=seed).records(trace_len))
        gen_columnar_s = time.perf_counter() - start
        peak_buffered = writer.peak_buffered
        if peak_buffered > chunk_records:
            raise EquivalenceError(
                f"streaming writer buffered {peak_buffered} records "
                f"(more than one {chunk_records}-record chunk)"
            )

        start = time.perf_counter()
        with open(text_path, "w") as fh:
            save_trace(make_workload(benchmark, seed=seed).records(trace_len), fh)
        gen_text_s = time.perf_counter() - start

        def text_load():
            with open(text_path) as fh:
                return BatchTrace.from_records(list(load_trace(fh)))

        def columnar_load():
            with ColumnarTraceReader(col_path, use_mmap=False) as reader:
                return reader.batch_trace()

        text_load_s = _time_best(text_load, repeats)
        col_load_s = _time_best(columnar_load, repeats)

        # Bit-identity between the two load paths, checked on the real
        # files the timings used.
        text_trace = text_load()
        col_trace = columnar_load()
        columns = ("addr", "size", "is_store", "gap", "value_word", "value_mask")
        raise_on(
            [
                f"column {name!r}"
                for name in columns
                if not np.array_equal(
                    getattr(text_trace, name), getattr(col_trace, name)
                )
            ],
            "columnar load diverged from the text round-trip",
        )

        # Scalar equivalence through the full columnar path (chunked
        # replay + record decode for the scalar twin).
        checked = min(equivalence_len, trace_len)
        if checked:
            check_path = base / "equivalence-prefix.coltrace"
            with ColumnarTraceReader(col_path, use_mmap=False) as reader:
                prefix = list(itertools.islice(reader.records(), checked))
            write_trace(prefix, check_path, chunk_records=max(1, checked // 4))
            with ColumnarTraceReader(check_path) as reader:
                FastReplay(equivalence="always").run(reader)

        # Chunked replay throughput straight off the reader.
        engine_holder = FastReplay(equivalence="never")

        def replay_chunked():
            with ColumnarTraceReader(col_path, verify=False) as reader:
                engine_holder.engine.replay_chunks(reader.iter_chunks())

        replay_chunked()  # warm
        replay_s = _time_best(replay_chunked, repeats)

        # Content-addressed cache: first request generates and writes,
        # the second decodes the cached file.
        cache = TraceCache(base / "cache")
        start = time.perf_counter()
        cache.get_or_create(benchmark, seed, trace_len)
        cache_miss_s = time.perf_counter() - start
        start = time.perf_counter()
        cached_path = cache.get_or_create(benchmark, seed, trace_len)
        with ColumnarTraceReader(cached_path, use_mmap=False) as reader:
            reader.batch_trace()
        cache_hit_s = time.perf_counter() - start

        return {
            "mode": "tracestore",
            "benchmark": benchmark,
            "trace_len": trace_len,
            "seed": seed,
            "repeats": repeats,
            "chunk_records": chunk_records,
            "equivalence_checked_references": checked,
            "columnar_bytes": col_path.stat().st_size,
            "text_bytes": text_path.stat().st_size,
            "gen_columnar_seconds": gen_columnar_s,
            "gen_text_seconds": gen_text_s,
            "writer_peak_buffered": peak_buffered,
            "text_load_seconds": text_load_s,
            "columnar_load_seconds": col_load_s,
            "load_speedup": text_load_s / col_load_s,
            "chunked_replay_seconds": replay_s,
            "chunked_replay_ops_per_sec": trace_len / replay_s,
            "cache_miss_seconds": cache_miss_s,
            "cache_hit_seconds": cache_hit_s,
            "columns_identical": True,
        }


def run_campaign_bench(
    scheme: str = "cppc",
    benchmark: str = "gcc",
    *,
    trials: int = 200,
    warmup: int = 12_000,
    post: int = 250,
    seed: int = 0,
) -> dict:
    """Time the legacy vs. snapshot-fork campaign and return the report.

    Runs the same shared-warmup campaign twice — once through the legacy
    warm-every-trial loop, once through the snapshot-fork fast path —
    and verifies per-trial bit-identity with the campaign's own
    ``fast_equivalence`` comparison before reporting throughput.
    The fast timing includes building the warm snapshot (the cache is
    cleared first), so the reported ratio is what a cold campaign sees.
    """
    from ..faults.campaign import (
        CampaignConfig,
        FaultCampaign,
        Outcome,
        _check_trial_equivalence,
    )
    from ..faults.warmstate import clear_warm_cache

    if trials < 1:
        raise ValueError("trials must be positive")
    config = CampaignConfig(
        scheme_factory=scheme_factory(scheme),
        benchmark=benchmark,
        trials=trials,
        warmup_references=warmup,
        post_fault_references=post,
        seed=seed,
        shared_warmup=True,
    )

    start = time.perf_counter()
    legacy = FaultCampaign(config).run()
    legacy_s = time.perf_counter() - start

    clear_warm_cache()
    start = time.perf_counter()
    fast = FaultCampaign(config, fast=True).run()
    fast_s = time.perf_counter() - start

    for trial, (old, new) in enumerate(zip(legacy.trials, fast.trials)):
        _check_trial_equivalence(trial, new, old)

    return {
        "mode": "campaign",
        "scheme": scheme,
        "benchmark": benchmark,
        "trials": trials,
        "warmup_references": warmup,
        "post_fault_references": post,
        "seed": seed,
        "legacy_seconds": legacy_s,
        "fast_seconds": fast_s,
        "legacy_trials_per_sec": trials / legacy_s,
        "fast_trials_per_sec": trials / fast_s,
        "speedup": legacy_s / fast_s,
        "outcomes": {o.value: legacy.counts[o] for o in Outcome},
        "identical_trials": True,
    }


def run_reliability_bench(
    *,
    mc_samples: int = 200_000,
    scalar_samples: int = 64,
    shards: int = 1,
    num_pairs: int = 1,
    parity_ways: int = 8,
    cache_bytes: int = 8192,
    equivalence_subset: int = 48,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time the vectorized vs. scalar double-fault engine; return report.

    Correctness first, following the other fast-path benches:

    * **live equivalence** — a randomized ``equivalence_subset`` of the
      kernel's sampled fault pairs is replayed through full
      ``Cache``/``CppcProtection`` recovery and compared *per sample*
      (the subset deliberately front-loads the rare DUE/miscorrection
      verdicts), for the benched geometry and a second multi-pair one;
    * **shard-merge determinism** — the same seed estimated through one
      shard and through several must produce the identical outcome
      histogram, bit for bit.

    Both paths are then timed (best of ``repeats``) on their own sample
    budgets and normalized to samples/sec before the ``mc_speedup``
    ratio; the collision probability is capacity- and value-independent,
    so the two budgets measure the same estimator at different scales.
    """
    from ..reliability import fastmc, montecarlo

    if mc_samples < 1 or scalar_samples < 1:
        raise ValueError("sample budgets must be positive")

    # The benched geometry plus a multi-pair one, each checked per sample.
    equivalence = [
        fastmc.cross_check_live(
            samples=512,
            subset=equivalence_subset,
            parity_ways=parity_ways,
            num_pairs=pairs,
            seed=seed,
            cache_bytes=min(cache_bytes, 1024),
        )
        for pairs in dict.fromkeys((num_pairs, 4))
        if equivalence_subset
    ]

    geometry = dict(
        parity_ways=parity_ways,
        num_pairs=num_pairs,
        seed=seed,
        cache_bytes=cache_bytes,
    )
    fast_estimate = functools.partial(
        fastmc.estimate_double_fault_failure_fast, **geometry
    )
    probe = max(1, min(mc_samples, 20_000))
    single = fast_estimate(samples=probe, shards=1)
    sharded = fast_estimate(samples=probe, shards=max(4, shards))
    if vars(single) != vars(sharded):
        raise EquivalenceError(
            "shard merge is not deterministic",
            mismatches=[
                f"1 shard {vars(single)!r} vs {max(4, shards)} shards "
                f"{vars(sharded)!r}"
            ],
        )

    # The first run warms NumPy and the image construction.
    estimate = fast_estimate(samples=mc_samples, shards=shards)
    vector_s = _time_best(
        lambda: fast_estimate(samples=mc_samples, shards=shards), repeats
    )
    scalar_s = _time_best(
        lambda: montecarlo.estimate_double_fault_failure(
            samples=scalar_samples, **geometry
        ),
        repeats,
    )

    ci_low, ci_high = estimate.failure_rate_ci()
    vector_sps = mc_samples / vector_s
    scalar_sps = scalar_samples / scalar_s
    return {
        "mode": "reliability",
        "mc_samples": mc_samples,
        "scalar_samples": scalar_samples,
        "shards": shards,
        "num_pairs": num_pairs,
        "parity_ways": parity_ways,
        "cache_bytes": cache_bytes,
        "seed": seed,
        "repeats": repeats,
        "vector_seconds": vector_s,
        "scalar_seconds": scalar_s,
        "vector_samples_per_sec": vector_sps,
        "scalar_samples_per_sec": scalar_sps,
        "mc_speedup": vector_sps / scalar_sps,
        "failure_rate": estimate.failure_rate,
        "failure_rate_ci95": [ci_low, ci_high],
        "sdc_rate": estimate.sdc_rate,
        "analytic": montecarlo.analytical_collision_probability(parity_ways, num_pairs),
        "corrected": estimate.corrected,
        "due": estimate.due,
        "miscorrected": estimate.miscorrected,
        "shard_merge_deterministic": True,
        "equivalence": equivalence,
    }


def run_timing_bench(
    *,
    n_references: int = 12_000,
    warmup_fraction: float = 0.25,
    benchmarks: Optional[Sequence[str]] = None,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time the Figure-10 timing fast path vs. the scalar pipeline.

    Correctness first, following the other fast-path benches: every
    benchmark is collected with ``collect_run_fast(...,
    equivalence="always")``, whose oracle checks the events and L1/L2
    statistics against the scalar ``collect_events``, and all four
    schemes' ``time_events_fast`` results must equal ``time_events`` on
    those verified columns *bit for bit* before anything is timed.

    Both stages then consume pre-generated traces (the scalar path a
    record list, the fast path the equivalent :class:`BatchTrace`) so
    the ratio measures simulation, not workload synthesis — the same
    convention the replay bench uses.  Each stage replays every
    benchmark and prices it under every scheme; best-of-``repeats``
    wall times feed the ``speedup`` ratio.
    """
    from ..memsim import PAPER_CONFIG
    from ..timing import (
        TIMING_POLICIES,
        collect_run,
        collect_run_fast,
        time_events,
        time_events_fast,
    )

    if n_references < 1:
        raise ValueError("timing reference count must be positive")
    names = list(benchmarks) if benchmarks else benchmark_names()
    warmup = int(n_references * warmup_fraction)
    total = n_references + warmup
    policies = {name: factory() for name, factory in TIMING_POLICIES.items()}
    records = {
        name: list(make_workload(name, seed=seed).records(total)) for name in names
    }
    batch_traces = {name: BatchTrace.from_records(r) for name, r in records.items()}

    problems = []
    for name in names:
        try:
            run = collect_run_fast(
                batch_traces[name], PAPER_CONFIG, warmup=warmup, equivalence="always"
            )
        except EquivalenceError as exc:
            problems += [f"{name}: {line}" for line in exc.mismatches]
            continue
        for scheme, policy in policies.items():
            scalar_result = time_events(
                run.events, policy, units_per_block=run.units_per_block
            )
            fast_result = time_events_fast(
                run.events, policy, units_per_block=run.units_per_block
            )
            if scalar_result != fast_result:
                problems.append(
                    f"{name}: {scheme}: {scalar_result!r} != {fast_result!r}"
                )
    raise_on(problems, "timing fast path diverged from the scalar pipeline")

    def scalar_stage():
        for name in names:
            events, hierarchy = collect_run(records[name], PAPER_CONFIG, warmup=warmup)
            for policy in policies.values():
                time_events(
                    events, policy, units_per_block=hierarchy.l1d.units_per_block
                )

    def fast_stage():
        for name in names:
            run = collect_run_fast(
                batch_traces[name],
                PAPER_CONFIG,
                warmup=warmup,
                equivalence="never",
            )
            for policy in policies.values():
                time_events_fast(
                    run.events, policy, units_per_block=run.units_per_block
                )

    fast_stage()  # warm NumPy before the timed runs
    fast_s = _time_best(fast_stage, repeats)
    scalar_s = _time_best(scalar_stage, repeats)

    measured = len(names) * n_references
    return {
        "mode": "timing",
        "benchmarks": names,
        "references": n_references,
        "warmup": warmup,
        "schemes": list(policies),
        "seed": seed,
        "repeats": repeats,
        "scalar_seconds": scalar_s,
        "fast_seconds": fast_s,
        "speedup": scalar_s / fast_s,
        "fast_references_per_sec": measured / fast_s,
        "equivalence": {
            "benchmarks": len(names),
            "schemes": len(policies),
            "status": "ok",
        },
    }


# ----------------------------------------------------------------------
# The bench table and its driver
# ----------------------------------------------------------------------
class Ratio(NamedTuple):
    """A gated report ratio, also compared against the baseline.

    ``direction`` ``"min"``: lower is worse (floored by ``--min-speedup``);
    ``"max"``: higher is worse (capped by ``--max-obs-overhead``).
    """

    key: str
    direction: str
    label: str


@dataclasses.dataclass(frozen=True)
class BenchMode:
    """One row of :data:`BENCH_MODES`.

    ``bench`` names the bench function in this module; the driver looks
    it up per run and passes each of its keyword parameters from the
    same-named parsed argument (plus ``registry``).  ``gauges`` maps
    metrics-gauge names to report keys, ``summary`` formats the report
    into the printed line, and ``floor_flag`` is the mode's own
    spelling of ``--min-speedup``.
    """

    name: str
    bench: str
    ratios: Tuple[Ratio, ...]
    gauges: Dict[str, str]
    summary: str
    floor_flag: str

    @property
    def output(self) -> pathlib.Path:
        """The default report path."""
        return pathlib.Path(f"BENCH_{self.name}.json")

    def run(self, args: argparse.Namespace, registry) -> dict:
        """Call the bench with its keyword arguments taken from ``args``."""
        # Looked up per call, so a substituted module attribute is used.
        bench = globals()[self.bench]
        values = dict(vars(args), registry=registry)
        params = inspect.signature(bench).parameters
        return bench(**{name: values[name] for name in params if name in values})


BENCH_MODES: Dict[str, BenchMode] = {
    mode.name: mode
    for mode in (
        BenchMode(
            name="replay",
            bench="run_bench",
            ratios=(
                Ratio("speedup", "min", "speedup"),
                Ratio("obs_overhead_ratio", "max", "disabled-sink overhead"),
            ),
            gauges={
                "bench.speedup": "speedup",
                "bench.obs_overhead_ratio": "obs_overhead_ratio",
            },
            summary="{benchmark}: {trace_len} refs  "
            "scalar {scalar_ops_per_sec:.0f} ops/s  "
            "batch {batch_ops_per_sec:.0f} ops/s  "
            "speedup {speedup:.1f}x  "
            "obs-overhead {obs_overhead_ratio:.3f}",
            floor_flag="--min-speedup",
        ),
        BenchMode(
            name="tracestore",
            bench="run_tracestore_bench",
            ratios=(Ratio("load_speedup", "min", "columnar load speedup"),),
            gauges={
                "bench.tracestore_load_speedup": "load_speedup",
                "bench.tracestore_replay_ops_per_sec": "chunked_replay_ops_per_sec",
            },
            summary="{benchmark}: {trace_len} refs  "
            "text-load {text_load_seconds:.3f}s  "
            "columnar-load {columnar_load_seconds:.3f}s  "
            "load-speedup {load_speedup:.1f}x  "
            "chunked-replay {chunked_replay_ops_per_sec:.0f} ops/s",
            floor_flag="--min-load-speedup",
        ),
        BenchMode(
            name="campaign",
            bench="run_campaign_bench",
            ratios=(Ratio("speedup", "min", "campaign speedup"),),
            gauges={
                "bench.campaign_speedup": "speedup",
                "bench.campaign_fast_trials_per_sec": "fast_trials_per_sec",
            },
            summary="{scheme}/{benchmark}: {trials} trials  "
            "legacy {legacy_trials_per_sec:.2f} trials/s  "
            "fast {fast_trials_per_sec:.2f} trials/s  "
            "speedup {speedup:.1f}x",
            floor_flag="--min-campaign-speedup",
        ),
        BenchMode(
            name="reliability",
            bench="run_reliability_bench",
            ratios=(Ratio("mc_speedup", "min", "Monte-Carlo speedup"),),
            gauges={
                "bench.mc_speedup": "mc_speedup",
                "bench.mc_samples_per_sec": "vector_samples_per_sec",
            },
            summary="double-fault p={num_pairs} w={parity_ways}: "
            "scalar {scalar_samples_per_sec:.0f} samples/s  "
            "vector {vector_samples_per_sec:.0f} samples/s  "
            "speedup {mc_speedup:.0f}x  "
            "rate {failure_rate:.4f} (analytic {analytic:.4f})",
            floor_flag="--min-mc-speedup",
        ),
        BenchMode(
            name="timing",
            bench="run_timing_bench",
            ratios=(Ratio("speedup", "min", "timing speedup"),),
            gauges={
                "bench.timing_speedup": "speedup",
                "bench.timing_references_per_sec": "fast_references_per_sec",
            },
            summary="figure-10 timing, {equivalence[benchmarks]} benchmarks x "
            "{references} refs x {equivalence[schemes]} schemes: "
            "scalar {scalar_seconds:.2f}s  fast {fast_seconds:.2f}s  "
            "speedup {speedup:.1f}x",
            floor_flag="--min-timing-speedup",
        ),
    )
}

#: ``--trace-format`` values and the mode each selects.
TRACE_FORMATS = {"records": "replay", "columnar": "tracestore"}


class _SelectMode(argparse.Action):
    """Write the bench mode; two different selectors are a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        mode = self.const or TRACE_FORMATS[values]
        if namespace.mode not in (None, mode):
            parser.error(
                f"{option_string} conflicts with the {namespace.mode} mode "
                "selected earlier"
            )
        namespace.mode = mode


def _count(group, flags: str, default: int, help: str, minimum=1, dest=None):
    """Install an integer option (space-separated ``flags``) that rejects
    values below ``minimum`` at parse time, with exit 2."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    count.__name__ = "int"  # argparse names the type in "invalid int value"
    group.add_argument(
        *flags.split(),
        type=count,
        default=default,
        dest=dest,
        metavar="N",
        help=f"{help} (default: %(default)s)",
    )


def _selector(group, mode: str, what: str) -> None:
    """Install ``--<mode>``, which selects that row of the table."""
    group.add_argument(
        f"--{mode}",
        nargs=0,
        action=_SelectMode,
        const=mode,
        dest="mode",
        default=None,
        help=f"time {what} instead of trace replay",
    )


def _ratio_help(direction: str) -> str:
    return ", ".join(
        f"{mode.name}: {ratio.key}"
        for mode in BENCH_MODES.values()
        for ratio in mode.ratios
        if ratio.direction == direction
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-bench",
        description="Time each fast path against its scalar oracle; emit JSON.",
    )
    parser.add_argument(
        "--benchmark",
        choices=benchmark_names(),
        default="gcc",
        help="synthetic workload profile (default: %(default)s)",
    )
    _count(parser, "--trace-len -n", 100_000, "references in the timed trace")
    _count(
        parser,
        "--equivalence-len",
        1_000,
        "prefix replayed through both engines and cross-checked word-for-word; "
        "0 skips the check",
        minimum=0,
    )
    _count(parser, "--repeats", 3, "timed repetitions per engine, best taken")
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        *(mode.floor_flag for mode in BENCH_MODES.values()),
        dest="min_speedup",
        type=float,
        default=0.0,
        metavar="RATIO",
        help=f"exit 3 when the selected mode's speedup ({_ratio_help('min')}) "
        "is below this; every spelling sets the same floor (default: no gate)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.0,
        metavar="RATIO",
        help=f"exit 3 when the selected mode's overhead ratio "
        f"({_ratio_help('max')}: batch time with a disabled trace sink over "
        "the plain batch time) exceeds this (default: no gate)",
    )
    parser.add_argument(
        "--output",
        "-o",
        type=pathlib.Path,
        default=None,
        help="JSON report path (default by mode: "
        + ", ".join(str(mode.output) for mode in BENCH_MODES.values())
        + ")",
    )
    store = parser.add_argument_group(
        "trace-store mode", "columnar trace load vs. text parsing"
    )
    store.add_argument(
        "--trace-format",
        choices=tuple(TRACE_FORMATS),
        action=_SelectMode,
        dest="mode",
        default=None,
        help="'columnar' selects the trace-store benchmark "
        "(default: records, the in-memory replay benchmark)",
    )
    _count(store, "--chunk-records", DEFAULT_CHUNK_RECORDS, "records per chunk")
    campaign = parser.add_argument_group(
        "campaign mode", "snapshot-fork campaigns vs. the warm-every-trial loop"
    )
    _selector(campaign, "campaign", "a fault-injection campaign")
    campaign.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="cppc",
        help="protection scheme for campaign mode (default: %(default)s)",
    )
    _count(campaign, "--trials", 200, "campaign trials per timed run")
    _count(
        campaign,
        "--warmup",
        12_000,
        "warmup references per trial; the fast path simulates them once",
        minimum=0,
    )
    _count(campaign, "--post", 250, "post-fault references per trial", minimum=0)
    reliability = parser.add_argument_group(
        "reliability mode",
        "vectorized double-fault Monte-Carlo vs. the scalar loop, on a "
        "geometry of --mc-pairs, --mc-parity-ways and --mc-cache-bytes",
    )
    _selector(reliability, "reliability", "the double-fault Monte-Carlo engine")
    _count(reliability, "--mc-samples", 200_000, "samples per timed vectorized run")
    _count(
        reliability,
        "--scalar-mc-samples",
        64,
        "samples per timed scalar-reference run; both timings are "
        "normalized to samples/sec before the ratio",
        dest="scalar_samples",
    )
    _count(
        reliability,
        "--mc-shards",
        1,
        "sample shards for the timed vectorized run; the merged estimate "
        "is bit-independent of this",
        dest="shards",
    )
    _count(reliability, "--mc-pairs", 1, "register pairs", dest="num_pairs")
    _count(reliability, "--mc-parity-ways", 8, "parity ways", dest="parity_ways")
    _count(
        reliability, "--mc-cache-bytes", 8192, "dirty capacity", dest="cache_bytes"
    )
    _count(
        reliability,
        "--equivalence-subset",
        48,
        "sampled fault pairs replayed through live Cache recovery and "
        "compared per sample; 0 skips the check",
        minimum=0,
    )
    timing = parser.add_argument_group(
        "timing mode", "the Figure-10 timing fast path vs. the scalar pipeline"
    )
    _selector(timing, "timing", "the Figure-10 timing fast path")
    _count(
        timing,
        "--timing-refs",
        12_000,
        "measured references per benchmark; a quarter more are prepended "
        "as cache warmup",
        dest="n_references",
    )
    timing.add_argument(
        "--timing-benchmarks",
        nargs="+",
        choices=benchmark_names(),
        default=None,
        metavar="NAME",
        dest="benchmarks",
        help="subset of benchmarks to run (default: the full Figure-10 "
        "workload set)",
    )
    baseline = parser.add_argument_group(
        "baseline tracking",
        "compare ratio metrics against a committed baseline file; "
        "regressions warn on stderr but never change the exit status",
    )
    baseline.add_argument(
        "--compare-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="PATH",
        help=f"baseline JSON to compare against (default: {DEFAULT_BASELINE})",
    )
    baseline.add_argument(
        "--baseline-tolerance",
        type=float,
        default=0.8,
        help="warn when a tracked ratio falls below this fraction of the "
        "baseline (or exceeds 1/fraction for overhead ratios) "
        "(default: %(default)s)",
    )
    add_obs_arguments(parser)
    return parser


def compare_baseline(report: dict, mode: str, path, tolerance: float) -> dict:
    """Compare ``report``'s tracked ratios against the baseline file.

    Returns a comparison record (also attached to the report by the
    caller): per metric the current and baseline values, the allowed
    bound, and whether it regressed.  A missing baseline file or mode
    section yields ``{"status": "no-baseline"}`` so fresh checkouts and
    new modes stay silent.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError("baseline tolerance must be in (0, 1]")
    path = pathlib.Path(path)
    if not path.is_file():
        return {"status": "no-baseline", "path": str(path)}
    baseline = json.loads(path.read_text()).get(mode)
    if not baseline:
        return {"status": "no-baseline", "path": str(path), "mode": mode}
    metrics = {}
    for ratio in BENCH_MODES[mode].ratios:
        base = baseline.get(ratio.key)
        current = report.get(ratio.key)
        if base is None or current is None:
            continue
        floor = ratio.direction == "min"
        bound = base * tolerance if floor else base / tolerance
        metrics[ratio.key] = {
            "current": current,
            "baseline": base,
            "bound": bound,
            "regressed": current < bound if floor else current > bound,
        }
    regressed = any(entry["regressed"] for entry in metrics.values())
    return {
        "status": "regressed" if regressed else "ok",
        "path": str(path),
        "tolerance": tolerance,
        "metrics": metrics,
    }


def _apply_baseline(report: dict, mode: str, args) -> None:
    """Attach the baseline comparison and warn on regressions."""
    if args.compare_baseline is None:
        return
    comparison = compare_baseline(
        report, mode, args.compare_baseline, args.baseline_tolerance
    )
    report["baseline_comparison"] = comparison
    for metric, entry in comparison.get("metrics", {}).items():
        if entry["regressed"]:
            print(
                f"WARNING: {mode} {metric} {entry['current']:.3f} "
                f"regressed past the baseline bound {entry['bound']:.3f} "
                f"(baseline {entry['baseline']:.3f}, "
                f"tolerance {args.baseline_tolerance})",
                file=sys.stderr,
            )


def _gate_failures(mode: BenchMode, report: dict, args) -> List[str]:
    """One message per tracked ratio on the wrong side of its gate."""
    failures = []
    for ratio in mode.ratios:
        value = report[ratio.key]
        if ratio.direction == "min":
            if args.min_speedup and value < args.min_speedup:
                failures.append(
                    f"{ratio.label} {value:.1f}x is below the required "
                    f"{args.min_speedup:.1f}x"
                )
        elif args.max_obs_overhead and value > args.max_obs_overhead:
            failures.append(
                f"{ratio.label} {value:.3f} exceeds the allowed "
                f"{args.max_obs_overhead:.3f}"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    mode = BENCH_MODES[args.mode or "replay"]
    registry = metrics_registry(args.emit_metrics)
    try:
        report = mode.run(args, registry)
    except EquivalenceError as exc:
        return fail(f"equivalence check FAILED:\n{exc}")
    if registry is not None:
        for gauge, key in mode.gauges.items():
            registry.gauge(gauge).set(report[key])
    _apply_baseline(report, mode.name, args)
    output = args.output or mode.output
    output.write_text(json.dumps(report, indent=2) + "\n")
    emit_metrics(args.emit_metrics, registry)
    print(mode.summary.format(**report))
    print(f"wrote {output}")
    failures = _gate_failures(mode, report, args)
    for message in failures:
        print(message, file=sys.stderr)
    return resolve_exit(partial=bool(failures))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
