"""Metric names, units and the per-layer figures derived from spans.

``END_TO_END`` and ``PER_LAYER`` are the metric sets of ``--trace 0`` and
``--trace 1`` respectively; ``BENCHMARK.json`` lists the same names and
units (a self-test holds the two together).  Every workload prints every
metric of its set: a layer a workload never calls reads 0.

Per-layer ``*_s`` figures are seconds per iteration (median over the
traced iterations); ``*_ms`` figures are the median single call, pooled
over traced iterations and the decomposition probe; counts are per
iteration and repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from .spans import Span, self_times

SCHEMES = ("none", "parity", "secded", "cppc", "twod")
OUTCOMES = ("corrected", "due", "sdc", "benign")

END_TO_END = {
    "wall_s": "s",
    "refs_per_s": "1/s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "claims_passed": "count",
}

_SECONDS = (
    "workloads.generate_s", "harness.run_benchmark_s", "timing.collect_s",
    "timing.price_s", "energy.figures_s", "harness.tables_s",
    "harness.scorecard_s", "harness.sensitivity_s", "tools.cli_s",
    "reliability.mc_s", "faults.warm_s", "trace.wall_s", "trace.overhead_s",
)
_MILLIS = (
    "workloads.generate_ms", "memsim.fork_ms", "memsim.flush_ms",
    "faults.trial_ms",
)
_MEMSIM_COUNTS = {
    "memsim.l1_accesses": "l1_accesses",
    "memsim.l1_misses": "l1_misses",
    "memsim.l2_misses": "l2_misses",
    "memsim.l1_writebacks": "l1_writebacks",
    "memsim.stores_to_dirty_units": "stores_to_dirty_units",
    "timing.events": "events",
}
_FAULT_COUNTS = (
    [f"faults.{o}" for o in OUTCOMES]
    + [f"faults.{o}.{s}" for o in OUTCOMES for s in SCHEMES]
    + ["faults.trials_failed", "faults.warm_builds", "faults.warm_engine_batch"]
)

PER_LAYER = {
    **{name: "s" for name in _SECONDS},
    "reliability.mc_samples_per_s": "1/s",
    **{f"faults.cell_s.{s}": "s" for s in SCHEMES},
    **{name: "ms" for name in _MILLIS},
    **{f"memsim.replay_ms.{s}": "ms" for s in SCHEMES},
    **{f"memsim.flush_ms.{s}": "ms" for s in SCHEMES},
    **{name: "count" for name in _MEMSIM_COUNTS},
    **{name: "count" for name in _FAULT_COUNTS},
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _iteration(spans: List[Span]) -> Dict[str, float]:
    """Per-iteration totals, self times and counts of one traced iteration."""
    own = self_times(spans)

    def named(name, **match):
        return [s for s in spans if s.name == name
                and all(s.args.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(s.dur for s in named(name, **match))

    def self_of(name):
        return sum(own[s.id] for s in named(name))

    campaigns = named("faults.campaign")
    warms = named("faults.warm")
    runs = named("harness.run_benchmark")
    mc_s = total("reliability.mc")
    mc_samples = sum(s.args["samples"] for s in named("reliability.mc"))
    trials = sum(s.args["trials"] for s in campaigns)
    out = {
        "workloads.generate_s": total("workloads.generate"),
        "harness.run_benchmark_s": total("harness.run_benchmark"),
        "timing.collect_s": self_of("harness.run_benchmark"),
        "timing.price_s": total("timing.price"),
        "energy.figures_s": total("energy.figures"),
        "harness.tables_s": self_of("harness.tables"),
        "harness.scorecard_s": self_of("harness.scorecard"),
        "harness.sensitivity_s": self_of("harness.sensitivity"),
        "tools.cli_s": sum(own[s.id] for s in spans
                           if s.name.startswith("tools.")),
        "reliability.mc_s": mc_s,
        "reliability.mc_samples_per_s": mc_samples / mc_s if mc_s else 0.0,
        "faults.warm_s": total("faults.warm"),
        "faults.trial_ms": (
            1e3 * (total("faults.campaign") - total("faults.warm")) / trials
            if trials else 0.0
        ),
        "faults.trials_failed": sum(s.args["failed"] for s in campaigns),
        "faults.warm_builds": len(warms),
        "faults.warm_engine_batch": sum(
            s.args["warm_engine"] == "batch" for s in warms
        ),
    }
    for scheme in SCHEMES:
        out[f"faults.cell_s.{scheme}"] = total("faults.campaign", scheme=scheme)
    for outcome in OUTCOMES:
        out[f"faults.{outcome}"] = sum(s.args[outcome] for s in campaigns)
        for scheme in SCHEMES:
            out[f"faults.{outcome}.{scheme}"] = sum(
                s.args[outcome] for s in campaigns if s.args["scheme"] == scheme
            )
    for metric, key in _MEMSIM_COUNTS.items():
        out[metric] = sum(s.args[key] for s in runs)
    return out


def layer_metrics(
    traced: List[List[Span]], probe: List[Span], untraced_walls: List[float],
    traced_walls: List[float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced iterations and the probe."""
    per_iteration = [_iteration(spans) for spans in traced]
    # Counts repeat exactly between iterations; times take the median.
    out = {name: per_iteration[-1][name] if PER_LAYER.get(name) == "count"
           else _median(it[name] for it in per_iteration)
           for name in per_iteration[0]}
    pooled = [s for spans in traced for s in spans] + probe

    def per_call_ms(name, **match):
        return 1e3 * _median(
            s.dur for s in pooled if s.name == name
            and all(s.args.get(k) == v for k, v in match.items())
        )

    out["workloads.generate_ms"] = per_call_ms("workloads.generate")
    out["memsim.fork_ms"] = per_call_ms("memsim.fork")
    out["memsim.flush_ms"] = per_call_ms("memsim.flush")
    for scheme in SCHEMES:
        out[f"memsim.replay_ms.{scheme}"] = per_call_ms(
            "memsim.replay", scheme=scheme
        )
        out[f"memsim.flush_ms.{scheme}"] = per_call_ms(
            "memsim.flush", scheme=scheme
        )
    out["trace.wall_s"] = _median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - _median(untraced_walls)
    return {name: out[name] for name in PER_LAYER}
