"""Run one benchmark workload and print its metrics as one JSON line.

::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Whole iterations of the workload run until the next one would
end past ``--seconds`` (at least one runs).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones: it alternates
untraced and traced iterations, decomposes one trial per scheme where
the workload has a probe, and writes the spans to
``perfbench/out/<workload>-seed<seed>.trace.json`` (chrome://tracing).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the SHA-256 of the simulated outputs.  Every
failed operation is described on stderr.  Exit status is 0 whenever the
workload was measured, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("paper", "resilience", "forked-campaign"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the self-tests",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print its seconds and exit (used internally "
             "to take the median set-up time over fresh processes)",
    )
    return parser


@dataclasses.dataclass
class Measured:
    """One measured iteration."""

    traced: bool
    wall: float
    outcome: object
    spans: list


def set_up(args):
    """Import the program and build the workload; returns it and its seconds."""
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    return workload, time.perf_counter() - start


def setup_seconds(args) -> float:
    """Set-up time of a fresh process for this workload (child process)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float, trace: bool, tracer) -> List[Measured]:
    """Iterate ``workload`` for about ``seconds``; alternate traced if asked."""
    runs: List[Measured] = []
    start = time.perf_counter()
    while True:
        traced = trace and (
            sum(r.traced for r in runs) < sum(not r.traced for r in runs)
        )
        gc.collect()  # start every iteration from the same heap state
        began = time.perf_counter()
        if traced:
            with tracer.instrumented(), tracer.span(
                "bench.iteration", index=len(runs)
            ):
                outcome = workload.iterate(tracer)
        else:
            outcome = workload.iterate(tracer)
        wall = time.perf_counter() - began
        runs.append(Measured(traced, wall, outcome, tracer.take()))
        print(f"iteration {len(runs) - 1}: {wall:.3f} s"
              + (" (traced)" if traced else ""), file=sys.stderr)
        typical = statistics.median(r.wall for r in runs)
        if time.perf_counter() - start + typical > seconds and (
            not trace or any(r.traced for r in runs)
        ):
            return runs


def verdict(runs: List[Measured]):
    """``(attempted, failure messages)`` including the digest comparison."""
    attempted = sum(r.outcome.attempted for r in runs) + len(runs) - 1
    failures = [f for r in runs for f in r.outcome.failures]
    first = runs[0].outcome.digest
    failures += [
        f"iteration {i} digest {r.outcome.digest} != first {first}"
        for i, r in enumerate(runs) if r.outcome.digest != first
    ]
    return attempted, failures


def end_to_end(runs: List[Measured], setups: List[float]) -> dict:
    walls = [r.wall for r in runs if not r.traced]
    wall = statistics.median(walls)
    last = runs[-1].outcome
    return {
        "wall_s": wall,
        "refs_per_s": last.refs / wall,
        "trials_per_s": last.trials / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "claims_passed": last.claims,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.pop("REPRO_TRACE_CACHE", None) is not None:
        # A disk trace cache would silently replace trace generation.
        print("REPRO_TRACE_CACHE unset for this run", file=sys.stderr)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    workload, setup = set_up(args)
    if args.setup_only:
        print(setup)
        return 0
    setups = [setup] + [setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics
    from perfbench.spans import Tracer, write_chrome_trace

    tracer = Tracer()
    runs = measure(workload, args.seconds, bool(args.trace), tracer)
    attempted, failures = verdict(runs)
    for message, times in collections.Counter(failures).items():
        print(f"FAILED ({times}x): {message}", file=sys.stderr)

    if args.trace:
        probe = getattr(workload, "probe", None)
        if probe is not None:
            with tracer.recording():
                probe(tracer)
        probe_spans = tracer.take()
        values = layer_metrics(
            [r.spans for r in runs if r.traced],
            probe_spans,
            [r.wall for r in runs if not r.traced],
            [r.wall for r in runs if r.traced],
        )
        units = PER_LAYER
        run_id = f"{args.workload}-seed{args.seed}-{uuid.uuid4().hex[:12]}"
        name = f"{args.workload}-seed{args.seed}.trace.json"
        path = ROOT / "perfbench" / "out" / name
        write_chrome_trace(
            path, [s for r in runs for s in r.spans] + probe_spans, run_id,
            f"perfbench {run_id}",
        )
        print(f"spans written to {path}", file=sys.stderr)
    else:
        values = end_to_end(runs, setups)
        units = END_TO_END

    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={runs[0].outcome.digest}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
