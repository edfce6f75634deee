"""Self-tests of the benchmark, at tiny sizes.

::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN_PY = ROOT / "perfbench" / "run.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(RUN_PY), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


def _tiny(name: str, seed: int = 0):
    return WORKLOADS[name](seed, "tiny")


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        return
    path = ROOT / "perfbench" / "out" / f"{workload}-seed3.trace.json"
    try:
        events = json.loads(path.read_text())["traceEvents"]
    finally:
        path.unlink()
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    assert len({e["args"]["run"] for e in spans}) == 1
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["parent"] in ids | {None} for e in spans)


def test_forced_invariant_failure_counts_as_failed_operation():
    workload = _tiny("resilience")
    real = workload.resilience_matrix

    def leaky(**kwargs):
        matrix = real(**kwargs)
        matrix.rates[("cppc", "temporal")] = {
            "benign": 0.0, "corrected": 0.0, "due": 0.0, "sdc": 1.0,
        }
        return matrix

    workload.resilience_matrix = leaky
    runs = run.measure(workload, 0.0, False, Tracer())
    attempted, failures = run.verdict(runs)
    assert attempted >= len(failures) >= 1
    assert "cppc/temporal: 2 SDC" in failures


def test_nonzero_cli_exit_counts_as_failed_operation():
    workload = _tiny("paper")
    workload.calls = [("tools.run_scorecard", lambda argv: 3, [])]
    outcome = workload.iterate(Tracer())
    assert outcome.attempted == 1
    assert len(outcome.failures) == 1


def _fake_scorecard(failing_section: str, code: int):
    """A ``run_scorecard`` main printing a real table with one failed claim."""
    from repro.harness.scorecard import Claim, Scorecard

    card = Scorecard(claims=[
        Claim(section, "some claim", "band", "1.0", section != failing_section)
        for section in ("Fig 12", "Table 3", "Sec 4.7")
    ])

    def main(argv):
        print(card.to_text())
        return code

    return main


def test_seed_dependent_claim_miss_is_accuracy_not_failure(capsys):
    workload = _tiny("paper")
    workload.calls = [("tools.run_scorecard", _fake_scorecard("Fig 12", 3), [])]
    outcome = workload.iterate(Tracer())
    assert outcome.failures == []
    assert outcome.claims == 2
    assert "Fig 12" in capsys.readouterr().err


@pytest.mark.parametrize("failing, code", [("Table 3", 3), ("Fig 12", 0)])
def test_seed_free_claim_miss_or_wrong_exit_is_a_failure(failing, code):
    workload = _tiny("paper")
    workload.calls = [("tools.run_scorecard", _fake_scorecard(failing, code), [])]
    outcome = workload.iterate(Tracer())
    assert len(outcome.failures) == 1


def test_changed_digest_between_iterations_is_a_failure():
    outcome = _tiny("forked-campaign").iterate(Tracer())
    other = type(outcome)(**{**vars(outcome), "digest": "0" * 64})
    runs = [run.Measured(False, 1.0, o, []) for o in (outcome, other)]
    attempted, failures = run.verdict(runs)
    assert attempted == 2 * outcome.attempted + 1
    assert len(failures) == 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_output_digest(workload):
    first = _tiny(workload, seed=1).iterate(Tracer()).digest
    again = _tiny(workload, seed=1).iterate(Tracer()).digest
    other = _tiny(workload, seed=2).iterate(Tracer()).digest
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "paper", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_excludes_children_and_patches_are_restored():
    from repro import harness

    original = harness.run_benchmark
    tracer = Tracer()
    with tracer.instrumented():
        assert harness.run_benchmark is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
    assert harness.run_benchmark is original
    inner, outer = tracer.take()
    assert inner.parent == outer.id
    assert self_times([inner, outer])[outer.id] == pytest.approx(
        outer.dur - inner.dur
    )
