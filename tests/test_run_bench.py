"""Characterization tests for every ``run_bench`` mode.

Each mode runs at tiny sizes through ``main()`` and is held to the CLI
contract: exit 0 with the mode's exact report key set, exit 3 below an
unreachable ratio floor, exit 1 (mismatch lines on stderr) when the
bench raises :class:`~repro.errors.EquivalenceError`, and a regressed
``--compare-baseline`` that warns without touching the exit code.
"""

import json

import pytest

from repro.errors import EquivalenceError
from repro.tools import run_bench

#: mode -> (selector + tiny-size arguments, ratio-floor flag,
#: bench function name, exact report key set, tracked baseline ratios).
MODES = {
    "replay": (
        ["--trace-len", "1000", "--equivalence-len", "200", "--repeats", "1"],
        "--min-speedup",
        "run_bench",
        {
            "batch_ops_per_sec",
            "batch_seconds",
            "benchmark",
            "disabled_sink_seconds",
            "equivalence_checked_references",
            "obs_overhead_ratio",
            "repeats",
            "scalar_ops_per_sec",
            "scalar_seconds",
            "seed",
            "speedup",
            "trace_len",
        },
        {"speedup": 1e9, "obs_overhead_ratio": 1e-9},
    ),
    "tracestore": (
        [
            "--trace-format",
            "columnar",
            "--trace-len",
            "3000",
            "--chunk-records",
            "512",
            "--equivalence-len",
            "300",
            "--repeats",
            "1",
        ],
        "--min-load-speedup",
        "run_tracestore_bench",
        {
            "benchmark",
            "cache_hit_seconds",
            "cache_miss_seconds",
            "chunk_records",
            "chunked_replay_ops_per_sec",
            "chunked_replay_seconds",
            "columnar_bytes",
            "columnar_load_seconds",
            "columns_identical",
            "equivalence_checked_references",
            "gen_columnar_seconds",
            "gen_text_seconds",
            "load_speedup",
            "mode",
            "repeats",
            "seed",
            "text_bytes",
            "text_load_seconds",
            "trace_len",
            "writer_peak_buffered",
        },
        {"load_speedup": 1e9},
    ),
    "campaign": (
        ["--campaign", "--trials", "2", "--warmup", "300", "--post", "50"],
        "--min-campaign-speedup",
        "run_campaign_bench",
        {
            "benchmark",
            "fast_seconds",
            "fast_trials_per_sec",
            "identical_trials",
            "legacy_seconds",
            "legacy_trials_per_sec",
            "mode",
            "outcomes",
            "post_fault_references",
            "scheme",
            "seed",
            "speedup",
            "trials",
            "warmup_references",
        },
        {"speedup": 1e9},
    ),
    "reliability": (
        [
            "--reliability",
            "--mc-samples",
            "2000",
            "--scalar-mc-samples",
            "4",
            "--equivalence-subset",
            "8",
            "--repeats",
            "1",
        ],
        "--min-mc-speedup",
        "run_reliability_bench",
        {
            "analytic",
            "cache_bytes",
            "corrected",
            "due",
            "equivalence",
            "failure_rate",
            "failure_rate_ci95",
            "mc_samples",
            "mc_speedup",
            "miscorrected",
            "mode",
            "num_pairs",
            "parity_ways",
            "repeats",
            "scalar_samples",
            "scalar_samples_per_sec",
            "scalar_seconds",
            "sdc_rate",
            "seed",
            "shard_merge_deterministic",
            "shards",
            "vector_samples_per_sec",
            "vector_seconds",
        },
        {"mc_speedup": 1e12},
    ),
    "timing": (
        [
            "--timing",
            "--timing-refs",
            "400",
            "--timing-benchmarks",
            "gcc",
            "mcf",
            "--repeats",
            "1",
        ],
        "--min-timing-speedup",
        "run_timing_bench",
        {
            "benchmarks",
            "equivalence",
            "fast_references_per_sec",
            "fast_seconds",
            "mode",
            "references",
            "repeats",
            "scalar_seconds",
            "schemes",
            "seed",
            "speedup",
            "warmup",
        },
        {"speedup": 1e9},
    ),
}

MODE_NAMES = sorted(MODES)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_report_keys_and_regressed_baseline(mode, tmp_path, capsys):
    argv, _floor, _fn, keys, regressed = MODES[mode]
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({mode: regressed}))
    out = tmp_path / "report.json"
    code = run_bench.main(
        argv + ["--compare-baseline", str(baseline), "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == keys | {"baseline_comparison"}
    comparison = report["baseline_comparison"]
    assert comparison["status"] == "regressed"
    assert set(comparison["metrics"]) == set(regressed)
    captured = capsys.readouterr()
    assert "WARNING:" in captured.err
    assert f"wrote {out}" in captured.out


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_unreachable_floor_is_partial(mode, tmp_path):
    argv, floor, _fn, keys, _regressed = MODES[mode]
    out = tmp_path / "report.json"
    code = run_bench.main(argv + [floor, "1e15", "--output", str(out)])
    assert code == 3
    assert set(json.loads(out.read_text())) == keys


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_equivalence_error_is_fatal(mode, tmp_path, monkeypatch, capsys):
    argv, _floor, fn, _keys, _regressed = MODES[mode]

    def diverge(*args, **kwargs):
        raise EquivalenceError(
            "fake divergence:\n  line-a\n  line-b",
            mismatches=["line-a", "line-b"],
        )

    monkeypatch.setattr(run_bench, fn, diverge)
    out = tmp_path / "report.json"
    code = run_bench.main(argv + ["--output", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "line-a" in err and "line-b" in err


class TestCompareBaseline:
    def test_missing_file_is_silent(self, tmp_path):
        result = run_bench.compare_baseline(
            {"speedup": 1.0}, "replay", tmp_path / "absent.json", 0.8
        )
        assert result["status"] == "no-baseline"

    def test_missing_mode_is_silent(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"campaign": {"speedup": 2.0}}))
        result = run_bench.compare_baseline({"speedup": 1.0}, "timing", path, 0.8)
        assert result["status"] == "no-baseline"
        assert result["mode"] == "timing"

    def test_directions(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"replay": {"speedup": 10.0, "obs_overhead_ratio": 1.0}})
        )
        report = {"speedup": 9.0, "obs_overhead_ratio": 1.5}
        result = run_bench.compare_baseline(report, "replay", path, 0.8)
        metrics = result["metrics"]
        assert result["status"] == "regressed"
        assert metrics["speedup"]["bound"] == pytest.approx(8.0)
        assert not metrics["speedup"]["regressed"]
        assert metrics["obs_overhead_ratio"]["bound"] == pytest.approx(1.25)
        assert metrics["obs_overhead_ratio"]["regressed"]

    def test_rejects_bad_tolerance(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench.compare_baseline({}, "replay", tmp_path / "x.json", 1.5)

    def test_committed_baseline_covers_every_mode(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        baseline = json.loads((root / "BENCH_baseline.json").read_text())
        for mode, (*_rest, regressed) in MODES.items():
            assert set(regressed) <= set(baseline[mode])


def test_table_has_a_row_per_mode():
    assert set(run_bench.BENCH_MODES) == set(MODES)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_equivalence_detail_reaches_stderr(mode, tmp_path, monkeypatch, capsys):
    argv, _floor, fn, _keys, _regressed = MODES[mode]
    lines = [f"mismatch-{i}" for i in range(12)]

    def diverge(*args, **kwargs):
        raise EquivalenceError("diverged", mismatches=lines)

    monkeypatch.setattr(run_bench, fn, diverge)
    assert run_bench.main(argv + ["--output", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert all(line in err for line in lines[:10])
    assert "mismatch-10" not in err
    assert "… and 2 more" in err


def test_timing_divergence_prints_its_lines(tmp_path, monkeypatch, capsys):
    import numpy as np

    from repro.timing import fast

    original = fast._dirty_flags
    monkeypatch.setattr(
        fast,
        "_dirty_flags",
        lambda stores, warmup, n: np.zeros_like(original(stores, warmup, n)),
    )
    argv = MODES["timing"][0]
    assert run_bench.main(argv + ["--output", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "timing fast path diverged" in err
    assert "gcc: event[" in err and "was_dirty diverges" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--campaign", "--timing"],
        ["--timing", "--reliability"],
        ["--trace-format", "columnar", "--campaign"],
        ["--reliability", "--trace-format", "columnar"],
        ["--trace-format", "records", "--timing"],
    ],
)
def test_conflicting_mode_selectors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_bench.main(argv)
    assert info.value.code == 2
    assert "conflicts" in capsys.readouterr().err


def test_repeating_a_selector_is_not_a_conflict():
    parser = run_bench.build_parser()
    assert parser.parse_args(["--timing", "--timing"]).mode == "timing"
    assert parser.parse_args(["--trace-format", "columnar"]).mode == "tracestore"
    assert parser.parse_args([]).mode is None


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "0"],
        ["--mc-samples", "0"],
        ["--scalar-mc-samples", "0"],
        ["--trace-len", "0"],
        ["--timing-refs", "0"],
        ["--repeats", "0"],
        ["--equivalence-len", "-1"],
        ["--trials", "many"],
    ],
)
def test_counts_are_checked_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_bench.main(["--campaign"] + argv)
    assert info.value.code == 2
    assert argv[0] in capsys.readouterr().err


def test_floor_spellings_set_one_floor():
    parser = run_bench.build_parser()
    for mode in run_bench.BENCH_MODES.values():
        assert parser.parse_args([mode.floor_flag, "2.5"]).min_speedup == 2.5


def test_help_comes_from_the_table(capsys):
    with pytest.raises(SystemExit) as info:
        run_bench.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "exit 1" not in out
    for mode in run_bench.BENCH_MODES.values():
        assert f"BENCH_{mode.name}.json" in out
        assert mode.floor_flag in out
