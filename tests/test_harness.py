"""Tests for the experiment harness (one runner per paper table/figure)."""

import pytest

from repro.equivalence import AUTO_LIMIT
from repro.errors import ConfigurationError
from repro.harness import (
    PAPER_TABLE2_L1,
    PAPER_TABLE2_L2,
    BenchmarkRun,
    figure10,
    figure11,
    figure12,
    format_table,
    format_value,
    run_all_benchmarks,
    run_benchmark,
    table2,
    table3,
)
from repro.harness.experiments import FIG10_SCHEMES, Figure10Result
from repro.memsim import PAPER_CONFIG, CacheGeometry, HierarchyConfig
from repro.timing import EventColumns, collect_run, time_events, timing_policy
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def small_runs():
    """Shared small simulations for three representative benchmarks."""
    return run_all_benchmarks(
        n_references=4000, benchmarks=["gzip", "mcf", "eon"]
    )


class TestRunBenchmark:
    def test_shape(self):
        run = run_benchmark("gzip", n_references=1500)
        assert run.name == "gzip"
        assert len(run.events) == 1500
        assert run.l1.accesses == 1500
        assert run.units_per_block == 4

    def test_warmup_excluded_from_stats(self):
        run = run_benchmark("gzip", n_references=1000, warmup_fraction=0.5)
        assert run.l1.accesses == 1000  # only the measured window

    def test_deterministic(self):
        a = run_benchmark("vpr", n_references=800)
        b = run_benchmark("vpr", n_references=800)
        assert a.l1.snapshot() == b.l1.snapshot()

    def test_sequence_records_not_replayed_twice(self, monkeypatch):
        # Regression: a workload whose records() hands back a list (not
        # a generator) must not feed the warmup prefix into the measured
        # window a second time.
        from repro.harness import experiments

        real = experiments.make_workload

        def listy(name, seed=0):
            workload = real(name, seed=seed)
            records = workload.records

            def as_list(n):
                return list(records(n))

            workload.records = as_list
            return workload

        monkeypatch.setattr(experiments, "make_workload", listy)
        run = run_benchmark("gzip", n_references=600, warmup_fraction=0.5)
        reference = run_benchmark("gzip", n_references=600, warmup_fraction=0.5)
        assert run.l1.accesses == 600
        assert list(run.events) == list(reference.events)

    def test_fast_path_is_bit_identical(self):
        # The batch engine is the only production engine; the scalar
        # collector is its oracle on the very same records.
        assert_matches_oracle(
            run_benchmark("gcc", n_references=900, warmup_fraction=0.25)
        )

    def test_run_all_benchmarks_fast(self):
        names = ["gzip", "mcf"]
        runs = run_all_benchmarks(n_references=700, benchmarks=names)
        assert [run.name for run in runs] == names
        for run in runs:
            assert_matches_oracle(run)

    def test_refuses_geometry_the_batch_engine_cannot_serve(self):
        # A 16-byte L1 protection unit is outside the batch engine's
        # 64-bit precondition: refused, never a silent scalar fallback.
        config = HierarchyConfig(
            l1d=CacheGeometry(32 * 1024, 2, 32, unit_bytes=16, latency_cycles=2),
            l2=PAPER_CONFIG.l2,
        )
        with pytest.raises(ConfigurationError):
            run_benchmark("gzip", n_references=100, config=config)


def oracle_run(name, n_references):
    """``run_benchmark``'s product, built by the scalar collector alone."""
    warmup = int(n_references * 0.25)
    records = make_workload(name).records(n_references + warmup)
    events, hierarchy = collect_run(records, PAPER_CONFIG, warmup=warmup)
    return BenchmarkRun(
        name=name,
        references=n_references,
        l1=hierarchy.l1d.stats,
        l2=hierarchy.l2.stats,
        events=EventColumns.from_events(events),
        units_per_block=hierarchy.l1d.units_per_block,
    )


def assert_matches_oracle(run):
    oracle = oracle_run(run.name, run.references)
    assert list(run.events) == list(oracle.events)
    assert run.l1 == oracle.l1
    assert run.l2 == oracle.l2
    assert run.units_per_block == oracle.units_per_block


def test_paper_tables_match_scalar_oracle():
    # 2400 measured + 600 warmup references per benchmark: above the
    # equivalence auto limit, so the engine's own cross-check is off and
    # cannot mask a divergence here.
    names = ["gzip", "mcf", "eon"]
    n_references = 2400
    assert n_references + n_references // 4 > AUTO_LIMIT
    production = run_all_benchmarks(n_references=n_references, benchmarks=names)
    oracle = [oracle_run(name, n_references) for name in names]
    for render in (figure10, figure11, figure12, table2):
        assert render(oracle).to_text() == render(production).to_text()
    # Scalar collection *and* scalar pricing against the production path.
    scalar_fig10 = Figure10Result(
        per_benchmark={
            run.name: {
                scheme: time_events(
                    run.events,
                    timing_policy(scheme),
                    units_per_block=run.units_per_block,
                ).cpi
                for scheme in FIG10_SCHEMES
            }
            for run in oracle
        }
    )
    assert scalar_fig10.to_text() == figure10(production).to_text()


class TestFigure10(object):
    def test_parity_baseline_normalises_to_one(self, small_runs):
        result = figure10(small_runs)
        for bench in result.per_benchmark:
            assert result.normalized("parity", bench) == pytest.approx(1.0)

    def test_overheads_ordered(self, small_runs):
        result = figure10(small_runs)
        for bench in result.per_benchmark:
            assert (
                result.normalized("cppc", bench)
                <= result.normalized("2d-parity", bench) + 1e-9
            )

    def test_cppc_overhead_small(self, small_runs):
        """The headline claim: CPPC's CPI overhead is well under 1%."""
        result = figure10(small_runs)
        assert result.average_overhead("cppc") < 0.01

    def test_to_text_renders(self, small_runs):
        text = figure10(small_runs).to_text()
        assert "Figure 10" in text and "gzip" in text and "average" in text

    def test_renderers_follow_fig10_schemes(self, small_runs):
        # Regression: to_text/to_chart used to hard-code the scheme
        # list; they must track FIG10_SCHEMES instead.
        from repro.harness.experiments import FIG10_SCHEMES

        result = figure10(small_runs)
        text = result.to_text()
        chart = result.to_chart()
        for scheme in FIG10_SCHEMES:
            if scheme == "parity":
                continue  # the baseline is implicit in both renderings
            assert scheme in text
            assert scheme in chart


class TestFigures11And12:
    def test_l1_energy_ordering(self, small_runs):
        result = figure11(small_runs)
        assert 1.0 < result.average("cppc") < result.average("2d-parity")
        assert result.average("secded") == pytest.approx(1.42, abs=0.05)

    def test_l2_cppc_cheaper_than_l1_cppc(self, small_runs):
        """The paper's key observation: CPPC is relatively cheaper at L2
        (fewer read-before-writes per access)."""
        l1 = figure11(small_runs)
        l2 = figure12(small_runs)
        assert l2.average("cppc") < l1.average("cppc")

    def test_every_benchmark_present(self, small_runs):
        result = figure12(small_runs)
        assert set(result.per_benchmark) == {"gzip", "mcf", "eon"}

    def test_to_text_renders(self, small_runs):
        assert "Figure 12" in figure12(small_runs).to_text()


class TestTable2:
    def test_metrics_in_range(self, small_runs):
        result = table2(small_runs)
        for row in result.per_benchmark.values():
            assert 0 <= row["l1_dirty_fraction"] <= 1
            assert 0 <= row["l2_dirty_fraction"] <= 1
            assert row["l1_tavg_cycles"] >= 0

    def test_reliability_inputs_bridge(self, small_runs):
        result = table2(small_runs)
        inputs = result.reliability_inputs("L1")
        assert inputs.size_bits == 32 * 1024 * 8
        assert inputs.dirty_fraction == pytest.approx(
            result.average("l1_dirty_fraction")
        )

    def test_to_text_renders(self, small_runs):
        assert "Table 2" in table2(small_runs).to_text()


class TestTable3:
    def test_default_uses_paper_inputs(self):
        result = table3()
        assert result.mttf_years["one-dimensional parity"]["L1"] > 1e3
        assert result.mttf_years["cppc"]["L2"] > 1e15
        assert result.mttf_years["secded"]["L1"] > result.mttf_years["cppc"]["L1"]

    def test_paper_input_constants(self):
        assert PAPER_TABLE2_L1.dirty_fraction == 0.16
        assert PAPER_TABLE2_L2.tavg_cycles == 378997

    def test_to_text_renders(self):
        text = table3().to_text()
        assert "Table 3" in text and "aliasing" in text


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.500"
        assert format_value(8.02e21) == "8.02e+21"
        assert format_value(float("inf")) == "inf"
        assert format_value("name") == "name"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n=")


class TestCharts:
    def test_figure10_chart_renders(self, small_runs):
        chart = figure10(small_runs).to_chart()
        assert "Figure 10" in chart and "legend:" in chart

    def test_energy_chart_renders(self, small_runs):
        chart = figure11(small_runs).to_chart()
        assert "Figure 11" in chart
        assert "cppc" in chart and "secded" in chart


class TestScorecard:
    def test_scorecard_from_shared_runs(self, small_runs):
        from repro.harness import scorecard

        card = scorecard(small_runs)
        assert len(card.claims) >= 15
        assert card.pass_count >= len(card.claims) - 3
        # The analytical Table 3 claims are scale-independent: all pass.
        for claim in card.claims:
            if claim.section == "Table 3":
                assert claim.passed, claim.statement

    def test_scorecard_rendering(self, small_runs):
        from repro.harness import scorecard

        text = scorecard(small_runs).to_text()
        assert "scorecard" in text
        assert "PASS" in text
        assert "claims hold" in text
