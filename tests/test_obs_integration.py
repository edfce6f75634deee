"""Integration tests: observability wired through replay, campaigns, stats."""

import dataclasses

from repro.faults import CampaignConfig, FaultCampaign, scheme_factory
from repro.memsim.batch import BatchTrace
from repro.obs import JsonlSink, MetricsRegistry, NullSink, read_jsonl_trace
from repro.runtime import CheckpointStore
from repro.workloads import make_workload, materialize
from repro.workloads.replay import FastReplay

from conftest import make_cppc_cache


def _trace(n=600, benchmark="gcc", seed=3):
    return materialize(make_workload(benchmark, seed=seed).records(n))


class TestResetStatsWindow:
    def test_window_restarts_from_last_advanced_cycle(self):
        """Drivers close a measurement window with ``stats.advance_to``;
        ``reset_stats`` must restart from there, not from the internal
        access counter, or the next window inherits phantom cycles."""
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x11" * 8, cycle=10.0)
        cache.stats.advance_to(100.0)
        cache.reset_stats()
        assert cache.stats.observed_cycles == 0.0
        cache.store(64, b"\x22" * 8, cycle=110.0)
        assert cache.stats.observed_cycles == 10.0
        # One unit was dirty across the whole 10-cycle window.
        expected = 10.0 / (10.0 * cache.total_units)
        assert cache.stats.dirty_fraction == expected

    def test_post_warmup_dirty_fraction_under_explicit_cycles(self):
        """The run_benchmark warmup pattern: replay with explicit cycles,
        reset, keep replaying — the measured window must cover exactly
        the post-reset cycles."""
        cache, _ = make_cppc_cache()
        for i in range(8):
            cache.store(i * 8, bytes([i]) * 8, cycle=float(10 * (i + 1)))
        cache.stats.advance_to(200.0)
        dirty_at_reset = cache.dirty_unit_count()
        cache.reset_stats()
        for i in range(4):
            cache.load(i * 8, 8, cycle=float(210 + 10 * i))
        assert cache.stats.observed_cycles == 40.0
        # No stores in the window, so the dirty population is static.
        assert cache.stats.dirty_time_integral == dirty_at_reset * 40.0
        assert 0.0 < cache.stats.dirty_fraction <= 1.0


class TestSnapshotRoundTrip:
    def test_snapshot_includes_the_full_accounting(self):
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x11" * 8)
        cache.load(0, 8)
        snap = cache.stats.snapshot()
        for key in (
            "loads",
            "stores",
            "accesses",
            "dirty_interval_count",
            "dirty_interval_histogram",
        ):
            assert key in snap

    def test_snapshot_survives_checkpoint_store(self, tmp_path):
        cache, _ = make_cppc_cache()
        for i in range(32):
            cache.store(i * 8, bytes([i]) * 8, cycle=float(i * 3 + 1))
            cache.load((i // 2) * 8, 8, cycle=float(i * 3 + 2))
        snap = cache.stats.snapshot()
        store = CheckpointStore(tmp_path / "ckpt", config_digest="b" * 64, resume=False)
        store.record(0, 42, "result", snap)
        store.close()
        reloaded = CheckpointStore(
            tmp_path / "ckpt", config_digest="b" * 64, resume=True
        ).load()
        assert reloaded[0].payload == snap

    def test_export_metrics_matches_snapshot(self):
        cache, _ = make_cppc_cache()
        for i in range(16):
            cache.store(i * 8, bytes([i]) * 8, cycle=float(i * 5 + 1))
            cache.load(i * 8, 8, cycle=float(i * 5 + 3))
        registry = MetricsRegistry()
        cache.stats.export_metrics(registry, prefix="l1.")
        snap = cache.stats.snapshot()
        out = registry.snapshot()
        assert out["counters"]["l1.read_hits"] == snap["read_hits"]
        assert out["gauges"]["l1.dirty_fraction"] == snap["dirty_fraction"]
        assert out["histograms"]["l1.dirty_interval_cycles"] == [
            list(pair) for pair in snap["dirty_interval_histogram"]
        ]


class TestFastReplayWithSink:
    def test_emission_does_not_perturb_equivalence(self, tmp_path):
        records = _trace(800)
        with JsonlSink(tmp_path / "trace.jsonl") as sink:
            result = FastReplay(equivalence="always", obs=sink).run(records)
        assert result.checked
        baseline = FastReplay(equivalence="never").run(records)
        assert result.stats.snapshot() == baseline.stats.snapshot()

    def test_chunk_spans_cover_every_set(self, tmp_path):
        records = _trace(800)
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            FastReplay(equivalence="never", obs=sink).run(records)
        spans = [
            e
            for e in read_jsonl_trace(path, category="batch")
            if e["name"].startswith("resolve-sets")
        ]
        engine = FastReplay(equivalence="never").engine
        assert len(spans) == min(engine.OBS_CHUNKS, engine.num_sets)
        covered = sum(span["args"]["sets"] for span in spans)
        assert covered == engine.num_sets
        refs = sum(span["args"]["references"] for span in spans)
        assert refs == len(records)

    def test_disabled_sink_keeps_single_chunk(self):
        engine = FastReplay(equivalence="never").engine
        engine.obs = NullSink()
        result = engine.replay(BatchTrace.from_records(_trace(400)))
        assert result.references == 400


class TestCampaignWithSink:
    def _config(self, trials=3):
        return CampaignConfig(
            scheme_factory=scheme_factory("cppc"),
            benchmark="gzip",
            trials=trials,
            warmup_references=300,
            post_fault_references=200,
            dirty_only=True,
            seed=5,
        )

    def test_outcomes_unchanged_and_events_streamed(self, tmp_path):
        config = self._config()
        baseline = FaultCampaign(config).run()
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            traced = FaultCampaign(config, obs=sink).run()
        assert [dataclasses.asdict(t) for t in traced.trials] == [
            dataclasses.asdict(t) for t in baseline.trials
        ]
        events = list(read_jsonl_trace(path))
        trial_spans = [
            e
            for e in events
            if e["cat"] == "campaign" and e["name"].startswith("trial[")
        ]
        assert len(trial_spans) == config.trials
        assert {e["args"]["outcome"] for e in trial_spans} == {
            t.outcome.value for t in baseline.trials
        }
        assert any(e["cat"] == "campaign" and e["name"] == "inject" for e in events)
        assert any(e["cat"] == "cache" for e in events)

    def test_campaign_metrics_export(self):
        result = FaultCampaign(self._config()).run()
        registry = MetricsRegistry()
        result.export_metrics(registry)
        snap = registry.snapshot()
        assert snap["counters"]["campaign.completed"] == result.completed
        total = sum(
            snap["counters"][f"campaign.{o}"]
            for o in ("benign", "corrected", "due", "sdc")
        )
        assert total == result.completed


class TestExperimentStageSpans:
    def test_benchmark_spans_nest_generate_and_collect(self, tmp_path, capsys):
        from repro.tools import run_experiment

        path = tmp_path / "trace.jsonl"
        argv = ["fig10", "-n", "400", "--benchmarks", "gzip", "mcf"]
        assert run_experiment.main([*argv, "--trace-out", str(path)]) == 0
        spans = list(read_jsonl_trace(path, category="experiment"))
        eps = 1e-6
        for name in ("gzip", "mcf"):
            (parent,) = [s for s in spans if s["name"] == f"benchmark[{name}]"]
            stages = {s["name"]: s for s in spans if s["args"].get("benchmark") == name}
            assert set(stages) == {"generate", "collect"}
            generate, collect = stages["generate"], stages["collect"]
            # 400 measured references plus the 25% warmup prefix.
            assert generate["args"]["references"] == 500
            assert parent["ts"] <= generate["ts"]
            assert generate["ts"] + generate["dur"] <= collect["ts"] + eps
            assert collect["ts"] + collect["dur"] <= parent["ts"] + parent["dur"] + eps
