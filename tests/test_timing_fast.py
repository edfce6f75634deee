"""Bit-identity tests for the vectorized Figure-10 timing fast path.

The contract under test is exact: ``collect_run_fast`` must produce
the same event stream (and L1/L2 statistics) as the scalar
``collect_run`` replay, and ``time_events_fast`` must return a
``TimingResult`` equal *field for field, bit for bit* to the scalar
``time_events`` loop — for every scheme, any core width, any store
buffer capacity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, EquivalenceError
from repro.memsim import PAPER_CONFIG, CacheGeometry, HierarchyConfig
from repro.timing import (
    TIMING_POLICIES,
    AccessEvent,
    TimingConfig,
    collect_run,
    time_events,
)
from repro.timing.fast import (
    EventColumns,
    collect_run_fast,
    time_events_fast,
)
from repro.workloads import make_workload

events_strategy = st.lists(
    st.builds(
        AccessEvent,
        st.booleans(),
        st.integers(min_value=0, max_value=9),
        st.booleans(),
        st.sampled_from([0, 0, 0, 1, 2]),
    ),
    min_size=0,
    max_size=120,
)

configs_strategy = st.builds(
    TimingConfig,
    issue_width=st.sampled_from([1, 2, 3, 4, 7]),
    store_buffer_capacity=st.sampled_from([1, 2, 3, 8]),
    miss_overlap=st.sampled_from([0.0, 0.31, 0.4, 0.9]),
)


class TestTimeEventsFast:
    @given(events=events_strategy, config=configs_strategy)
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_for_every_policy(self, events, config):
        for factory in TIMING_POLICIES.values():
            scalar = time_events(events, factory(), config)
            fast = time_events_fast(events, factory(), config)
            assert scalar == fast

    def test_empty_stream(self):
        for factory in TIMING_POLICIES.values():
            assert time_events_fast([], factory()) == time_events([], factory())

    def test_accepts_columns_and_iterables(self):
        events = [
            AccessEvent(True, 4, False, 1),
            AccessEvent(False, 2, True, 0),
            AccessEvent(False, 0, False, 2),
        ]
        columns = EventColumns.from_events(events)
        policy = TIMING_POLICIES["cppc"]()
        assert time_events_fast(columns, policy) == time_events_fast(
            events, policy
        )

    def test_saturating_store_burst(self):
        # Pins the backlog to the cap rail, then drains to the zero
        # rail — both jump paths and the interior stretch in one trace.
        events = (
            [AccessEvent(False, 1, False, 2)] * 10
            + [AccessEvent(True, 8, False, 0)] * 10
            + [AccessEvent(False, 0, True, 1)] * 5
        )
        config = TimingConfig(store_buffer_capacity=1)
        for factory in TIMING_POLICIES.values():
            assert time_events(events, factory(), config) == time_events_fast(
                events, factory(), config
            )


class TestCollectFast:
    @given(
        benchmark=st.sampled_from(["gzip", "gcc", "mcf", "twolf", "swim"]),
        n=st.integers(min_value=1, max_value=220),
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_collector(self, benchmark, n, warmup_fraction, seed):
        records = list(make_workload(benchmark, seed=seed).records(n))
        warmup = int(n * warmup_fraction)
        run = collect_run_fast(
            records, PAPER_CONFIG, warmup=warmup, equivalence="never"
        )
        events, hierarchy = collect_run(records, PAPER_CONFIG, warmup=warmup)
        assert list(run.events) == events
        assert hierarchy.l1d.stats == run.l1
        assert hierarchy.l2.stats == run.l2

    def test_builtin_cross_check_passes(self):
        records = list(make_workload("vpr", seed=1).records(200))
        collect_run_fast(records, PAPER_CONFIG, warmup=50, equivalence="always")

    def test_cross_check_reports_divergence(self, monkeypatch):
        from repro.timing import fast as fast_module

        records = list(make_workload("gzip", seed=2).records(120))
        original = fast_module._dirty_flags
        monkeypatch.setattr(
            fast_module,
            "_dirty_flags",
            lambda stores, warmup, n: np.zeros_like(original(stores, warmup, n)),
        )
        with pytest.raises(EquivalenceError):
            collect_run_fast(records, PAPER_CONFIG, equivalence="always")

    def test_rejects_bad_equivalence_mode(self):
        with pytest.raises(ConfigurationError):
            collect_run_fast([], PAPER_CONFIG, equivalence="sometimes")

    @pytest.mark.parametrize(
        "config",
        [
            HierarchyConfig(
                l2=CacheGeometry(1024 * 1024, 4, 64, unit_bytes=32, latency_cycles=8)
            ),
            HierarchyConfig(
                l1d=CacheGeometry(32 * 1024, 2, 32, unit_bytes=16, latency_cycles=2),
                l2=PAPER_CONFIG.l2,
            ),
        ],
        ids=["l2-64B-block", "l1-16B-unit"],
    )
    def test_refuses_unrunnable_geometry(self, config):
        records = list(make_workload("gcc", seed=0).records(50))
        with pytest.raises(ConfigurationError):
            collect_run_fast(records, config, equivalence="never")

    def test_rejects_out_of_range_warmup(self):
        records = list(make_workload("gzip", seed=0).records(10))
        with pytest.raises(ConfigurationError):
            collect_run_fast(records, PAPER_CONFIG, warmup=11)


class TestEventColumns:
    def test_mismatches_name_the_column(self):
        a = EventColumns.from_events([AccessEvent(True, 4, False, 0)])
        b = EventColumns.from_events([AccessEvent(True, 4, False, 1)])
        report = a.mismatches(b)
        assert report and "miss_level" in report[0]

    def test_rejects_ragged_columns(self):
        with pytest.raises(ConfigurationError):
            EventColumns(
                is_load=np.zeros(2, dtype=bool),
                instructions=np.zeros(3, dtype=np.int64),
                was_dirty=np.zeros(2, dtype=bool),
                miss_level=np.zeros(2, dtype=np.int8),
            )
