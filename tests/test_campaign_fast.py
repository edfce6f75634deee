"""Snapshot-fork fast path vs. the legacy warm-every-trial loop.

The fast path's contract is *bit-identity*: for the same shared-warmup
config and seeds it must produce exactly the per-trial
:class:`TrialResult` sequence (and therefore the same outcome tallies)
as the legacy loop.  These tests enforce that over randomized
scheme/benchmark/seed combinations, exercise both warm engines (batch
for CPPC, scalar for everything else), and pin down the warm-state
cache and configuration guard rails.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    Outcome,
    build_warm_state,
    clear_warm_cache,
    scheme_factory,
    warm_state_for,
)
from repro.faults import warmstate as warmstate_mod
from repro.memsim.types import AccessType
from repro.workloads import GoldenMemory, make_workload


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_cache()
    yield
    clear_warm_cache()


def shared_config(**overrides):
    params = dict(
        scheme_factory=scheme_factory("cppc"),
        benchmark="gcc",
        trials=6,
        warmup_references=600,
        post_fault_references=350,
        seed=0,
        shared_warmup=True,
    )
    params.update(overrides)
    return CampaignConfig(**params)


def run_both(config):
    legacy = FaultCampaign(config).run()
    clear_warm_cache()
    fast = FaultCampaign(config, fast=True).run()
    return legacy, fast


def assert_identical(legacy, fast):
    assert [vars(t) for t in fast.trials] == [vars(t) for t in legacy.trials]
    assert {o: fast.counts[o] for o in Outcome} == {
        o: legacy.counts[o] for o in Outcome
    }


class TestBitIdentity:
    @pytest.mark.parametrize(
        "scheme,bench,seed",
        [
            ("cppc", "gcc", 0),
            ("cppc", "mcf", 17),
            ("cppc", "gzip", 4),
            ("secded", "gcc", 0),
            ("secded", "swim", 9),
            ("parity", "gzip", 23),
            ("none", "gcc", 5),
        ],
    )
    def test_fast_matches_legacy(self, scheme, bench, seed):
        config = shared_config(
            scheme_factory=scheme_factory(scheme),
            benchmark=bench,
            seed=seed,
        )
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_spatial_faults_match(self):
        config = shared_config(fault_kind="spatial", spatial_shape=(4, 4))
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_dirty_only_matches(self):
        config = shared_config(dirty_only=True, seed=3)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_l2_target_matches(self):
        config = shared_config(target_level="L2", seed=1)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_zero_warmup_matches(self):
        config = shared_config(warmup_references=0, trials=4)
        state = build_warm_state(config)
        assert state.warm_engine == "pristine"
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_equivalence_always_passes_and_returns_fast_results(self):
        config = shared_config(trials=4)
        campaign = FaultCampaign(config, fast=True, fast_equivalence="always")
        result = campaign.run()
        legacy = FaultCampaign(config).run()
        assert_identical(legacy, result)


class TestWarmEngines:
    def test_cppc_uses_batch_engine(self):
        state = build_warm_state(shared_config())
        assert state.warm_engine == "batch"

    def test_secded_falls_back_to_scalar(self):
        state = build_warm_state(shared_config(scheme_factory=scheme_factory("secded")))
        assert state.warm_engine == "scalar"

    def test_batch_and_scalar_warm_agree(self, monkeypatch):
        config = shared_config(warmup_references=900)
        batch_state = build_warm_state(config)
        assert batch_state.warm_engine == "batch"
        monkeypatch.setattr(warmstate_mod, "_batch_compatible", lambda l1: False)
        scalar_state = build_warm_state(config)
        assert scalar_state.warm_engine == "scalar"
        assert scalar_state.snapshot == batch_state.snapshot
        assert scalar_state.golden_image == batch_state.golden_image
        assert scalar_state.start_cycle == batch_state.start_cycle

    def test_golden_image_matches_store_by_store_replay(self):
        trace = make_workload("vortex", seed=2).trace(3000)
        golden = GoldenMemory()
        for record in trace.to_records():
            if record.op is AccessType.STORE:
                golden.store(record.addr, record.value)
        image = warmstate_mod._golden_image(trace)
        # Dict order matters too: it fixes the order of SDC details.
        assert list(image.items()) == list(golden.snapshot().items())


class TestGuards:
    def test_fast_requires_shared_warmup(self):
        config = shared_config(shared_warmup=False)
        with pytest.raises(ConfigurationError):
            FaultCampaign(config, fast=True)

    def test_bad_equivalence_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign(shared_config(), fast=True, fast_equivalence="sometimes")

    def test_shared_warmup_changes_workload_seed(self):
        config = shared_config()
        assert config.workload_seed(0) == config.workload_seed(5)
        plain = shared_config(shared_warmup=False)
        assert plain.workload_seed(0) != plain.workload_seed(5)


class TestWarmCache:
    def test_warm_state_is_memoized(self):
        config = shared_config()
        cache = warmstate_mod.warm_cache()
        before = cache.hits
        first = warm_state_for(config)
        assert warm_state_for(config) is first
        assert cache.hits == before + 1

    def test_distinct_configs_get_distinct_states(self):
        a = warm_state_for(shared_config())
        b = warm_state_for(shared_config(benchmark="gzip"))
        assert a is not b
        assert a.key != b.key

    def test_trial_count_does_not_affect_warm_key(self):
        a = warm_state_for(shared_config(trials=4))
        b = warm_state_for(shared_config(trials=9))
        assert a.key == b.key
        assert b is a

    def test_size_accounting(self):
        state = warm_state_for(shared_config())
        assert state.size_bytes > 0
        assert warmstate_mod.warm_cache().total_bytes >= state.size_bytes
