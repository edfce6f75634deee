"""The shared equivalence policy and the self-formatting EquivalenceError."""

import pickle

import pytest

from repro import equivalence
from repro.errors import ConfigurationError, EquivalenceError
from repro.faults import CampaignConfig, FaultCampaign
from repro.faults.schemes import scheme_factory
from repro.timing.fast import collect_run_fast
from repro.workloads import FastReplay


class TestEquivalenceError:
    def test_shows_ten_mismatches_and_counts_the_rest(self):
        lines = [f"mismatch {i}" for i in range(12)]
        text = str(EquivalenceError("x", mismatches=lines))
        assert text.startswith("x:\n")
        for line in lines[:10]:
            assert f"\n  {line}" in text
        assert "mismatch 10" not in text and "mismatch 11" not in text
        assert text.endswith("\n  … and 2 more")

    def test_short_lists_are_shown_whole(self):
        text = str(EquivalenceError("x", mismatches=["a", "b"]))
        assert text == "x:\n  a\n  b"

    def test_message_alone_without_mismatches(self):
        err = EquivalenceError("diverged")
        assert str(err) == "diverged"
        assert err.mismatches == []

    def test_pickle_round_trip(self):
        err = EquivalenceError("x", mismatches=[str(i) for i in range(11)])
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert clone.mismatches == err.mismatches


class TestPolicy:
    def test_modes(self):
        assert equivalence.MODES == ("auto", "always", "never")
        assert set(equivalence.EXPLICIT_MODES) == {"always", "never"}

    @pytest.mark.parametrize(
        "mode, references, expected",
        [
            ("always", 10**9, True),
            ("never", 1, False),
            ("auto", equivalence.AUTO_LIMIT, True),
            ("auto", equivalence.AUTO_LIMIT + 1, False),
        ],
    )
    def test_should_check(self, mode, references, expected):
        assert equivalence.should_check(mode, references) is expected

    def test_validate(self):
        assert equivalence.validate("auto") == "auto"
        with pytest.raises(ConfigurationError, match="sometimes"):
            equivalence.validate("sometimes")
        with pytest.raises(ConfigurationError):
            equivalence.validate("auto", equivalence.EXPLICIT_MODES)
        with pytest.raises(ConfigurationError):
            equivalence.validate("auto", limit=-1)

    def test_raise_on(self):
        equivalence.raise_on([], "quiet")
        with pytest.raises(EquivalenceError) as info:
            equivalence.raise_on(["a"], "loud")
        assert info.value.mismatches == ["a"]

    def test_every_engine_validates_through_the_policy(self):
        with pytest.raises(ConfigurationError):
            FastReplay(equivalence="sometimes")
        with pytest.raises(ConfigurationError):
            FastReplay(equivalence_limit=-1)
        with pytest.raises(ConfigurationError):
            collect_run_fast([], equivalence="sometimes")
        config = CampaignConfig(
            scheme_factory=scheme_factory("cppc"), trials=1, shared_warmup=True
        )
        with pytest.raises(ConfigurationError, match="fast_equivalence"):
            FaultCampaign(config, fast=True, fast_equivalence="auto")
        FaultCampaign(config, fast=True, fast_equivalence="always")

    def test_run_campaign_keeps_its_choices(self):
        from repro.tools.run_campaign import build_parser

        parser = build_parser()
        action = next(
            a for a in parser._actions if "--fast-equivalence" in a.option_strings
        )
        assert set(action.choices) == {"never", "always"}
