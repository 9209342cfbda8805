"""Tests for initial allocation policies (§5.2's uneven-start option)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import split_initial_allocation
from repro.harness import experiment as experiment_module
from repro.harness.experiment import ExperimentConfig, build_experiment, run_experiment
from repro.net.regions import PAPER_REGIONS
from repro.workload.allocation import historic_allocation, proportional_split
from repro.workload.trace import SyntheticAzureTrace, TraceConfig


class TestProportionalSplit:
    def test_exact_proportions(self):
        assert proportional_split(100, [1.0, 1.0, 2.0]) == [25, 25, 50]

    def test_largest_remainder_rounding(self):
        shares = proportional_split(10, [1.0, 1.0, 1.0])
        assert sum(shares) == 10
        assert sorted(shares) == [3, 3, 4]

    def test_zero_weights_fall_back_to_even(self):
        assert proportional_split(9, [0.0, 0.0, 0.0]) == [3, 3, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            proportional_split(-1, [1.0])
        with pytest.raises(ValueError):
            proportional_split(10, [])
        with pytest.raises(ValueError):
            proportional_split(10, [1.0, -1.0])

    @settings(max_examples=200)
    @given(
        maximum=st.integers(0, 100_000),
        weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
    )
    def test_property_sums_exactly_and_nonnegative(self, maximum, weights):
        shares = proportional_split(maximum, weights)
        assert sum(shares) == maximum
        assert all(share >= 0 for share in shares)
        assert len(shares) == len(weights)


class TestSplitInitialAllocation:
    def test_even_split_with_remainder_to_first_sites(self):
        assert split_initial_allocation(10, 3) == [4, 3, 3]
        assert split_initial_allocation(9, 3) == [3, 3, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_initial_allocation(10, 0)
        with pytest.raises(ValueError):
            split_initial_allocation(-1, 3)

    @settings(max_examples=200)
    @given(
        maximum=st.integers(0, 100_000),
        sites=st.integers(1, 50),
    )
    def test_property_conserves_and_balances(self, maximum, sites):
        shares = split_initial_allocation(maximum, sites)
        assert len(shares) == sites
        assert sum(shares) == maximum
        assert all(share >= 0 for share in shares)
        # No site is ever more than one token ahead of another.
        assert max(shares) - min(shares) <= 1


class TestHistoricAllocation:
    def test_sums_to_maximum(self):
        trace = SyntheticAzureTrace(TraceConfig(days=4.0))
        shares = historic_allocation(trace, list(PAPER_REGIONS), 5000, end_interval=96)
        assert sum(shares) == 5000
        assert len(shares) == 5

    def test_uneven_when_window_is_sub_daily(self):
        trace = SyntheticAzureTrace(TraceConfig(days=4.0))
        shares = historic_allocation(
            trace, list(PAPER_REGIONS), 5000, window_intervals=72, end_interval=96
        )
        assert max(shares) - min(shares) > 200  # phases differ materially

    def test_full_day_window_degenerates_toward_even(self):
        trace = SyntheticAzureTrace(TraceConfig(days=8.0))
        shares = historic_allocation(
            trace, list(PAPER_REGIONS), 5000, window_intervals=288 * 7,
            end_interval=288 * 7,
        )
        assert max(shares) - min(shares) < 300

    def test_invalid_window(self):
        trace = SyntheticAzureTrace(TraceConfig(days=2.0))
        with pytest.raises(ValueError):
            historic_allocation(trace, list(PAPER_REGIONS), 100, window_intervals=0)


class TestHarnessIntegration:
    @pytest.fixture(autouse=True)
    def window_from_interval_48(self, monkeypatch):
        monkeypatch.setattr(experiment_module, "START_INTERVAL", 48)
        monkeypatch.setattr(experiment_module, "INVARIANT_INTERVAL", 5.0)

    def test_historic_allocation_builds_and_conserves(self):
        config = ExperimentConfig(
            duration=20.0, seed=2, trace=TraceConfig(days=2.0),
            initial_allocation="historic",
        )
        experiment = build_experiment(config)
        balances = [site.state.tokens_left for site in experiment.cluster.sites]
        assert sum(balances) == config.maximum
        assert max(balances) != min(balances)  # genuinely uneven
        result = experiment.run()
        assert result.committed > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(initial_allocation="astrology")

    def test_historic_with_replicas(self):
        config = ExperimentConfig(
            duration=10.0, seed=2, trace=TraceConfig(days=2.0),
            initial_allocation="historic", sites_per_region=2,
        )
        experiment = build_experiment(config)
        assert sum(s.state.tokens_left for s in experiment.cluster.sites) == config.maximum
