"""Tests for the synthetic trace and the workload pipeline (§5.1)."""

import hashlib
import random

import numpy as np
import pytest

from repro.core.requests import RequestKind
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.net.regions import PAPER_REGIONS, Region
from repro.workload.phase_shift import phase_shift_intervals, shifted_trace
from repro.workload.readwrite import mix_reads
from repro.workload.requests import (
    demand_per_compressed_interval,
    operations_from_trace,
    regional_operations,
)
from repro.workload import trace as trace_module
from repro.workload.trace import SyntheticAzureTrace, TraceConfig


def small_trace(**overrides):
    defaults = dict(days=4.0, seed=7)
    defaults.update(overrides)
    return SyntheticAzureTrace(TraceConfig(**defaults))


class TestTraceGenerator:
    def test_deterministic_for_seed(self):
        a = small_trace()
        b = small_trace()
        assert np.array_equal(a.creations, b.creations)
        assert np.array_equal(a.deletions, b.deletions)

    def test_different_seed_differs(self):
        assert not np.array_equal(small_trace().creations, small_trace(seed=8).creations)

    def test_lengths_match_config(self):
        trace = small_trace()
        assert len(trace.creations) == trace.config.num_intervals
        assert trace.config.num_intervals == 4 * 288

    def test_counts_are_non_negative_integers(self):
        trace = small_trace()
        assert trace.creations.min() >= 0
        assert trace.deletions.min() >= 0

    def test_outstanding_is_cumsum_consistent(self):
        trace = small_trace()
        alive = np.cumsum(trace.creations) - np.cumsum(trace.deletions)
        assert np.array_equal(alive, trace.outstanding)
        assert trace.outstanding.min() >= 0

    def test_strong_daily_periodicity(self):
        trace = SyntheticAzureTrace(TraceConfig(days=14.0))
        assert trace.autocorrelation(288) > 0.7

    def test_weekend_demand_is_lower(self, monkeypatch):
        monkeypatch.setattr(trace_module, "WEEKEND_FACTOR", 0.5)
        trace = SyntheticAzureTrace(TraceConfig(days=14.0))
        per_day = trace.config.intervals_per_day
        day_of_week = (np.arange(len(trace.creations)) // per_day) % 7
        weekday = trace.creations[day_of_week < 5].mean()
        weekend = trace.creations[day_of_week >= 5].mean()
        assert weekend < 0.75 * weekday

    def test_peaks_exceed_mean_substantially(self):
        stats = small_trace().demand_stats()
        assert stats["max"] > 2.0 * stats["mean"]

    def test_autocorrelation_bad_lag(self):
        with pytest.raises(ValueError):
            small_trace().autocorrelation(0)


class TestPhaseShift:
    def test_shift_in_intervals(self):
        assert phase_shift_intervals(Region.ASIA_EAST2, Region.EUROPE_WEST2, 300.0) == 96
        assert phase_shift_intervals(Region.US_WEST1, Region.EUROPE_WEST2, 300.0) == -96

    def test_base_region_unshifted(self):
        trace = small_trace()
        creations = shifted_trace(trace, Region.US_WEST1, Region.US_WEST1)
        assert np.array_equal(creations, trace.creations)

    def test_shift_preserves_totals(self):
        trace = small_trace()
        creations = shifted_trace(trace, Region.ASIA_EAST2)
        assert creations.sum() == trace.creations.sum()
        shift = phase_shift_intervals(Region.ASIA_EAST2, Region.US_WEST1, 300.0)
        assert np.array_equal(creations, np.roll(trace.creations, -shift))
        # The death series is not shifted; it still balances the unshifted
        # creations interval by interval.
        assert trace.deletions.sum() == trace.creations.sum() - trace.outstanding[-1]

    def test_regions_peak_at_different_times(self):
        trace = SyntheticAzureTrace(TraceConfig(days=7.0))
        peaks = {}
        for region in (Region.US_WEST1, Region.ASIA_EAST2):
            creations = shifted_trace(trace, region)
            day = creations[:288]
            peaks[region] = int(np.argmax(day))
        assert peaks[Region.US_WEST1] != peaks[Region.ASIA_EAST2]


class TestOperations:
    def test_operations_sorted_by_time(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 60.0, random.Random(1), lifetime_intervals=6.0
        )
        times = [op.time for op in ops]
        assert times == sorted(times)

    def test_every_release_is_preceded_by_capacity(self):
        """Replaying the stream never releases more than was acquired."""
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 120.0, random.Random(1), lifetime_intervals=3.0
        )
        outstanding = 0
        for op in ops:
            if op.kind is RequestKind.ACQUIRE:
                outstanding += op.amount
            else:
                outstanding -= op.amount
                assert outstanding >= 0

    def test_acquire_counts_match_trace_window(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 50.0, random.Random(1), lifetime_intervals=6.0
        )
        acquires = sum(1 for op in ops if op.kind is RequestKind.ACQUIRE)
        assert acquires == int(trace.creations[:10].sum())

    def test_compression_packs_interval_into_window(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 2.0, 2.0, random.Random(1), lifetime_intervals=6.0,
            start_interval=12,
        )
        acquires = [op for op in ops if op.kind is RequestKind.ACQUIRE]
        assert len(acquires) == int(trace.creations[12])
        assert all(0.0 <= op.time < 2.0 for op in acquires)

    def test_invalid_parameters(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            operations_from_trace(trace.creations, 0.0, 10.0, random.Random(1))
        with pytest.raises(ValueError):
            operations_from_trace(
                trace.creations, 5.0, 10.0, random.Random(1), lifetime_intervals=0.0
            )

    def test_regional_operations_cover_all_regions(self):
        trace = small_trace()
        per_region = regional_operations(trace, list(PAPER_REGIONS), duration=30.0)
        assert set(per_region) == set(PAPER_REGIONS)
        assert all(ops for ops in per_region.values())

    def test_demand_scale_thins_the_stream(self):
        trace = small_trace()
        full = regional_operations(trace, [Region.US_WEST1], duration=60.0)
        half = regional_operations(
            trace, [Region.US_WEST1], duration=60.0, demand_scale=0.5
        )
        assert len(half[Region.US_WEST1]) < 0.7 * len(full[Region.US_WEST1])

    def test_demand_series_matches_shifted_creations(self):
        trace = small_trace()
        series = demand_per_compressed_interval(trace, Region.ASIA_EAST2)
        creations = shifted_trace(trace, Region.ASIA_EAST2)
        assert np.array_equal(series, creations)


class TestReadMixing:
    def test_ratio_zero_is_identity(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 30.0, random.Random(1), lifetime_intervals=6.0
        )
        assert mix_reads(ops, 0.0, random.Random(2)) == ops

    def test_ratio_replaces_expected_fraction(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 120.0, random.Random(1), lifetime_intervals=6.0
        )
        mixed = mix_reads(ops, 0.5, random.Random(2))
        reads = sum(1 for op in mixed if op.kind is RequestKind.READ)
        assert 0.4 < reads / len(mixed) < 0.6
        assert len(mixed) == len(ops)

    def test_ratio_one_is_all_reads(self):
        trace = small_trace()
        ops = operations_from_trace(
            trace.creations, 5.0, 30.0, random.Random(1), lifetime_intervals=6.0
        )
        mixed = mix_reads(ops, 1.0, random.Random(2))
        assert all(op.kind is RequestKind.READ for op in mixed)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            mix_reads([], 1.5, random.Random(1))


# Recorded at the commit before the demand input was made lazy: the
# operation lists every Experiment replays, and the trace's three
# columns, must stay bit-identical whatever the build path costs.
PINNED_CONFIGS = {
    "sim_paper": dict(duration=120.0, seed=3),
    "sim_nemesis": dict(duration=60.0, seed=7),
    "live_tcp": dict(duration=2.0, seed=3, demand_scale=2.0),
    "reads": dict(duration=30.0, seed=5, read_ratio=0.3),
    "thinned": dict(duration=40.0, seed=9, demand_scale=0.37),
}

PINNED_OPERATION_DIGESTS = {
    "sim_paper": "0d9a03c28cd25d916f271bb4b6068ee9f0273955f7a44834245102cc058179be",
    "sim_nemesis": "330734f5f8c4861b1fb99366f27488b2d1981b5def4f46f3ae48af758b30046c",
    "live_tcp": "702246f1e9c4692988096b887f2066895535510da45570834d4528e6cc0f4329",
    "reads": "334808d5e29b339901bc16eb1c772f91434586827f819cd199c5689c314f09b0",
    "thinned": "30f90392a66da9b5510bc7c80da01c537056478792ac5b218669b304383fa941",
}

PINNED_TRACE_DIGESTS = {
    "creations": "5655b2b1440d8b4dd9104c52192e47f25a45f1d89f5be3f620eb05e5f9b1dd6c",
    "deletions": "4a42f3e0fd803d47ea9d083a323f3dd178ffc12b5ce19ffa870a77d55eb30548",
    "outstanding": "33c35ce15deb2726ef56ea74dcf135d7b4971a331cf4f871a08ee534ba093552",
}


def _operations_digest(experiment) -> str:
    digest = hashlib.sha256()
    for client in experiment.clients:
        digest.update(client.region.value.encode())
        for op in client._operations:
            digest.update(repr((op.time, op.kind.value, op.amount)).encode())
    return digest.hexdigest()


class TestPinnedDemandInput:
    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_operation_lists_are_pinned(self, name):
        experiment = Experiment(
            ExperimentConfig(system="samya-majority", **PINNED_CONFIGS[name])
        )
        assert _operations_digest(experiment) == PINNED_OPERATION_DIGESTS[name]

    def test_trace_columns_are_pinned(self):
        trace = SyntheticAzureTrace(TraceConfig())
        for column, expected in PINNED_TRACE_DIGESTS.items():
            array = getattr(trace, column)
            assert array.dtype == np.int64
            assert hashlib.sha256(array.tobytes()).hexdigest() == expected, column


class _BinomialTripwire(np.random.RandomState):
    """A RandomState whose binomial draws fail while armed."""

    armed = True

    def binomial(self, *args, **kwargs):
        if _BinomialTripwire.armed:
            raise AssertionError("the death series was drawn")
        return super().binomial(*args, **kwargs)


class TestLazyDeathSeries:
    def test_experiment_build_draws_no_death_series(self, monkeypatch):
        monkeypatch.setattr(_BinomialTripwire, "armed", True)
        monkeypatch.setattr(np.random, "RandomState", _BinomialTripwire)
        experiment = Experiment(
            ExperimentConfig(system="samya-majority", **PINNED_CONFIGS["sim_paper"])
        )
        assert _operations_digest(experiment) == PINNED_OPERATION_DIGESTS["sim_paper"]
        # Read after the build, the columns are the ones an eager draw made
        # (benchmarks/figures.py::fig3a_shape reads ``outstanding``).
        _BinomialTripwire.armed = False
        trace = experiment.trace
        for column, expected in PINNED_TRACE_DIGESTS.items():
            digest = hashlib.sha256(getattr(trace, column).tobytes()).hexdigest()
            assert digest == expected, column

    def test_death_series_is_drawn_once(self):
        trace = small_trace()
        assert trace.deletions is trace.deletions
        assert trace.outstanding is trace.outstanding
