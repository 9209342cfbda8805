"""Tests for the perf histograms (repro.obs.perf).

The load-bearing property is the stated resolution: boundaries are fixed
log-spaced constants, so any quantile of a histogram lands within one
bucket ratio of the exact quantile of the samples it recorded.
Hypothesis drives that against the raw samples.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencySummary, percentile
from repro.obs.perf import (
    BUCKET_COUNT,
    BUCKETS_PER_DECADE,
    MIN_EXP,
    PerfHistogram,
    PerfRecorder,
    bucket_index,
    bucket_ratio,
)

#: Latency-like values spanning the instrumented range (0.1 µs..1000 s).
values = st.floats(1e-7, 1e3, allow_nan=False, allow_infinity=False)


def bucket_upper(index: int) -> float:
    """Upper edge (seconds) of bucket ``index``, from the documented layout."""
    return 10.0 ** (MIN_EXP + (index + 1) / BUCKETS_PER_DECADE)


class TestBucketLayout:
    def test_boundaries_are_monotone(self):
        uppers = [bucket_upper(i) for i in range(BUCKET_COUNT)]
        assert uppers == sorted(uppers)
        assert len(set(uppers)) == BUCKET_COUNT

    def test_index_respects_boundaries(self):
        for value in (1e-7, 3.2e-5, 1e-3, 0.017, 1.0, 999.0):
            index = bucket_index(value)
            assert value <= bucket_upper(index) * (1 + 1e-9)
            if index > 0:
                assert value > bucket_upper(index - 1) * (1 - 1e-9)

    def test_out_of_range_clamps(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(1e9) == BUCKET_COUNT - 1


class TestPerfHistogram:
    def test_exact_count_sum_min_max(self):
        hist = PerfHistogram()
        for value in (0.001, 0.002, 0.004):
            hist.record(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.007)
        assert hist.vmin == pytest.approx(0.001)
        assert hist.vmax == pytest.approx(0.004)

    def test_quantile_clamped_to_observed_range(self):
        hist = PerfHistogram()
        hist.record(0.005)
        assert hist.quantile(0) == pytest.approx(0.005)
        assert hist.quantile(100) == pytest.approx(0.005)

    def test_empty_quantile_is_zero(self):
        assert PerfHistogram().quantile(50) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(values, min_size=1, max_size=120),
        q=st.floats(0.0, 100.0),
    )
    def test_quantile_is_within_one_bucket_of_the_exact_one(self, samples, q):
        """A quantile of the histogram must match the nearest-rank
        quantile of the raw samples to within one bucket ratio (the
        histogram's stated resolution)."""
        hist = PerfHistogram()
        for value in samples:
            hist.record(value)
        ordered = sorted(samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        exact = ordered[rank - 1]
        estimate = hist.quantile(q)
        # One bucket of geometric slack either side.
        assert estimate <= exact * bucket_ratio() * (1 + 1e-9)
        assert estimate >= exact / bucket_ratio() * (1 - 1e-9)


class TestPerfRecorder:
    def test_observe_routes_by_instrument_and_key(self):
        recorder = PerfRecorder()
        recorder.observe("codec.encode", "ClientRequest", 0.001)
        recorder.observe("codec.encode", "SiteResponse", 0.002)
        recorder.observe("kernel.tick", "", 0.0005)
        labels = set(recorder.snapshot())
        assert "codec.encode{ClientRequest}" in labels
        assert "codec.encode{SiteResponse}" in labels
        assert "kernel.tick" in labels

    def test_snapshot_shape(self):
        recorder = PerfRecorder()
        for _ in range(10):
            recorder.observe("span.dur", "request", 0.01)
        snapshot = recorder.snapshot()
        (key,) = snapshot
        assert key == "span.dur{request}"
        entry = snapshot[key]
        assert entry["count"] == 10
        assert entry["p50_ms"] == pytest.approx(10.0, rel=0.10)


class TestEmptySummaries:
    """The satellite fix: zero-commit runs must not crash reporting."""

    def test_percentile_of_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_percentile_still_validates_q(self):
        with pytest.raises(ValueError):
            percentile([], 150)

    def test_from_samples_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_histogram_empty_summary(self):
        summary = PerfHistogram().summary()
        assert summary.count == 0
