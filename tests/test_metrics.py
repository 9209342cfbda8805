"""Tests for latency summaries, throughput series, and the metrics hub."""

import pytest

from repro.core.requests import ClientRequest, ClientResponse, RequestKind, RequestStatus
from repro.metrics.hub import MetricsHub
from repro.metrics.latency import LatencySummary, percentile
from repro.metrics.throughput import ThroughputSeries


class TestPercentile:
    def test_nearest_rank_basics(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 90) == 5.0
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_single_sample_q100(self):
        assert percentile([7.0], 100) == 7.0

    def test_empty_returns_zero(self):
        # Zero-commit runs (full-partition nemesis windows) must render
        # a report, not crash it.
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_empty_out_of_range_q_still_raises(self):
        with pytest.raises(ValueError):
            percentile([], 101)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencySummary:
    def test_from_samples(self):
        summary = LatencySummary.from_samples([0.001 * i for i in range(1, 101)])
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.050)
        assert summary.p99 == pytest.approx(0.099)
        assert summary.maximum == pytest.approx(0.100)

    def test_empty_is_zeroed(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_row_ms(self):
        summary = LatencySummary.from_samples([0.010, 0.020])
        row = summary.row_ms()
        assert row["p99"] == pytest.approx(20.0)


class TestThroughputSeries:
    def test_bucketing(self):
        series = ThroughputSeries(bucket_seconds=1.0)
        for t in (0.1, 0.2, 1.5, 2.9):
            series.record(t)
        points = dict(series.series(0.0, 3.0))
        assert points[0.0] == 2.0
        assert points[1.0] == 1.0
        assert points[2.0] == 1.0

    def test_series_is_dense_with_zeros(self):
        series = ThroughputSeries()
        series.record(0.5)
        series.record(3.5)
        points = series.series(0.0, 4.0)
        assert len(points) == 4
        assert points[1] == (1.0, 0.0)

    def test_average(self):
        series = ThroughputSeries()
        for t in (0.1, 0.2, 0.3, 5.0):
            series.record(t)
        assert series.average(0.0, 1.0) == pytest.approx(3.0)
        assert series.average(0.0, 10.0) == pytest.approx(0.4)

    def test_average_invalid_window(self):
        with pytest.raises(ValueError):
            ThroughputSeries().average(5.0, 5.0)

    def test_subsecond_buckets(self):
        series = ThroughputSeries(bucket_seconds=0.5)
        series.record(0.2)
        series.record(0.3)
        assert series.series(0.0, 0.5)[0][1] == 4.0  # 2 events / 0.5 s

    def test_total(self):
        series = ThroughputSeries()
        for t in range(7):
            series.record(float(t))
        assert series.total == 7


def _record(hub, kind, status, issued=0.0, now=0.01):
    request = ClientRequest(kind=kind, entity_id="VM", amount=1 if kind is not RequestKind.READ else 0,
                            client="c", region="r", issued_at=issued)
    hub.record(request, ClientResponse(request.request_id, status), now)


class TestMetricsHub:
    def test_granted_writes_counted_and_timed(self):
        hub = MetricsHub()
        _record(hub, RequestKind.ACQUIRE, RequestStatus.GRANTED, issued=1.0, now=1.25)
        assert hub.committed == 1
        assert hub.latencies == [pytest.approx(0.25)]
        assert hub.throughput.total == 1

    def test_reads_tracked_separately(self):
        hub = MetricsHub()
        _record(hub, RequestKind.READ, RequestStatus.GRANTED)
        assert hub.committed_reads == 1
        assert hub.committed == 0
        assert hub.read_latencies and not hub.latencies

    def test_rejected_and_failed(self):
        hub = MetricsHub()
        _record(hub, RequestKind.ACQUIRE, RequestStatus.REJECTED)
        _record(hub, RequestKind.ACQUIRE, RequestStatus.FAILED)
        assert hub.rejected == 1
        assert hub.failed == 1
        assert hub.throughput.total == 0

    def test_attempted(self):
        hub = MetricsHub()
        _record(hub, RequestKind.ACQUIRE, RequestStatus.GRANTED)
        _record(hub, RequestKind.READ, RequestStatus.GRANTED)
        _record(hub, RequestKind.ACQUIRE, RequestStatus.REJECTED)
        assert hub.attempted == 3
