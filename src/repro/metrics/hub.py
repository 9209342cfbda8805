"""The per-experiment metrics sink clients report into."""

from __future__ import annotations

from repro.core.requests import ClientRequest, ClientResponse, RequestKind, RequestStatus
from repro.metrics.latency import LatencySummary
from repro.metrics.throughput import ThroughputSeries


class MetricsHub:
    """Collects commit latencies and throughput for one experiment run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.read_latencies: list[float] = []
        self.throughput = ThroughputSeries()
        self.committed = 0
        self.committed_reads = 0
        self.rejected = 0
        self.failed = 0

    def record(self, request: ClientRequest, response: ClientResponse, now: float) -> None:
        if response.status is RequestStatus.GRANTED:
            latency = now - request.issued_at
            if request.kind is RequestKind.READ:
                self.committed_reads += 1
                self.read_latencies.append(latency)
            else:
                self.committed += 1
                self.latencies.append(latency)
            # Fig. 3h counts reads in throughput; write-only figures have
            # no reads in the workload so the series are identical.
            self.throughput.record(now)
        elif response.status is RequestStatus.REJECTED:
            self.rejected += 1
        else:
            self.failed += 1

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.from_samples(self.latencies)

    def read_latency_summary(self) -> LatencySummary:
        return LatencySummary.from_samples(self.read_latencies)

    @property
    def attempted(self) -> int:
        return self.committed + self.committed_reads + self.rejected + self.failed
