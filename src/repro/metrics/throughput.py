"""Windowed throughput series (Figs. 3b-3h)."""

from __future__ import annotations


class ThroughputSeries:
    """Counts committed transactions into fixed-width time buckets."""

    def __init__(self, bucket_seconds: float = 1.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: dict[int, int] = {}

    def record(self, time: float) -> None:
        self._buckets[int(time // self.bucket_seconds)] = (
            self._buckets.get(int(time // self.bucket_seconds), 0) + 1
        )

    @property
    def total(self) -> int:
        return sum(self._buckets.values())

    def series(self, start: float = 0.0, end: float | None = None) -> list[tuple[float, float]]:
        """(bucket start time, transactions/second) pairs, dense in range."""
        if not self._buckets and end is None:
            return []
        last = max(self._buckets) if self._buckets else 0
        end_bucket = int(end // self.bucket_seconds) if end is not None else last + 1
        start_bucket = int(start // self.bucket_seconds)
        return [
            (
                bucket * self.bucket_seconds,
                self._buckets.get(bucket, 0) / self.bucket_seconds,
            )
            for bucket in range(start_bucket, end_bucket)
        ]

    def average(self, start: float, end: float) -> float:
        """Mean committed transactions/second over [start, end)."""
        if end <= start:
            raise ValueError("end must be after start")
        total = sum(
            count
            for bucket, count in self._buckets.items()
            if start <= bucket * self.bucket_seconds < end
        )
        return total / (end - start)
