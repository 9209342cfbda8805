"""Redistribution round tracing.

The paper's §5.3 analysis hinges on round counts and durations ("208 vs
792 redistributions").  This module gives every Avantan protocol
instance a bounded per-round log — when the site entered a round, in
which role, how it ended, how long it was frozen — and an aggregator the
harness uses to report round statistics per experiment.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass


class RoundOutcome(str, enum.Enum):
    DECIDED = "decided"
    ABORTED = "aborted"


@dataclass
class RoundRecord:
    """One site's participation in one redistribution round."""

    site: str
    role: str  # "leader" or "cohort" at entry
    started_at: float
    ended_at: float | None = None
    outcome: RoundOutcome | None = None
    #: True if the round passed through the blocked/degraded state.
    degraded: bool = False

    @property
    def duration(self) -> float | None:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at


class RoundLog:
    """Bounded per-site round history."""

    def __init__(self, capacity: int = 512) -> None:
        self._records: deque[RoundRecord] = deque(maxlen=capacity)
        self._open: RoundRecord | None = None

    def begin(self, site: str, role: str, now: float) -> None:
        if self._open is not None:
            # Role changes within one round (cohort promotes to leader)
            # stay in the same record.
            return
        self._open = RoundRecord(site=site, role=role, started_at=now)

    def mark_degraded(self) -> None:
        if self._open is not None:
            self._open.degraded = True

    def end(self, outcome: RoundOutcome, now: float) -> None:
        if self._open is None:
            return
        self._open.ended_at = now
        self._open.outcome = outcome
        self._records.append(self._open)
        self._open = None

    def records(self) -> list[RoundRecord]:
        return list(self._records)


@dataclass
class RoundSummary:
    """Aggregate round statistics across a deployment."""

    decided: int
    aborted: int
    mean_duration: float
    max_duration: float
    degraded_rounds: int
    total_frozen_time: float

    @staticmethod
    def from_logs(logs: list[RoundLog]) -> "RoundSummary":
        records = [record for log in logs for record in log.records()]
        finished = [record for record in records if record.duration is not None]
        durations = [record.duration for record in finished]
        return RoundSummary(
            decided=sum(1 for r in finished if r.outcome is RoundOutcome.DECIDED),
            aborted=sum(1 for r in finished if r.outcome is RoundOutcome.ABORTED),
            mean_duration=(sum(durations) / len(durations)) if durations else 0.0,
            max_duration=max(durations) if durations else 0.0,
            degraded_rounds=sum(1 for r in finished if r.degraded),
            total_frozen_time=sum(durations),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "decided": self.decided,
            "aborted": self.aborted,
            "mean_duration": self.mean_duration,
            "max_duration": self.max_duration,
            "degraded_rounds": self.degraded_rounds,
            "total_frozen_time": self.total_frozen_time,
        }
