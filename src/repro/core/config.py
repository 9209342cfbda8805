"""Tunables for a Samya deployment.

Defaults follow the paper's setup (§5.2): epoch = one trace interval,
redistribution timeouts of a few hundred milliseconds (covering a WAN
round trip).  The per-message service time is the server shell's
(``repro.core.site.SERVICE_TIME``), shared by every compared system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AvantanVariant(str, enum.Enum):
    """Which redistribution protocol a deployment runs (§4.3)."""

    MAJORITY = "majority"  # Avantan[(n+1)/2]
    STAR = "star"  # Avantan[*]


@dataclass
class SamyaConfig:
    """Per-site behaviour knobs."""

    variant: AvantanVariant = AvantanVariant.MAJORITY

    #: Look-ahead window for demand prediction, in seconds (§4.2).  The
    #: paper predicts one trace interval ahead (5 minutes of original
    #: time, 5 seconds after compression).
    epoch_seconds: float = 5.0

    #: Leader timeout waiting for ElectionOk-Value responses; on expiry a
    #: phase-1 leader aborts the redistribution (§4.3.1 fault tolerance).
    election_timeout: float = 1.0

    #: Cohort timeout for detecting leader failure mid-protocol.
    cohort_timeout: float = 2.5

    #: Retry interval while blocked waiting for a majority of Accept-oks.
    blocked_retry_interval: float = 2.5

    #: Enable proactive (prediction-driven) redistributions (§4.2).
    proactive: bool = True

    #: Enforce the global constraint (Eq. 1).  Disabled only for the
    #: "No Constraints" ablation of §5.5.
    enforce_constraint: bool = True

    #: Perform redistributions at all.  Disabled only for the
    #: "No Redistribution" ablation of §5.5 (exhausted sites just reject).
    redistribute: bool = True

    #: Minimum gap between consecutive *proactive* redistributions
    #: triggered by the same site.  Without it a site whose demand
    #: persistently exceeds the global supply re-triggers every epoch and
    #: the whole cluster spends its time frozen in Avantan rounds.  The
    #: paper's measured rate (208 redistributions/hour, §5.3) corresponds
    #: to one trigger per site every ~85 s of compressed time.
    redistribution_cooldown: float = 20.0

    #: Minimum gap between *reactive* redistributions at one site.
    reactive_cooldown: float = 5.0

    #: Reactive redistribution exactly as the paper writes it (Fig. 3f
    #: contrasts it with the default).  A reactive trigger asks for the
    #: amount of the one request that could not be served (Eq. 5 taken
    #: literally, TokensWanted = m) instead of the whole queued deficit,
    #: so the tiny ask re-exhausts the site at once.  And an unservable
    #: acquire that arrives while the reactive cooldown blocks a new
    #: round is queued until the next round (§4.3 "queues all
    #: requests"); the default rejects it at once, so the client is not
    #: stranded behind a redistribution that cannot help.
    paper_literal_reactive: bool = False

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
