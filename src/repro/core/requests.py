"""Client-facing transaction types (§3.2) and their responses.

Clients perform ``acquireTokens(e, n)`` and ``releaseTokens(e, m)``;
for the read-write experiment (§5.8) a read-only transaction returns a
global snapshot of available tokens.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class RequestKind(str, enum.Enum):
    ACQUIRE = "acquire"
    RELEASE = "release"
    READ = "read"


class RequestStatus(str, enum.Enum):
    #: Tokens granted / returned / read successfully.
    GRANTED = "granted"
    #: The system decided the request cannot be satisfied (constraint).
    REJECTED = "rejected"
    #: No response (site crashed, partition, timeout) — not committed.
    FAILED = "failed"


_request_ids = itertools.count(1)


def next_request_id() -> int:
    return next(_request_ids)


def reset_request_ids() -> None:
    """Restart the id counter — called at deployment-build boundaries,
    like :func:`repro.net.message.reset_msg_ids`: request ids ride the
    wire, so their digit count is in every accounted byte."""
    global _request_ids
    _request_ids = itertools.count(1)


@dataclass
class ClientRequest:
    """A transaction submitted by a client via an app manager."""

    kind: RequestKind
    entity_id: str
    amount: int
    client: str
    region: str
    request_id: int = field(default_factory=next_request_id)
    issued_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is not RequestKind.READ and self.amount <= 0:
            raise ValueError(
                f"{self.kind.value} amount must be positive, got {self.amount}"
            )


@dataclass
class ClientResponse:
    """The system's reply, relayed back through the app manager."""

    request_id: int
    status: RequestStatus
    #: For reads: the global snapshot of available tokens.
    value: int | None = None
    #: Which server answered (diagnostics).
    served_by: str = ""
