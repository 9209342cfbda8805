"""Trace-driven clients.

A client replays a timed operation list (produced by
``repro.workload``) open-loop: requests are issued at their trace
timestamps regardless of earlier responses, which is what makes an
underprovisioned system accumulate queueing delay rather than silently
shedding load.

The client also owns the bookkeeping the paper assumes of applications:
it never releases more tokens than it has successfully acquired (§3.2).
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from repro.core.requests import ClientRequest, ClientResponse, RequestKind, RequestStatus
from repro.net.regions import Region
from repro.net.transport import Clock
from repro.sim.process import Actor


class Operation(NamedTuple):
    """One trace entry: issue ``kind`` for ``amount`` tokens at ``time``.

    A named tuple: a build makes one per request, and a tuple is the
    cheapest immutable record to construct.
    """

    time: float
    kind: RequestKind
    amount: int = 1


class WorkloadClient(Actor):
    """Replays operations against a colocated app manager."""

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        app_manager,
        entity_id: str,
        operations: list[Operation],
        metrics=None,
        max_outstanding: int | None = None,
        request_timeout: float = 10.0,
    ) -> None:
        super().__init__(kernel, name)
        self.region = region
        self._region_name = region.value
        self.app_manager = app_manager
        self.entity_id = entity_id
        self.metrics = metrics
        # Trace-built lists arrive sorted; hand-built ones need not.
        self._operations = sorted(operations, key=attrgetter("time"))
        self._cursor = 0
        #: Tokens currently held (granted acquires minus granted releases).
        self.outstanding = 0
        self._inflight: dict[int, ClientRequest] = {}
        #: request_id -> open telemetry span id (only while tracing).
        self._spans: dict[int, int] = {}
        #: Releases dropped because nothing was held (trace artifacts).
        self.skipped_releases = 0
        self.issued = 0
        #: In-flight request window.  When the window is full, new trace
        #: arrivals are shed (the paper's clients bound their own queues:
        #: a system that falls behind sees dropped offered load, not an
        #: hour-deep client queue).
        self.max_outstanding = max_outstanding
        self.shed = 0
        #: Requests unanswered for this long are written off as FAILED and
        #: freed from the window — without it, one crashed server jams the
        #: client's window with zombie requests forever.  Configurable via
        #: ``ExperimentConfig.request_timeout``.
        self.request_timeout = request_timeout

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._cursor >= len(self._operations):
            return
        operation = self._operations[self._cursor]
        delay = max(0.0, operation.time - self.kernel.now)
        self.kernel.schedule(delay, self._issue, operation)

    def _issue(self, operation: Operation) -> None:
        if self.crashed:
            return
        self._cursor += 1
        self._schedule_next()
        if (
            self.max_outstanding is not None
            and len(self._inflight) >= self.max_outstanding
        ):
            self._expire_stale_inflight()
            if len(self._inflight) >= self.max_outstanding:
                self.shed += 1
                obs = self.obs
                if obs is not None:
                    obs.emit(
                        "request.shed",
                        node=self.name,
                        kind=operation.kind.value,
                        amount=operation.amount,
                    )
                return
        amount = operation.amount
        if operation.kind is RequestKind.RELEASE:
            # An individual client never returns more than it acquired.
            amount = min(amount, self.outstanding)
            if amount <= 0:
                self.skipped_releases += 1
                return
            # Reserve eagerly so concurrent in-flight releases cannot
            # oversubscribe what we hold.
            self.outstanding -= amount
        request = ClientRequest(
            kind=operation.kind,
            entity_id=self.entity_id,
            amount=amount,
            client=self.name,
            region=self._region_name,
            issued_at=self.kernel.now,
        )
        self._inflight[request.request_id] = request
        self.issued += 1
        obs = self.obs
        if obs is not None:
            self._spans[request.request_id] = obs.span_begin(
                "request",
                node=self.name,
                trace_id=f"req-{request.request_id}",
                kind=request.kind.value,
                amount=request.amount,
            )
        self.app_manager.submit(request, self)

    def on_response(self, response: ClientResponse, now: float) -> None:
        request = self._inflight.pop(response.request_id, None)
        if request is None:
            return
        span = self._spans.pop(response.request_id, None)
        if span is not None:
            obs = self.obs
            if obs is not None:
                obs.span_end(span, outcome=response.status.value)
        if request.kind is RequestKind.ACQUIRE:
            if response.status is RequestStatus.GRANTED:
                self.outstanding += request.amount
        elif request.kind is RequestKind.RELEASE:
            if response.status is not RequestStatus.GRANTED:
                self.outstanding += request.amount  # reservation refund
        if self.metrics is not None:
            self.metrics.record(request, response, now)

    def _expire_stale_inflight(self) -> None:
        """Write off requests older than the timeout as FAILED."""
        deadline = self.now - self.request_timeout
        expired = [
            request
            for request in self._inflight.values()
            if request.issued_at < deadline
        ]
        for request in expired:
            del self._inflight[request.request_id]
            obs = self.obs
            if obs is not None:
                obs.emit(
                    "liveness.request_expired",
                    node=self.name,
                    kind=request.kind.value,
                    amount=request.amount,
                    waited=self.now - request.issued_at,
                    trace_id=f"req-{request.request_id}",
                )
            span = self._spans.pop(request.request_id, None)
            if span is not None and obs is not None:
                obs.span_end(span, outcome="failed")
            if request.kind is RequestKind.RELEASE:
                self.outstanding += request.amount  # reservation refund
            if self.metrics is not None:
                self.metrics.record(
                    request,
                    ClientResponse(request.request_id, RequestStatus.FAILED),
                    self.now,
                )

    def unanswered(self) -> int:
        """Requests still in flight (counted FAILED at experiment end)."""
        return len(self._inflight)

    def crash(self) -> None:
        super().crash()
        self._inflight.clear()
        self._spans.clear()
