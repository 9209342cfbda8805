"""What both log-based baselines share around their consensus protocols.

The state machine is a single aggregate counter with the Eq. 1
constraint: an acquire commits only if it keeps total usage within the
maximum.  Deterministic, so every replica applying the same log derives
the same state.  :class:`LogServer` is the part of a replica that is not
consensus (log frontier, election timer, client path, applying one
committed entry); :class:`LogDeployment` is the group behind its leader.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.app_manager import FixedTargetRouting
from repro.core.cluster import Deployment
from repro.core.entity import Entity
from repro.core.messages import ForwardedRequest
from repro.core.requests import RequestKind, RequestStatus
from repro.core.site import REQUEST_DEDUP_WINDOW, Server
from repro.net.regions import Region
from repro.net.transport import Clock, Transport
from repro.storage.wal import WriteAheadLog

#: Base follower election timeout (randomized x1..2 per replica).
ELECTION_TIMEOUT = 1.5


@dataclass(frozen=True)
class TokenCommand:
    """A log command: one client transaction against one entity."""

    request_id: int
    kind: RequestKind
    entity_id: str
    amount: int


class TokenStateMachine:
    """Tracks aggregate usage for each entity under a global limit.

    Request dedup lives here because here it is deterministic: an app
    manager that re-routes an unanswered request to a new leader puts
    the same request id in the log twice (legitimately — the new leader
    cannot know the first copy survived the election), and every replica
    replaying that log must skip the repeat the same way.
    """

    def __init__(self, maxima: dict[str, int]) -> None:
        self.maxima = dict(maxima)
        self.used: dict[str, int] = {entity: 0 for entity in maxima}
        #: request id -> granted, for the last REQUEST_DEDUP_WINDOW commands.
        self._outcomes: dict[int, bool] = {}

    def apply(self, command: TokenCommand) -> bool:
        """Apply a committed command (once per request id); True if the
        transaction is granted."""
        outcomes = self._outcomes
        granted = outcomes.get(command.request_id)
        if granted is None:
            granted = outcomes[command.request_id] = self._execute(command)
            if len(outcomes) > REQUEST_DEDUP_WINDOW:
                del outcomes[next(iter(outcomes))]
        return granted

    def _execute(self, command: TokenCommand) -> bool:
        if command.entity_id not in self.maxima:
            return False
        used = self.used[command.entity_id]
        if command.kind is RequestKind.ACQUIRE:
            if used + command.amount > self.maxima[command.entity_id]:
                return False
            self.used[command.entity_id] = used + command.amount
            return True
        if command.kind is RequestKind.RELEASE:
            self.used[command.entity_id] = max(0, used - command.amount)
            return True
        return True  # reads never mutate

    def available(self, entity_id: str) -> int:
        return self.maxima[entity_id] - self.used[entity_id]


class LogServer(Server):
    """A replica of a leader-based replicated log over a token state machine.

    A protocol subclass (multi-Paxos, Raft) supplies ``is_leader``,
    ``_dispatch``, ``_on_election_timeout``, ``_on_heartbeat_tick`` and
    ``_propose_next``, and decides when ``commit_index`` moves; what it
    would otherwise copy from its sibling is here.
    """

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        maxima: dict[str, int],
    ) -> None:
        super().__init__(kernel, name, region, network)
        self.log = WriteAheadLog()
        self.state_machine = TokenStateMachine(maxima)
        self.commit_index = 0
        self.applied_index = 0
        self.commits = 0
        self.known_leader: str | None = None
        self._pending: deque[ForwardedRequest] = deque()
        self._election_timer = self.timer(self._on_election_timeout)
        self._heartbeat_timer = self.timer(self._on_heartbeat_tick)

    @property
    def majority(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    def _arm_election_timer(self) -> None:
        """Randomized x1..2 per replica, so candidates rarely collide."""
        self._election_timer.restart(ELECTION_TIMEOUT * (1.0 + self.rng().random()))

    # -- client path ---------------------------------------------------------

    def _on_client_request(self, fwd: ForwardedRequest) -> None:
        if not self.is_leader:
            # Stale routing: relay to the leader if we know one.
            if self.known_leader is not None and self.known_leader != self.name:
                self.network.send(self.name, self.known_leader, fwd)
            else:
                self._reply(fwd, RequestStatus.FAILED)
            return
        request = fwd.request
        if request.kind is RequestKind.READ:
            # Leaseholder-style local read at the leader (§5.8).
            self._reply(
                fwd,
                RequestStatus.GRANTED,
                value=self.state_machine.available(request.entity_id),
            )
            return
        self._pending.append(fwd)
        self._propose_next()

    def _next_command(self) -> tuple[ForwardedRequest, TokenCommand]:
        fwd = self._pending.popleft()
        request = fwd.request
        return fwd, TokenCommand(
            request.request_id, request.kind, request.entity_id, request.amount
        )

    def _fail_pending(self) -> None:
        """A deposed leader fails what it queued rather than strand it."""
        for fwd in self._pending:
            self._reply(fwd, RequestStatus.FAILED)
        self._pending.clear()

    # -- applying the log ------------------------------------------------------

    def _apply_committed(
        self, waiting: dict[int, ForwardedRequest | None] | None = None
    ) -> bool:
        """Apply every committed entry not applied yet, answering the
        clients ``waiting`` on a log index; True if one was answered."""
        waiting = waiting or {}
        answered = False
        while self.applied_index < min(self.commit_index, self.log.last_index):
            self.applied_index += 1
            entry = self.log.get(self.applied_index)
            assert entry is not None
            if entry.command is None:
                granted = True  # no-op entry
            else:
                granted = self.state_machine.apply(entry.command)
                self.commits += 1
            obs = self.obs
            if obs is not None:
                extra = (
                    {"trace_id": f"req-{entry.command.request_id}"}
                    if entry.command is not None
                    else {}
                )
                obs.emit(
                    "consensus.commit",
                    node=self.name,
                    index=entry.index,
                    granted=granted,
                    **extra,
                )
            fwd = waiting.pop(self.applied_index, None)
            if fwd is not None:
                status = RequestStatus.GRANTED if granted else RequestStatus.REJECTED
                self._reply(fwd, status)
                answered = True
        return answered

    # -- crash handling -----------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._election_timer.cancel()
        self._heartbeat_timer.cancel()
        self._pending.clear()


class LogDeployment(Deployment):
    """A replica group whose app managers all route to the current leader
    (Paxos leader, Raft leaseholder), where conflicting transactions
    serialize.  The first replica region hosts the initial leader."""

    #: Set by each system: its replica type and the replicas' name prefix.
    replica_class: type[LogServer]
    prefix: str

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity,
        client_regions: Sequence[Region],
        replica_regions: Sequence[Region],
    ) -> None:
        maxima = {entity.id: entity.maximum}
        replicas: list[LogServer] = []
        for region in replica_regions:
            name = f"{self.prefix}-{region.value}"
            replicas.append(
                self.replica_class(kernel, name, region, network, maxima, not replicas)
            )
        names = [replica.name for replica in replicas]
        for replica in replicas:
            replica.connect(names)
        routing = FixedTargetRouting(self.current_leader)
        super().__init__(kernel, network, entity, replicas, routing, client_regions)
        self.replicas = replicas

    def current_leader(self) -> str | None:
        """The live leader, or a live replica that can relay, or None."""
        for replica in self.replicas:
            if replica.is_leader and not replica.crashed:
                return replica.name
        for replica in self.replicas:
            if not replica.crashed:
                return replica.name
        return None
