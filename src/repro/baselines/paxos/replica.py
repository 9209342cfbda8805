"""A multi-Paxos replica driving a :class:`TokenStateMachine`.

This is the MultiPaxSys server of §5: every transaction is one Paxos
phase-2 round, and conflicting transactions (all of them — the workload
hammers one entity) are processed by the leader **sequentially**: the
next command is proposed only after the previous one commits.  That
serialization, plus the WAN round trip to a majority, is precisely the
hot-spot bottleneck the paper measures.

A stable leader skips phase 1 per command (classic multi-Paxos); leader
failure triggers a timeout-driven phase-1 election in which the candidate
merges the majority's log tails before resuming.
"""

from __future__ import annotations

from repro.baselines.paxos.messages import (
    Accept,
    Accepted,
    AcceptNack,
    Backfill,
    Ballot,
    Heartbeat,
    Prepare,
    Promise,
)
from repro.baselines.statemachine import LogServer
from repro.core.messages import ForwardedRequest
from repro.net.message import Message
from repro.net.transport import Clock, Transport
from repro.net.regions import Region
from repro.storage.wal import LogEntry

#: Leader heartbeat period.
HEARTBEAT_INTERVAL = 0.2

#: Leader retransmit interval for the in-flight entry.
RETRANSMIT_INTERVAL = 0.5


class PaxosReplica(LogServer):
    """One member of the MultiPaxSys replica group."""

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        maxima: dict[str, int],
        is_initial_leader: bool = False,
    ) -> None:
        super().__init__(kernel, name, region, network, maxima)
        self.is_leader = is_initial_leader
        self.ballot: Ballot = (1, name) if is_initial_leader else (0, "")
        self.promised: Ballot = self.ballot
        self.known_leader = name if is_initial_leader else None

        self._inflight: tuple[LogEntry, set[str], ForwardedRequest | None] | None = None
        self._promises: dict[str, Promise] = {}
        self._retransmit_timer = self.timer(self._on_retransmit)

    # -- wiring -----------------------------------------------------------

    def connect(self, names: list[str]) -> None:
        self.peers = [peer for peer in names if peer != self.name]
        if self.is_leader:
            self.known_leader = self.name
            self._heartbeat_timer.restart(HEARTBEAT_INTERVAL)
        else:
            self._arm_election_timer()

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        src = message.src
        if isinstance(payload, ForwardedRequest):
            self._on_client_request(payload)
        elif isinstance(payload, Accept):
            self._on_accept(payload, src)
        elif isinstance(payload, Accepted):
            self._on_accepted(payload, src)
        elif isinstance(payload, AcceptNack):
            self._on_accept_nack(payload, src)
        elif isinstance(payload, Backfill):
            self._on_backfill(payload, src)
        elif isinstance(payload, Heartbeat):
            self._on_heartbeat(payload, src)
        elif isinstance(payload, Prepare):
            self._on_prepare(payload, src)
        elif isinstance(payload, Promise):
            self._on_promise(payload, src)

    # -- proposing ---------------------------------------------------------

    def _propose_next(self) -> None:
        """Propose the next command iff nothing is in flight: conflicting
        transactions execute sequentially (§1, design choice (1))."""
        if not self.is_leader or self._inflight is not None or not self._pending:
            return
        fwd, command = self._next_command()
        entry = self.log.append(self.ballot[0], command)
        self._inflight = (entry, {self.name}, fwd)
        self._broadcast_accept(entry)
        self._retransmit_timer.restart(RETRANSMIT_INTERVAL)
        self._maybe_commit_inflight()

    def _broadcast_accept(self, entry: LogEntry, only: list[str] | None = None) -> None:
        message = Accept(self.ballot, entry, self.commit_index)
        for peer in only if only is not None else self.peers:
            self.network.send(self.name, peer, message)

    def _maybe_commit_inflight(self) -> None:
        if self._inflight is None:
            return
        entry, acks, fwd = self._inflight
        if len(acks) < self.majority:
            return
        self._inflight = None
        self._retransmit_timer.cancel()
        self.commit_index = max(self.commit_index, entry.index)
        self._apply_committed({entry.index: fwd})
        # Recovered-but-uncommitted tail entries (from an election) are
        # driven to commit before fresh client commands.
        self._maybe_continue_tail()

    # -- phase 2 (follower) --------------------------------------------------

    def _on_accept(self, msg: Accept, src: str) -> None:
        if msg.ballot < self.promised:
            return
        self._observe_leader(msg.ballot, src, msg.commit_index)
        entry = msg.entry
        if entry.index <= self.log.last_index:
            existing = self.log.get(entry.index)
            if existing is not None and existing.term != entry.term:
                self.log.truncate_from(entry.index)
                self.log.append_entry(entry)
        elif entry.index == self.log.last_index + 1:
            self.log.append_entry(entry)
        else:
            self.network.send(
                self.name, src, AcceptNack(msg.ballot, self.log.last_index + 1)
            )
            return
        # Re-derive the commit frontier now that the log grew: the
        # piggybacked commit_index may cover the entry just appended.
        self.commit_index = max(
            self.commit_index, min(msg.commit_index, self.log.last_index)
        )
        self.network.send(self.name, src, Accepted(msg.ballot, entry.index))
        self._apply_committed()

    def _on_accepted(self, msg: Accepted, src: str) -> None:
        if not self.is_leader or msg.ballot != self.ballot or self._inflight is None:
            return
        entry, acks, _ = self._inflight
        if msg.index != entry.index:
            return
        acks.add(src)
        self._maybe_commit_inflight()

    def _on_accept_nack(self, msg: AcceptNack, src: str) -> None:
        if not self.is_leader or msg.ballot != self.ballot:
            return
        entries = tuple(self.log.slice_from(msg.expected_index))
        if entries:
            self.network.send(
                self.name, src, Backfill(self.ballot, entries, self.commit_index)
            )

    def _on_backfill(self, msg: Backfill, src: str) -> None:
        if msg.ballot < self.promised:
            return
        self._observe_leader(msg.ballot, src, msg.commit_index)
        for entry in msg.entries:
            if entry.index <= self.log.last_index:
                existing = self.log.get(entry.index)
                if existing is not None and existing.term != entry.term:
                    self.log.truncate_from(entry.index)
                    self.log.append_entry(entry)
            elif entry.index == self.log.last_index + 1:
                self.log.append_entry(entry)
        self.commit_index = max(
            self.commit_index, min(msg.commit_index, self.log.last_index)
        )
        if msg.entries:
            self.network.send(
                self.name, src, Accepted(msg.ballot, msg.entries[-1].index)
            )
        self._apply_committed()

    def _on_heartbeat(self, msg: Heartbeat, src: str) -> None:
        if msg.ballot < self.promised:
            return
        self._observe_leader(msg.ballot, src, msg.commit_index)
        self._apply_committed()

    def _observe_leader(self, ballot: Ballot, leader: str, commit_index: int) -> None:
        if ballot > self.promised:
            self.promised = ballot
        if self.is_leader and leader != self.name and ballot >= self.ballot:
            self._step_down()
        self.known_leader = leader
        self.commit_index = max(
            self.commit_index, min(commit_index, self.log.last_index)
        )
        self._arm_election_timer()

    def _step_down(self) -> None:
        self.is_leader = False
        self._heartbeat_timer.cancel()
        self._retransmit_timer.cancel()
        self._fail_pending()
        self._inflight = None

    # -- leader liveness / elections ----------------------------------------

    def _on_heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        message = Heartbeat(self.ballot, self.commit_index)
        for peer in self.peers:
            self.network.send(self.name, peer, message)
        self._heartbeat_timer.restart(HEARTBEAT_INTERVAL)

    def _on_retransmit(self) -> None:
        if not self.is_leader or self._inflight is None:
            return
        entry, acks, _ = self._inflight
        self._broadcast_accept(entry, only=[p for p in self.peers if p not in acks])
        self._retransmit_timer.restart(RETRANSMIT_INTERVAL)

    def _on_election_timeout(self) -> None:
        if self.is_leader:
            return
        number = max(self.promised[0], self.ballot[0]) + 1
        self.ballot = (number, self.name)
        self.promised = self.ballot
        self._promises = {
            self.name: Promise(self.ballot, (), self.commit_index)
        }
        for peer in self.peers:
            self.network.send(self.name, peer, Prepare(self.ballot, self.commit_index))
        self._arm_election_timer()  # retry if this election stalls

    def _on_prepare(self, msg: Prepare, src: str) -> None:
        if msg.ballot <= self.promised:
            return
        self.promised = msg.ballot
        if self.is_leader:
            self._step_down()
        entries = tuple(self.log.slice_from(msg.commit_index + 1))
        self.network.send(self.name, src, Promise(msg.ballot, entries, self.commit_index))
        self._arm_election_timer()

    def _on_promise(self, msg: Promise, src: str) -> None:
        if msg.ballot != self.ballot or self.is_leader:
            return
        self._promises[src] = msg
        if len(self._promises) < self.majority:
            return
        # Merge the highest-term entry per index from the majority's tails.
        merged: dict[int, LogEntry] = {
            entry.index: entry for entry in self.log.slice_from(self.commit_index + 1)
        }
        max_commit = self.commit_index
        for promise in self._promises.values():
            max_commit = max(max_commit, promise.commit_index)
            for entry in promise.entries:
                current = merged.get(entry.index)
                if current is None or entry.term > current.term:
                    merged[entry.index] = entry
        self.log.truncate_from(self.commit_index + 1)
        for index in sorted(merged):
            if index == self.log.last_index + 1:
                self.log.append_entry(
                    LogEntry(index, self.ballot[0], merged[index].command)
                )
        self.is_leader = True
        self.known_leader = self.name
        self._promises = {}
        self._election_timer.cancel()
        self._heartbeat_timer.restart(HEARTBEAT_INTERVAL)
        self.commit_index = min(max_commit, self.log.last_index)
        self._apply_committed()
        # Re-replicate any uncommitted tail (clients of the old leader get
        # no response — they count those as FAILED).
        tail = self.log.slice_from(self.commit_index + 1)
        if tail:
            entry = tail[0]
            self._inflight = (entry, {self.name}, None)
            self._broadcast_accept(entry)
            self._retransmit_timer.restart(RETRANSMIT_INTERVAL)

    # -- commit chaining for recovered tails -----------------------------------

    def _maybe_continue_tail(self) -> None:
        if self._inflight is None and self.is_leader:
            tail = self.log.slice_from(self.commit_index + 1)
            if tail:
                entry = tail[0]
                self._inflight = (entry, {self.name}, None)
                self._broadcast_accept(entry)
                self._retransmit_timer.restart(RETRANSMIT_INTERVAL)
            else:
                self._propose_next()

    # -- crash handling -----------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._retransmit_timer.cancel()
        self._inflight = None

    def recover(self) -> None:
        super().recover()
        self.is_leader = False
        self._arm_election_timer()
