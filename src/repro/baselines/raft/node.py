"""A Raft node driving a :class:`TokenStateMachine`.

The CockroachDB-like baseline (§5): writes replicate through Raft to a
majority; the leader doubles as the leaseholder, serving reads locally.
Conflicting write transactions serialize at the leader — one command is
proposed at a time, the next only after the previous commits — the same
latch-like serialization CockroachDB applies to a single hot key.

Elections, log matching, and commit-index advancement follow the Raft
paper; a fresh leader commits a no-op entry to learn the commit frontier
of previous terms (§5.4.2 of the Raft paper).
"""

from __future__ import annotations

from repro.baselines.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    RequestVote,
    RequestVoteReply,
)
from repro.baselines.statemachine import LogServer
from repro.core.messages import ForwardedRequest
from repro.net.message import Message
from repro.net.transport import Clock, Transport
from repro.net.regions import Region

#: Leader heartbeat (empty AppendEntries) period.
HEARTBEAT_INTERVAL = 0.25

#: First-election head start for the preferred initial leader.
INITIAL_LEADER_BOOST = 0.05


class RaftNode(LogServer):
    """One replica of the Raft group."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        maxima: dict[str, int],
        preferred_leader: bool = False,
    ) -> None:
        super().__init__(kernel, name, region, network, maxima)
        self.preferred_leader = preferred_leader
        self.term = 0
        self.voted_for: str | None = None
        self.role = RaftNode.FOLLOWER

        self._votes: set[str] = set()
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._awaiting: dict[int, ForwardedRequest] = {}  # log index -> client
        self._proposing = False  # one conflicting command in flight

    # -- wiring -------------------------------------------------------------

    def connect(self, names: list[str]) -> None:
        self.peers = [peer for peer in names if peer != self.name]
        if self.preferred_leader:
            # First-election head start, so the group opens under this node.
            self._election_timer.restart(INITIAL_LEADER_BOOST)
        else:
            self._arm_election_timer()

    @property
    def is_leader(self) -> bool:
        return self.role is not None and self.role == RaftNode.LEADER

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        src = message.src
        if isinstance(payload, ForwardedRequest):
            self._on_client_request(payload)
        elif isinstance(payload, AppendEntries):
            self._on_append_entries(payload, src)
        elif isinstance(payload, AppendEntriesReply):
            self._on_append_reply(payload, src)
        elif isinstance(payload, RequestVote):
            self._on_request_vote(payload, src)
        elif isinstance(payload, RequestVoteReply):
            self._on_vote_reply(payload, src)

    # -- proposing -------------------------------------------------------------

    def _propose_next(self) -> None:
        if not self.is_leader or self._proposing or not self._pending:
            return
        fwd, command = self._next_command()
        entry = self.log.append(self.term, command)
        self._awaiting[entry.index] = fwd
        self._proposing = True
        self._replicate_to_all()

    def _replicate_to_all(self) -> None:
        for peer in self.peers:
            self._send_append(peer)

    def _send_append(self, peer: str) -> None:
        next_index = self._next_index.get(peer, self.log.last_index + 1)
        prev_index = next_index - 1
        prev_term = self.log.term_at(prev_index) if prev_index <= self.log.last_index else 0
        # Cap the batch so a far-behind follower is caught up incrementally
        # instead of in one unrealistically large message.
        entries = tuple(self.log.slice_from(next_index)[:512])
        self.network.send(
            self.name,
            peer,
            AppendEntries(
                term=self.term,
                leader=self.name,
                prev_log_index=prev_index,
                prev_log_term=prev_term,
                entries=entries,
                leader_commit=self.commit_index,
            ),
        )

    # -- AppendEntries (follower) ------------------------------------------------

    def _on_append_entries(self, msg: AppendEntries, src: str) -> None:
        if msg.term < self.term:
            self.network.send(
                self.name, src, AppendEntriesReply(self.term, False, 0)
            )
            return
        self._become_follower(msg.term, leader=msg.leader)
        # Log consistency check (Raft §5.3).
        if msg.prev_log_index > self.log.last_index or (
            msg.prev_log_index > 0
            and self.log.term_at(msg.prev_log_index) != msg.prev_log_term
        ):
            hint = min(self.log.last_index, max(0, msg.prev_log_index - 1))
            self.network.send(
                self.name, src, AppendEntriesReply(self.term, False, hint)
            )
            return
        for entry in msg.entries:
            if entry.index <= self.log.last_index:
                if self.log.term_at(entry.index) != entry.term:
                    self.log.truncate_from(entry.index)
                    self.log.append_entry(entry)
            else:
                self.log.append_entry(entry)
        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.log.last_index)
            self._apply_committed()
        self.network.send(self.name, src, AppendEntriesReply(self.term, True, match))

    def _on_append_reply(self, msg: AppendEntriesReply, src: str) -> None:
        if msg.term > self.term:
            self._become_follower(msg.term, leader=None)
            return
        if not self.is_leader or msg.term < self.term:
            return
        if msg.success:
            self._match_index[src] = max(self._match_index.get(src, 0), msg.match_index)
            self._next_index[src] = self._match_index[src] + 1
            self._advance_commit()
        else:
            self._next_index[src] = max(1, min(msg.match_index + 1,
                                               self._next_index.get(src, 1) - 1))
            self._send_append(src)

    def _advance_commit(self) -> None:
        """Advance commit_index to the highest majority-matched index whose
        entry is from the current term (Raft commit rule)."""
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.term:
                break
            replicated = 1 + sum(
                1 for peer in self.peers if self._match_index.get(peer, 0) >= index
            )
            if replicated >= self.majority:
                self.commit_index = index
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        progressed = super()._apply_committed(self._awaiting)
        if progressed or (self._proposing and self.applied_index >= self.log.last_index):
            self._proposing = False
            self._propose_next()

    # -- elections -----------------------------------------------------------

    def _on_election_timeout(self) -> None:
        if self.is_leader:
            return
        self.role = RaftNode.CANDIDATE
        self.term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        for peer in self.peers:
            self.network.send(
                self.name,
                peer,
                RequestVote(self.term, self.name, self.log.last_index, self.log.last_term),
            )
        self._arm_election_timer()

    def _on_request_vote(self, msg: RequestVote, src: str) -> None:
        if msg.term > self.term:
            self._become_follower(msg.term, leader=None)
        granted = False
        if msg.term == self.term and self.voted_for in (None, msg.candidate):
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.log.last_term,
                self.log.last_index,
            )
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate
                self._arm_election_timer()
        self.network.send(self.name, src, RequestVoteReply(self.term, granted))

    def _on_vote_reply(self, msg: RequestVoteReply, src: str) -> None:
        if msg.term > self.term:
            self._become_follower(msg.term, leader=None)
            return
        if self.role != RaftNode.CANDIDATE or msg.term < self.term or not msg.granted:
            return
        self._votes.add(src)
        if len(self._votes) < self.majority:
            return
        # Won: become leader, commit a no-op to learn the commit frontier.
        self.role = RaftNode.LEADER
        self.known_leader = self.name
        self._next_index = {peer: self.log.last_index + 1 for peer in self.peers}
        self._match_index = {peer: 0 for peer in self.peers}
        self._election_timer.cancel()
        self._heartbeat_timer.restart(HEARTBEAT_INTERVAL)
        self.log.append(self.term, None)
        self._proposing = True
        self._replicate_to_all()

    def _become_follower(self, term: int, leader: str | None) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
        stepped_down = self.is_leader
        self.role = RaftNode.FOLLOWER
        if leader is not None:
            self.known_leader = leader
        if stepped_down:
            self._heartbeat_timer.cancel()
            self._fail_pending()
            self._awaiting.clear()
            self._proposing = False
        self._arm_election_timer()

    def _on_heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        self._replicate_to_all()
        self._heartbeat_timer.restart(HEARTBEAT_INTERVAL)

    # -- crash handling ----------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._awaiting.clear()
        self._proposing = False

    def recover(self) -> None:
        super().recover()
        self.role = RaftNode.FOLLOWER
        self._arm_election_timer()
