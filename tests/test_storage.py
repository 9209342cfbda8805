"""Tests for the recovery WAL and the consensus log."""

import pickle

import pytest

from repro.core.avantan.state import AcceptValue, AvantanState, Ballot
from repro.core.entity import SiteTokenState
from repro.storage.recovery import RecoveryWal
from repro.storage.wal import LogEntry, WriteAheadLog


class TestRecoveryWal:
    def test_replay_returns_latest_value_per_key(self):
        wal = RecoveryWal("s")
        wal.append("entity", (100, 0))
        wal.append("entity", (80, 5))
        wal.append("avantan", {"ballot": 1})
        assert wal.replay() == {"entity": (80, 5), "avantan": {"ballot": 1}}

    def test_appended_value_isolated_from_later_mutation(self):
        wal = RecoveryWal("s")
        value = {"tokens": [10, 20]}
        wal.append("k", value)
        value["tokens"].append(30)
        assert wal.replay()["k"] == {"tokens": [10, 20]}

    def test_replayed_value_isolated_from_log(self):
        wal = RecoveryWal("s")
        wal.append("k", {"tokens": [10, 20]})
        wal.replay()["k"]["tokens"].clear()
        assert wal.replay()["k"] == {"tokens": [10, 20]}

    def test_protocol_records_round_trip_equal(self):
        ballot = Ballot(3, "site-b")
        value = AcceptValue(
            value_id=ballot,
            entity_id="vm",
            states=(SiteTokenState("site-a", "vm", 40, 5),),
        )
        state = AvantanState(
            ballot_num=ballot,
            init_val=value.states[0],
            accept_val=value,
            accept_num=ballot,
            applied={Ballot(1, "site-a")},
            dead_ballots={Ballot(2, "site-c")},
        )
        state.remember_applied_value(value)
        pledge = (ballot.num, ballot.site_id, 40)
        wal = RecoveryWal("s")
        wal.append("avantan", state)
        wal.append("pledge", pledge)
        wal.append("entity", (60, 5))
        replayed = wal.replay()
        assert replayed == {"avantan": state, "pledge": pledge, "entity": (60, 5)}
        assert replayed["avantan"] is not state

    def test_unserializable_value_fails_at_append(self):
        wal = RecoveryWal("s")
        wal.append("k", 1)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            wal.append("k", lambda: None)
        assert wal.replay() == {"k": 1}

    def test_disabled_wal_discards_appends(self):
        wal = RecoveryWal("s")
        wal.append("k", 1)
        wal.enabled = False
        wal.append("k", 2)
        assert wal.replay() == {"k": 1}  # the stale-restore scenario
        assert wal.appends == 1
        assert wal.dropped_appends == 1

    def test_compact_keeps_latest_record_per_key(self):
        wal = RecoveryWal("s")
        for tokens in (100, 90, 80):
            wal.append("entity", tokens)
        wal.append("avantan", "state")
        assert wal.compact() == 2
        assert len(wal) == 2
        assert wal.replay() == {"entity": 80, "avantan": "state"}

    def test_compact_preserves_order(self):
        wal = RecoveryWal("s")
        wal.append("a", 1)
        wal.append("b", 2)
        wal.append("a", 3)
        wal.compact()
        assert wal.replay() == {"a": 3, "b": 2}

    def test_counters(self):
        wal = RecoveryWal("s")
        wal.append("k", 1)
        wal.replay()
        wal.replay()
        assert wal.appends == 1
        assert wal.replays == 2


class TestWriteAheadLog:
    def test_append_assigns_sequential_indices(self):
        log = WriteAheadLog()
        first = log.append(1, "a")
        second = log.append(1, "b")
        assert (first.index, second.index) == (1, 2)
        assert log.last_index == 2

    def test_term_tracking(self):
        log = WriteAheadLog()
        log.append(1, "a")
        log.append(3, "b")
        assert log.last_term == 3
        assert log.term_at(1) == 1
        assert log.term_at(0) == 0

    def test_term_at_out_of_range_raises(self):
        log = WriteAheadLog()
        with pytest.raises(IndexError):
            log.term_at(1)

    def test_get_out_of_range_returns_none(self):
        log = WriteAheadLog()
        log.append(1, "a")
        assert log.get(0) is None
        assert log.get(2) is None
        assert log.get(1).command == "a"

    def test_slice_from(self):
        log = WriteAheadLog()
        for index in range(5):
            log.append(1, index)
        assert [entry.command for entry in log.slice_from(3)] == [2, 3, 4]
        assert [entry.command for entry in log.slice_from(0)] == [0, 1, 2, 3, 4]
        assert log.slice_from(6) == []

    def test_truncate_from(self):
        log = WriteAheadLog()
        for index in range(5):
            log.append(1, index)
        log.truncate_from(3)
        assert log.last_index == 2
        with pytest.raises(IndexError):
            log.truncate_from(0)

    def test_append_entry_must_extend(self):
        log = WriteAheadLog()
        log.append_entry(LogEntry(1, 1, "a"))
        with pytest.raises(IndexError):
            log.append_entry(LogEntry(3, 1, "c"))

    def test_iteration(self):
        log = WriteAheadLog()
        log.append(1, "a")
        log.append(2, "b")
        assert [entry.command for entry in log] == ["a", "b"]
