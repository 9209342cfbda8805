"""Tests for the conservation checker itself: it must catch real leaks."""

import pytest

from repro.metrics.invariants import ConservationChecker, InvariantViolation
from repro.obs.bus import EventBus, RingSink

from tests.helpers import MiniCluster, acquire_burst


class TestConservationChecker:
    def test_clean_cluster_passes(self):
        mini = MiniCluster(maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 50))
        mini.run(until=5.0)
        mini.check()

    def test_detects_minted_tokens(self):
        mini = MiniCluster(maximum=300)
        mini.run(until=1.0)
        mini.site(0).state.tokens_left += 7  # corrupt
        with pytest.raises(InvariantViolation):
            mini.check()

    def test_detects_destroyed_tokens(self):
        mini = MiniCluster(maximum=300)
        mini.run(until=1.0)
        mini.site(0).state.tokens_left -= 1
        with pytest.raises(InvariantViolation):
            mini.check()

    def test_detects_ledger_mismatch(self):
        mini = MiniCluster(maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 10))
        mini.run(until=5.0)
        mini.site(0).counters["acquired_tokens"] += 5  # phantom grants
        with pytest.raises(InvariantViolation):
            mini.check()

    def test_detects_allocation_disagreement(self):
        """If two sites ever derived different grants for the same value,
        Avantan agreement (Theorems 1-2) would be broken."""
        mini = MiniCluster(maximum=300)
        checker = mini.checker

        class FakeValue:
            value_id = "v1"
            participants = ("a", "b")
            states = ()

        class FakeSite:
            name = "a"

        checker._on_apply(FakeSite(), FakeValue(), {"a": 10, "b": 0})
        FakeSite.name = "b"
        with pytest.raises(InvariantViolation):
            checker._on_apply(FakeSite(), FakeValue(), {"a": 0, "b": 10})

    def test_periodic_install_runs_audits(self):
        mini = MiniCluster(maximum=300)
        mini.checker.install_periodic(mini.kernel, interval=1.0, until=5.0)
        mini.run(until=6.0)
        assert mini.checker.checks >= 4

    def test_check_event_fields_in_order(self):
        """Samya's sites never lend tokens: no ``transit`` field."""
        mini = MiniCluster(maximum=300)
        sink = RingSink()
        mini.checker.obs = EventBus(mini.kernel, sink)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 10))
        mini.run(until=5.0)
        mini.check()
        [event] = sink.events()
        assert list(event) == [
            "ts", "type", "node", "settled", "outstanding", "maximum", "checks"
        ]
        assert (event["settled"], event["outstanding"]) == (290, 10)
