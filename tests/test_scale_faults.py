"""Scale subsystem under faults: dead-site routing, unknown entities,
and batch envelopes crossing a faulty transport.

The stacking order under test is the deployment order
``BatchingTransport(FaultyTransport(Network))`` — faults hit *whole*
envelopes, so a dropped/duplicated/delayed batch must degrade to
dropping/duplicating/delaying its members without ever breaking
per-entity conservation.
"""

import pytest

from repro.faults.transport import FaultyTransport
from repro.scale import harness as scale_harness
from repro.scale.harness import (
    ScaleConfig,
    audit_conservation,
    build_scale_deployment,
    run_scale,
)


@pytest.fixture(autouse=True)
def hot_set_at_region_0(monkeypatch):
    """A 16-entity hot set; all tokens at region 0: rounds guaranteed."""
    monkeypatch.setattr(scale_harness, "HOT_ENTITIES", 16)
    monkeypatch.setattr(scale_harness, "PLACEMENT", "first")


def small_config(**overrides) -> ScaleConfig:
    defaults = dict(
        entities=50,
        regions=3,
        maximum=30,
        duration=10.0,
        rate=300.0,
        seed=5,
    )
    defaults.update(overrides)
    return ScaleConfig(**defaults)


class TestDeadSiteRouting:
    def test_drivers_fail_over_around_a_crashed_host(self, monkeypatch):
        monkeypatch.setattr(scale_harness, "PLACEMENT", "spread")
        config = small_config(duration=5.0, rate=200.0)
        deployment = build_scale_deployment(config)
        dead = deployment.hosts[2]
        dead.crash()
        result = run_scale(config, deployment=deployment)
        # Every request found a live host: the directory record lists
        # all replicas and _route skips crashed ones.
        assert result.failed == 0
        assert result.submitted > 0
        assert result.committed > 0
        assert result.drained
        # The dead host's tokens sit untouched in its (stable) table, so
        # conservation holds cluster-wide.
        assert result.violations == []
        assert dead.table.total("tokens_left") == sum(
            dead.table.tokens_left
        )

    def test_all_hosts_crashed_fails_requests(self, monkeypatch):
        monkeypatch.setattr(scale_harness, "PLACEMENT", "spread")
        config = small_config(duration=2.0, rate=100.0)
        deployment = build_scale_deployment(config)
        for host in deployment.hosts:
            host.crash()
        result = run_scale(config, deployment=deployment)
        assert result.committed == 0
        assert result.failed > 0


class TestUnknownEntities:
    def test_submit_unknown_entity(self):
        deployment = build_scale_deployment(small_config(duration=1.0))
        host = deployment.hosts[0]
        assert host.submit("ghost", acquire=True, amount=1) == "unknown"
        assert host.stats()["unknown_entity"] == 1

    def test_unregistered_entity_fails_at_the_driver(self, monkeypatch):
        monkeypatch.setattr(scale_harness, "HOT_ENTITIES", 8)
        config = small_config(duration=2.0, rate=100.0)
        deployment = build_scale_deployment(config)
        # Tear half the entities out of the directory: lookups miss and
        # the driver counts a routing failure instead of crashing.
        for index in range(0, config.entities, 2):
            deployment.directory.unregister(f"e{index}")
        result = run_scale(config, deployment=deployment)
        assert result.failed > 0
        assert result.violations == []


class TestBatchesUnderFaults:
    def _run_with_faults(self, *, drop=0.0, duplicate=0.0, delay=0.0,
                         jitter=0.0, seed=5, heal_at=6.0):
        """A batched run with link faults on every host, healed before
        the end of load so the strict audit applies after the drain."""
        faulty: list[FaultyTransport] = []

        def wrap(inner):
            layer = FaultyTransport(inner, inner.kernel, seed=11)
            faulty.append(layer)
            return layer

        config = small_config(seed=seed)
        deployment = build_scale_deployment(config, transport_wrap=wrap)
        layer = faulty[0]
        names = [host.name for host in deployment.hosts]
        layer.degrade(names, drop=drop, duplicate=duplicate,
                      delay=delay, jitter=jitter)
        deployment.kernel.schedule(heal_at, layer.restore)
        result = run_scale(config, deployment=deployment)
        return result, layer, deployment

    def test_dropped_envelopes_do_not_break_conservation(self):
        result, layer, _ = self._run_with_faults(drop=0.15)
        assert layer.injected["nemesis-drop"] > 0
        assert result.drained
        assert result.violations == []
        assert result.committed > 0

    def test_duplicated_envelopes_are_absorbed_by_dedup(self):
        result, layer, deployment = self._run_with_faults(duplicate=0.5)
        assert layer.injected["duplicate"] > 0
        # Whole envelopes were re-delivered; the receivers reconstructed
        # the inner messages with their buffering-time msg_ids, so the
        # envelope dedup absorbed every replay.
        assert result.drained
        assert result.violations == []
        assert deployment.batching is not None
        assert deployment.batching.batches_sent > 0

    def test_delayed_and_reordered_envelopes_converge(self):
        result, layer, _ = self._run_with_faults(delay=0.05, jitter=0.2)
        assert layer.injected["delay"] > 0
        assert result.drained
        assert result.violations == []

    def test_combined_fault_storm(self):
        result, layer, _ = self._run_with_faults(
            drop=0.1, duplicate=0.25, delay=0.02, jitter=0.1
        )
        assert layer.injected["nemesis-drop"] > 0
        assert layer.injected["duplicate"] > 0
        assert result.drained
        assert result.violations == []
        assert result.committed > 0


class TestCrashRecovery:
    def test_crash_and_recover_mid_run_conserves(self):
        config = small_config(duration=8.0, rate=300.0)
        deployment = build_scale_deployment(config)
        victim = deployment.hosts[1]
        deployment.kernel.schedule(2.0, victim.crash)
        deployment.kernel.schedule(4.0, victim.recover)
        result = run_scale(config, deployment=deployment)
        assert result.drained
        assert result.violations == []
        assert result.committed > 0

    def test_crash_rejects_parked_queue(self):
        config = small_config(duration=4.0, rate=300.0)
        deployment = build_scale_deployment(config)
        victim = deployment.hosts[1]
        deployment.kernel.run(until=2.0)
        queued_before = victim.queued_requests()
        victim.crash()
        assert victim.queued_requests() == 0
        # Whatever was parked behind a round is now accounted as
        # rejected, not silently lost.
        if queued_before:
            assert victim.table.total("rejected") >= queued_before

    def test_audit_masks_in_flight_rounds_when_not_strict(self):
        config = small_config(duration=3.0, rate=400.0, audit=False)
        deployment = build_scale_deployment(config)
        # Stop mid-flight: some entities legitimately have rounds open.
        deployment.kernel.run(until=1.5)
        violations, audited = audit_conservation(deployment, strict=False)
        assert violations == []
        assert audited <= config.entities
