"""Determinism pins: fixed-seed sim runs must reproduce exact numbers.

The transport/clock abstraction (repro.net.transport) was extracted from
under the sim without touching its logic; these goldens are the proof
that stays true.  Any change to event ordering, RNG stream consumption,
or message scheduling shifts at least the latency percentiles — they are
compared bit-for-bit, not approximately.

If a *deliberate* behaviour change moves these numbers, re-capture them
in the same commit and say so in the commit message.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultyTransport
from repro.harness import experiment
from repro.harness.experiment import Experiment, ExperimentConfig, run_experiment
from repro.net.network import Network, NetworkConfig
from repro.sim.kernel import Kernel
from repro.workload.trace import TraceConfig


@pytest.fixture(autouse=True)
def audit_every_15_s(monkeypatch):
    monkeypatch.setattr(experiment, "INVARIANT_INTERVAL", 15.0)


def _config(system: str) -> ExperimentConfig:
    return ExperimentConfig(
        system=system,
        duration=60.0,
        seed=11,
        trace=TraceConfig(days=2.0, seed=11),
    )


def test_samya_majority_golden():
    result = run_experiment(_config("samya-majority"))
    assert result.committed == 5570
    assert result.rejected == 0
    assert result.failed == 0
    assert result.shed == 22
    assert result.tokens_left_total == 3122
    assert result.latency.p50 == 0.0018030166497453592
    assert result.latency.p90 == 0.0019117449766952177
    assert result.latency.p99 == 0.0020125785255515893
    assert result.redistributions["completed"] == 5
    assert result.invariant_checks > 0


def test_multipaxsys_golden():
    result = run_experiment(_config("multipaxsys"))
    assert result.committed == 982
    assert result.rejected == 0
    assert result.failed == 0
    assert result.shed == 4573
    assert result.latency.p50 == 2.302633889358809
    assert result.latency.p90 == 2.415247244808892
    assert result.latency.p99 == 2.4765886156780255


#: Every Avantan message type, as ``flow_snapshot["types"]`` names it.
AVANTAN_TYPES = (
    "ElectionGetValue", "ElectionOkValue", "ElectionReject", "AcceptValueMsg",
    "AcceptOk", "DecisionMsg", "DiscardRedistribution", "AbortRedistribution",
    "RecoveryQuery", "RecoveryReply",
)

#: One lossy run per variant: committed, rejected, failed, shed, tokens
#: left, p50, then the redistribution counters, then the Avantan frames.
#: The star values hold only with this module's 15 s audit interval.
ROUND_SKELETON_PINS = {
    "samya-star": (
        (596, 72, 129, 9828, 717, 0.0018599934911343041),
        {"triggered": 34, "completed": 35, "aborted": 134, "leader_rounds": 34,
         "pledge_recoveries": 0},
        {"ElectionGetValue": 249, "ElectionOkValue": 112, "ElectionReject": 84,
         "AcceptValueMsg": 35, "AcceptOk": 28, "DecisionMsg": 32,
         "DiscardRedistribution": 224, "AbortRedistribution": 39,
         "RecoveryQuery": 40, "RecoveryReply": 34},
    ),
    "samya-majority": (
        (320, 1, 134, 10170, 816, 1.010872402882093),
        {"triggered": 133, "completed": 285, "aborted": 11, "leader_rounds": 153,
         "pledge_recoveries": 127},
        {"ElectionGetValue": 1116, "ElectionOkValue": 560, "AcceptValueMsg": 489,
         "AcceptOk": 376, "DecisionMsg": 386},
    ),
}


@pytest.mark.parametrize("system", sorted(ROUND_SKELETON_PINS, reverse=True))
def test_round_skeleton_golden(system):
    """Both Avantan variants under 20% drops and 5% duplicates to every
    site, so star's abort, discard and recovery paths all run: every
    message of every round path is counted here, bit for bit."""
    kernel = Kernel(seed=3)
    network = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=3)
    run = Experiment(
        ExperimentConfig(
            system=system, seed=3, duration=60.0, maximum=1000, demand_scale=2.0,
            sites_per_region=2, flow=True, audit=True,
        ),
        kernel=kernel,
        network=network,
    )
    network.degrade(
        [server.name for server in run.servers], drop=0.2, duplicate=0.05
    )
    run.start()
    kernel.run(until=60.0)
    result = run.collect()
    outcomes, rounds, frames = ROUND_SKELETON_PINS[system]
    assert (
        result.committed, result.rejected, result.failed, result.shed,
        result.tokens_left_total, result.latency.p50,
    ) == outcomes
    assert {key: result.redistributions[key] for key in rounds} == rounds
    assert result.audit_violations == []
    assert {
        row["msg_type"]: row["frames"]
        for row in result.flow_snapshot["types"]
        if row["msg_type"] in AVANTAN_TYPES
    } == frames


def test_tokens_left_total_is_settled_at_the_cut():
    """A run cut while a decided value is still in flight reports settled
    balances, so Eq. 1 holds on the result's own fields.

    Seed 33, 120 s is the e2e benchmark's ``sim_paper`` unit at that seed.
    Its cut falls after a leader applied a decided value and before the
    Decision reached the other participants, so the raw per-site sum
    counts their pooled tokens twice.
    """
    run = Experiment(ExperimentConfig(system="samya-majority", duration=120.0, seed=33))
    result = run.run()
    assert run.cluster.total_tokens_left() != result.tokens_left_total
    redis = result.redistributions
    assert (
        result.tokens_left_total + redis["acquired_tokens"] - redis["released_tokens"]
        == run.config.maximum
    )
