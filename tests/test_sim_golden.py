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

from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_experiment
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
