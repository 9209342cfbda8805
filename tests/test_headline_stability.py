"""Seed-stability of the paper's headline results.

The benchmarks assert shapes on one seed; these integration tests check
the two load-bearing orderings hold across several seeds on short runs,
so a lucky seed cannot hide a regression.
"""

import pytest

from repro.harness import ExperimentConfig, experiment, run_experiment
from repro.workload.trace import TraceConfig


@pytest.fixture(autouse=True)
def audit_every_15_s(monkeypatch):
    monkeypatch.setattr(experiment, "INVARIANT_INTERVAL", 15.0)

SEEDS = (1, 7, 23)


def quick(system, seed, **overrides):
    defaults = dict(
        system=system,
        duration=60.0,
        seed=seed,
        trace=TraceConfig(days=2.0, seed=seed),
    )
    defaults.update(overrides)
    return run_experiment(ExperimentConfig(**defaults))


class TestHeadlineAcrossSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_samya_dominates_consensus_per_transaction(self, seed):
        samya = quick("samya-majority", seed)
        multipax = quick("multipaxsys", seed)
        assert samya.committed > 5 * multipax.committed, (
            seed, samya.committed, multipax.committed,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_samya_local_latency_across_seeds(self, seed):
        samya = quick("samya-majority", seed)
        assert samya.latency.p90 < 0.010, (seed, samya.latency.p90)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conservation_audits_pass_for_both_variants(self, seed):
        for system in ("samya-majority", "samya-star"):
            result = quick(system, seed)
            assert result.invariant_checks > 0
            assert result.tokens_left_total is not None

    def test_identical_config_is_bit_stable(self):
        """The same config twice yields identical committed counts and
        final token placement — full-stack determinism."""
        first = quick("samya-star", 7)
        second = quick("samya-star", 7)
        assert first.committed == second.committed
        assert first.tokens_left_total == second.tokens_left_total
        assert first.redistributions == second.redistributions
