"""Shared fixtures and mini-cluster builders for the test suite."""

from __future__ import annotations

import random

from repro.core.client import Operation
from repro.core.cluster import SamyaCluster
from repro.core.config import AvantanVariant, SamyaConfig
from repro.core.entity import Entity
from repro.core.requests import RequestKind
from repro.metrics.hub import MetricsHub
from repro.metrics.invariants import ConservationChecker
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS, Region
from repro.sim.kernel import Kernel


def fast_config(variant: AvantanVariant = AvantanVariant.MAJORITY, **overrides) -> SamyaConfig:
    """A SamyaConfig with short timers so protocol tests run quickly.  The
    proactive check interval, a module constant, is shortened to 0.5 s
    by ``tests/conftest.py`` in every module that imports these helpers."""
    defaults = dict(
        variant=variant,
        epoch_seconds=1.0,
        election_timeout=0.8,
        cohort_timeout=2.0,
        blocked_retry_interval=2.0,
        redistribution_cooldown=1.0,
        reactive_cooldown=0.5,
    )
    defaults.update(overrides)
    return SamyaConfig(**defaults)


class MiniCluster:
    """A small Samya deployment plus the bookkeeping tests need."""

    def __init__(
        self,
        variant: AvantanVariant = AvantanVariant.MAJORITY,
        regions: tuple[Region, ...] = tuple(PAPER_REGIONS[:3]),
        maximum: int = 300,
        seed: int = 1,
        loss: float = 0.0,
        config: SamyaConfig | None = None,
        predictor_factory=None,
    ) -> None:
        self.kernel = Kernel(seed=seed)
        self.network = Network(self.kernel, NetworkConfig(loss_probability=loss))
        self.entity = Entity("VM", maximum)
        self.config = config or fast_config(variant)
        self.cluster = SamyaCluster(
            kernel=self.kernel,
            network=self.network,
            entity=self.entity,
            regions=regions,
            config=self.config,
            predictor_factory=predictor_factory,
        )
        self.metrics = MetricsHub()
        self.checker = ConservationChecker(maximum)
        self.checker.watch(self.cluster.sites)

    @property
    def sites(self):
        return self.cluster.sites

    def site(self, index: int):
        return self.cluster.sites[index]

    def client_for(self, region: Region, operations: list[Operation]):
        return self.cluster.add_client(region, operations, metrics=self.metrics)

    def run(self, until: float) -> None:
        self.cluster.start()
        self.kernel.run(until=until)

    def run_more(self, until: float) -> None:
        self.kernel.run(until=until)

    def check(self) -> None:
        self.checker.check()


def uniform_ops(
    seed: int,
    count: int,
    rate: float,
    acquire_fraction: float = 0.7,
    amount: int = 1,
    start: float = 0.0,
) -> list[Operation]:
    """A Poisson stream of mixed acquire/release operations."""
    rng = random.Random(seed)
    operations = []
    t = start
    for _ in range(count):
        t += rng.expovariate(rate)
        kind = (
            RequestKind.ACQUIRE
            if rng.random() < acquire_fraction
            else RequestKind.RELEASE
        )
        operations.append(Operation(t, kind, amount))
    return operations


def acquire_burst(start: float, count: int, spacing: float = 0.01, amount: int = 1) -> list[Operation]:
    return [
        Operation(start + index * spacing, RequestKind.ACQUIRE, amount)
        for index in range(count)
    ]
