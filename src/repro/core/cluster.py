"""Deployment builders: wire servers, app managers, and clients together.

Mirrors the paper's setup (§5.2): one site and one client+app-manager
pair per region, the maximum limit split across sites as the initial
allocation (evenly by default, unevenly if historic data suggests it).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.app_manager import AppManager, ClosestRegionRouting, RoutingPolicy
from repro.core.client import Operation, WorkloadClient
from repro.core.config import SamyaConfig
from repro.core.entity import Entity
from repro.core.reallocation import Reallocator
from repro.core.site import SamyaSite
from repro.metrics.invariants import ConservationChecker
from repro.metrics.rounds import RoundSummary
from repro.net.transport import Clock, Transport
from repro.net.regions import Region
from repro.prediction.base import Predictor


def split_initial_allocation(maximum: int, sites: int) -> list[int]:
    """Evenly split M_e across sites; remainder to the first sites.

    The shares always sum to exactly ``maximum`` (conservation holds
    from the very first allocation) and differ by at most one token.
    A negative ``maximum`` is rejected rather than floor-divided:
    ``divmod(-1, 3)`` would yield ``[0, 0, -1]`` — "shares" that sum
    correctly but seed a site with negative tokens.
    """
    if sites <= 0:
        raise ValueError("need at least one site")
    if maximum < 0:
        raise ValueError(f"maximum must be non-negative, got {maximum}")
    share, remainder = divmod(maximum, sites)
    return [share + (1 if index < remainder else 0) for index in range(sites)]


class Deployment:
    """One wired system: its servers, an app manager per client region,
    and the clients added to it — the shell every compared system is
    deployed in, and the whole surface the harness talks to.

    A system builds and connects its servers, hands them over with the
    routing policy its app managers use, and overrides the harness-facing
    answers it has; the defaults are the neutral ones (a system with no
    redistribution protocol has no totals, rounds, token pool or pledges).
    """

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity | None,
        servers: list,
        routing: RoutingPolicy,
        client_regions: Sequence[Region],
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.entity = entity
        self.servers = servers
        self.app_managers: dict[Region, AppManager] = {
            region: AppManager(
                kernel=kernel,
                name=f"am-{region.value}",
                region=region,
                network=network,
                routing=routing,
            )
            for region in client_regions
        }
        self.clients: list[WorkloadClient] = []

    def add_client(
        self,
        region: Region,
        operations: list[Operation],
        metrics=None,
        name: str | None = None,
    ) -> WorkloadClient:
        name = name or f"client-{region.value}-{len(self.clients)}"
        return self._attach_client(region, self.entity.id, operations, metrics, name)

    def _attach_client(
        self, region: Region, entity_id: str, operations, metrics, name: str
    ) -> WorkloadClient:
        client = WorkloadClient(
            kernel=self.kernel,
            name=name,
            region=region,
            app_manager=self.app_managers[region],
            entity_id=entity_id,
            operations=operations,
            metrics=metrics,
        )
        self.clients.append(client)
        return client

    def start(self) -> None:
        for client in self.clients:
            client.start()

    # -- what the harness asks of any system ----------------------------------

    def redistribution_totals(self) -> dict[str, int]:
        return {}

    def round_summary(self) -> dict[str, float]:
        return {}

    def total_tokens_left(self) -> int | None:
        return None

    def unresolved_pledges(self) -> int:
        return 0

    def make_checker(self, maximum: int) -> ConservationChecker | None:
        """A checker over the servers, where they partition a token pool."""
        return None


class SamyaCluster(Deployment):
    """A fully wired Samya deployment over one kernel and network."""

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity,
        regions: Sequence[Region],
        sites_per_region: int = 1,
        config: SamyaConfig | None = None,
        predictor_factory: Callable[[Region, int], Predictor | None] | None = None,
        reallocator: Reallocator | None = None,
        initial_allocation: Sequence[int] | None = None,
    ) -> None:
        self.config = config or SamyaConfig()
        placements = [
            (region, replica)
            for replica in range(sites_per_region)
            for region in regions
        ]
        if initial_allocation is None:
            allocation = split_initial_allocation(entity.maximum, len(placements))
        else:
            allocation = list(initial_allocation)
            if len(allocation) != len(placements):
                raise ValueError(
                    f"initial_allocation has {len(allocation)} entries for "
                    f"{len(placements)} sites"
                )
            if sum(allocation) != entity.maximum:
                raise ValueError("initial_allocation must sum to the entity maximum")

        sites: list[SamyaSite] = []
        for (region, replica), tokens in zip(placements, allocation):
            suffix = f"-{replica}" if sites_per_region > 1 else ""
            predictor = (
                predictor_factory(region, replica) if predictor_factory else None
            )
            site = SamyaSite(
                kernel=kernel,
                name=f"site-{region.value}{suffix}",
                region=region,
                network=network,
                entity=entity,
                initial_tokens=tokens,
                config=self.config,
                predictor=predictor,
                reallocator=reallocator,
            )
            sites.append(site)

        site_names = [site.name for site in sites]
        for site in sites:
            site.connect(site_names)

        routing = ClosestRegionRouting(sites)
        super().__init__(kernel, network, entity, sites, routing, regions)
        self.sites = sites

    def total_tokens_left(self) -> int:
        return sum(site.state.tokens_left for site in self.sites)

    def redistribution_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for site in self.sites:
            for key, value in site.redistribution_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def round_summary(self) -> dict[str, float]:
        """Aggregate per-round protocol trace (durations, outcomes)."""
        return RoundSummary.from_logs(
            [site.protocol.rounds for site in self.sites if site.protocol is not None]
        ).as_dict()

    def unresolved_pledges(self) -> int:
        """Sites still holding a frozen (pledged) balance."""
        return sum(1 for site in self.sites if site.unresolved_pledge is not None)

    def make_checker(self, maximum: int) -> ConservationChecker | None:
        if not self.config.enforce_constraint:
            return None  # the "No Constraints" ablation conserves nothing
        checker = ConservationChecker(maximum)
        checker.watch(self.sites)
        return checker
