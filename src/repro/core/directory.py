"""Multi-entity deployments via a directory service.

The paper assumes one entity for exposition and notes (§3.1) that
letting only some sites hold specific resources "is fairly
straightforward; a run-time library can provide lookup and directory
services to identify the sites that maintain a specific resource data."
This module is that run-time library: each entity gets its own site
group (its own Avantan instances, token pool, and constraint), a
directory maps entity ids to the group, and every region's app manager
routes each client request to the closest live site *of that request's
entity*.

Entities are fully independent — a redistribution of ``"VM"`` tokens
never blocks ``"disk-gb"`` traffic — which is exactly what running the
single-entity protocol per entity buys.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.app_manager import ClosestRegionRouting
from repro.core.client import WorkloadClient
from repro.core.cluster import Deployment, split_initial_allocation
from repro.core.config import SamyaConfig
from repro.core.entity import Entity
from repro.core.requests import ClientRequest
from repro.core.site import SamyaSite
from repro.metrics.invariants import ConservationChecker
from repro.net.transport import Clock, Transport
from repro.net.regions import Region
from repro.scale.shards import EntityDirectory


@dataclass
class EntitySpec:
    """How one entity should be deployed."""

    entity: Entity
    #: Regions whose sites hold this entity; defaults to all deployment
    #: regions (the paper's simplifying assumption).
    regions: tuple[Region, ...] | None = None
    config: SamyaConfig = field(default_factory=SamyaConfig)
    predictor_factory: object = None


class _DirectoryRouting:
    """Routing policy resolving the per-entity site group first: the
    directory maps each entity id to a :class:`ClosestRegionRouting`."""

    def __init__(self, directory: EntityDirectory) -> None:
        self._directory = directory

    def select(self, request: ClientRequest, region: Region) -> str | None:
        routing = self._directory.lookup(request.entity_id)
        if routing is None:
            return None  # unknown entity -> FAILED at the app manager
        return routing.select(request, region)


class MultiEntityDeployment(Deployment):
    """Several entities, each with its own Samya site group, one network.

    Sites are named ``site-<entity>-<region>``; every region the
    deployment spans gets one app manager routing through the directory,
    shared by all entities, so a client simply tags its requests with an
    entity id.
    """

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        regions: Sequence[Region],
        specs: Sequence[EntitySpec],
    ) -> None:
        if not specs:
            raise ValueError("need at least one entity spec")
        self.regions = tuple(regions)
        self.directory = EntityDirectory()
        self.sites_by_entity: dict[str, list[SamyaSite]] = {}
        self.checkers: dict[str, ConservationChecker] = {}

        for spec in specs:
            self._deploy_entity(kernel, network, spec)

        sites = [site for group in self.sites_by_entity.values() for site in group]
        routing = _DirectoryRouting(self.directory)
        # No default entity: every client names its own.
        super().__init__(kernel, network, None, sites, routing, self.regions)

    def _deploy_entity(
        self, kernel: Clock, network: Transport, spec: EntitySpec
    ) -> None:
        entity = spec.entity
        entity_regions = spec.regions or self.regions
        unknown = set(entity_regions) - set(self.regions)
        if unknown:
            raise ValueError(f"entity {entity.id!r} placed in undeployed regions {unknown}")
        allocation = split_initial_allocation(entity.maximum, len(entity_regions))
        sites: list[SamyaSite] = []
        for region, tokens in zip(entity_regions, allocation):
            predictor = (
                spec.predictor_factory(region, 0) if spec.predictor_factory else None
            )
            site = SamyaSite(
                kernel=kernel,
                name=f"site-{entity.id}-{region.value}",
                region=region,
                network=network,
                entity=entity,
                initial_tokens=tokens,
                config=spec.config,
                predictor=predictor,
            )
            sites.append(site)
        names = [site.name for site in sites]
        for site in sites:
            site.connect(names)
        self.sites_by_entity[entity.id] = sites
        self.directory.register(entity.id, ClosestRegionRouting(sites))
        checker = ConservationChecker(entity.maximum)
        checker.watch(sites)
        self.checkers[entity.id] = checker

    # -- convenience -------------------------------------------------------

    def add_client(
        self,
        region: Region,
        entity_id: str,
        operations,
        metrics=None,
        name: str | None = None,
    ) -> WorkloadClient:
        if entity_id not in self.sites_by_entity:
            raise ValueError(f"unknown entity {entity_id!r}")
        name = name or f"client-{entity_id}-{region.value}-{len(self.clients)}"
        return self._attach_client(region, entity_id, operations, metrics, name)

    def check_all(self) -> None:
        """Audit conservation of every entity's token pool."""
        for checker in self.checkers.values():
            checker.check()

    def tokens_left(self, entity_id: str) -> int:
        return sum(site.state.tokens_left for site in self.sites_by_entity[entity_id])
