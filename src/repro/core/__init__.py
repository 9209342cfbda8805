"""Samya core: the paper's primary contribution.

Sites store dis-aggregated fractions of an aggregate value (tokens of an
entity) and serve acquire/release transactions locally; when local supply
cannot meet (predicted) demand they run the Avantan consensus protocol to
redistribute spare tokens (§4).
"""

from repro.core.entity import Entity, EntityState, SiteTokenState
from repro.core.config import SamyaConfig
from repro.core.requests import (
    ClientRequest,
    ClientResponse,
    RequestKind,
    RequestStatus,
)
from repro.core.site import SamyaSite
from repro.core.app_manager import AppManager
from repro.core.client import WorkloadClient
from repro.core.cluster import SamyaCluster
from repro.core.reallocation import (
    GreedyMaxUsageReallocator,
    ProportionalReallocator,
    EqualSplitReallocator,
    redistribute_tokens,
)
from repro.core.directory import EntityDirectory, EntitySpec, MultiEntityDeployment

__all__ = [
    "Entity",
    "EntityState",
    "SiteTokenState",
    "SamyaConfig",
    "ClientRequest",
    "ClientResponse",
    "RequestKind",
    "RequestStatus",
    "SamyaSite",
    "AppManager",
    "WorkloadClient",
    "SamyaCluster",
    "GreedyMaxUsageReallocator",
    "ProportionalReallocator",
    "EqualSplitReallocator",
    "redistribute_tokens",
    "EntityDirectory",
    "EntitySpec",
    "MultiEntityDeployment",
]
