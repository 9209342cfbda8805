"""The scale subsystem: 10^5-10^6 entities on one deployment.

The paper presents Samya for a single aggregate entity and notes (§3.1)
that a directory service generalizes it to many resources.  The naive
generalization in :mod:`repro.core.directory` — one full site group and
one flat map entry per entity — tops out orders of magnitude below the
"millions of entities" north star.  This package is the scalable
generalization, three structural changes deep:

* :mod:`repro.scale.shards` — entity ids resolve to their host group
  once per entity per directory change (a dense ``row -> record``
  route table), never once per request.
* :mod:`repro.scale.entity_table` — per-site token state lives in
  contiguous columns (``array('q')``, numpy-friendly) instead of one
  Python object per entity, with the :class:`repro.core.entity.EntityState`
  API preserved as a thin view for the protocol path.
* :mod:`repro.scale.batching` — Avantan messages for entities co-located
  on the same (src, dst) site pair within one kernel tick coalesce into
  one wire envelope, unpacked transparently on receive, so the per-round
  message count amortizes across entities while ``core/avantan/*`` stays
  untouched.

:mod:`repro.scale.site` hosts every entity of one region in a single
actor (per-entity Avantan instances are created lazily, only for
entities that ever redistribute), and :mod:`repro.scale.harness` builds
deployments, drives millions of simulated client requests, and audits
per-entity conservation vectorized.
"""

from repro.scale.batching import BatchEnvelope, BatchingTransport, BatchItem, EntityScoped
from repro.scale.entity_table import EntityTable, EntityView
from repro.scale.harness import (
    ScaleConfig,
    ScaleResult,
    build_scale_deployment,
    run_scale,
    sweep_scale,
)
from repro.scale.shards import EntityDirectory
from repro.scale.site import ScaleSiteHost

__all__ = [
    "BatchEnvelope",
    "BatchItem",
    "BatchingTransport",
    "EntityDirectory",
    "EntityScoped",
    "EntityTable",
    "EntityView",
    "ScaleConfig",
    "ScaleResult",
    "ScaleSiteHost",
    "build_scale_deployment",
    "run_scale",
    "sweep_scale",
]
