"""Adversarial fault layer: message-level nemesis over any transport.

``FaultyTransport`` decorates any :class:`repro.net.transport.Transport`
(the sim :class:`~repro.net.network.Network`, the asyncio transport, or
the TCP transport) with seeded message drops, duplicate delivery, delay
spikes/jitter, and asymmetric one-way partitions.  ``Nemesis`` samples a
randomized region-level fault schedule from a seed; the harness applies
the *same* schedule to every protocol variant and feeds the resulting
trace through the invariant auditor (``python -m repro nemesis``).
:mod:`repro.faults.schedule` is the declarative side: the
``FaultEvent`` / ``FaultSchedule`` DSL, region-level ``RegionFault``
intents, and the ``CrashController`` that applies a schedule to actors
and to the transport's fault surface.
"""

from repro.faults.nemesis import Nemesis, NemesisConfig
from repro.faults.schedule import (
    CrashController,
    FaultEvent,
    FaultSchedule,
    RegionFault,
    resolve_faults,
)
from repro.faults.transport import FaultyTransport, LinkFault

__all__ = [
    "CrashController",
    "FaultEvent",
    "FaultSchedule",
    "FaultyTransport",
    "LinkFault",
    "Nemesis",
    "NemesisConfig",
    "RegionFault",
    "resolve_faults",
]
