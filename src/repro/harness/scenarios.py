"""The paper's §5.4 fault schedules, as region-level fault lists.

:class:`repro.faults.schedule.RegionFault` carries the intent;
``resolve_faults`` there maps it onto whichever system is under test.
"""

from __future__ import annotations

from repro.faults.schedule import RegionFault
from repro.net.regions import Region


def progressive_region_crashes(
    regions: list[Region], first_at: float, every: float
) -> list[RegionFault]:
    """The §5.4.1 schedule: crash one region at a time until one is left."""
    return [
        RegionFault(first_at + index * every, "crash", (region,))
        for index, region in enumerate(regions[:-1])
    ]


def partition_3_2(
    regions: list[Region], at: float, heal_at: float | None = None
) -> list[RegionFault]:
    """The §5.4.2 schedule: split 3 regions from the other 2."""
    if len(regions) < 5:
        raise ValueError("3-2 partition needs at least 5 regions")
    faults = [
        RegionFault(
            at, "partition", groups=(tuple(regions[:3]), tuple(regions[3:]))
        )
    ]
    if heal_at is not None:
        faults.append(RegionFault(heal_at, "heal"))
    return faults
