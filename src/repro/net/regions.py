"""GCP regions and the inter-region latency model.

The paper deploys in five regions (US-West1, Asia-East2, Europe-West2,
Australia-Southeast1, SouthAmerica-East1) plus, for the MultiPaxSys
placement, two additional US regions so that three of five replicas are
US-local (§5.2).  The round-trip figures below are representative public
GCP inter-region measurements (milliseconds); intra-region RTT is ~1.4 ms,
matching the paper's p90 local commit latency in Table 2b.

Also recorded per region: a UTC offset in hours, used by the workload
phase-shifter (§5.1.2).
"""

from __future__ import annotations

import enum


class Region(str, enum.Enum):
    """A cloud region.  Value doubles as the canonical name."""

    US_WEST1 = "us-west1"
    US_CENTRAL1 = "us-central1"
    US_EAST1 = "us-east1"
    EUROPE_WEST2 = "europe-west2"
    ASIA_EAST2 = "asia-east2"
    AUSTRALIA_SOUTHEAST1 = "australia-southeast1"
    SOUTHAMERICA_EAST1 = "southamerica-east1"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The five regions used for Samya in the paper's experiments (§5.2).
PAPER_REGIONS: tuple[Region, ...] = (
    Region.US_WEST1,
    Region.ASIA_EAST2,
    Region.EUROPE_WEST2,
    Region.AUSTRALIA_SOUTHEAST1,
    Region.SOUTHAMERICA_EAST1,
)

#: MultiPaxSys placement: 3 of 5 replicas inside the US (§5.2).
MULTIPAXSYS_REGIONS: tuple[Region, ...] = (
    Region.US_WEST1,
    Region.US_CENTRAL1,
    Region.US_EAST1,
    Region.ASIA_EAST2,
    Region.EUROPE_WEST2,
)

#: UTC offsets (hours) used to phase-shift the per-region demand trace.
UTC_OFFSET_HOURS: dict[Region, float] = {
    Region.US_WEST1: -8.0,
    Region.US_CENTRAL1: -6.0,
    Region.US_EAST1: -5.0,
    Region.EUROPE_WEST2: 0.0,
    Region.ASIA_EAST2: 8.0,
    Region.AUSTRALIA_SOUTHEAST1: 10.0,
    Region.SOUTHAMERICA_EAST1: -3.0,
}

#: Intra-region round trip (ms): client <-> server inside one region.
INTRA_REGION_RTT_MS = 1.4

# Representative inter-region round-trip times in milliseconds.  Stored
# upper-triangular; symmetric lookup below.
_RTT_MS: dict[tuple[Region, Region], float] = {
    (Region.US_WEST1, Region.US_CENTRAL1): 35.0,
    (Region.US_WEST1, Region.US_EAST1): 60.0,
    (Region.US_WEST1, Region.EUROPE_WEST2): 140.0,
    (Region.US_WEST1, Region.ASIA_EAST2): 155.0,
    (Region.US_WEST1, Region.AUSTRALIA_SOUTHEAST1): 140.0,
    (Region.US_WEST1, Region.SOUTHAMERICA_EAST1): 190.0,
    (Region.US_CENTRAL1, Region.US_EAST1): 30.0,
    (Region.US_CENTRAL1, Region.EUROPE_WEST2): 105.0,
    (Region.US_CENTRAL1, Region.ASIA_EAST2): 170.0,
    (Region.US_CENTRAL1, Region.AUSTRALIA_SOUTHEAST1): 170.0,
    (Region.US_CENTRAL1, Region.SOUTHAMERICA_EAST1): 150.0,
    (Region.US_EAST1, Region.EUROPE_WEST2): 80.0,
    (Region.US_EAST1, Region.ASIA_EAST2): 200.0,
    (Region.US_EAST1, Region.AUSTRALIA_SOUTHEAST1): 200.0,
    (Region.US_EAST1, Region.SOUTHAMERICA_EAST1): 120.0,
    (Region.EUROPE_WEST2, Region.ASIA_EAST2): 220.0,
    (Region.EUROPE_WEST2, Region.AUSTRALIA_SOUTHEAST1): 250.0,
    (Region.EUROPE_WEST2, Region.SOUTHAMERICA_EAST1): 190.0,
    (Region.ASIA_EAST2, Region.AUSTRALIA_SOUTHEAST1): 130.0,
    (Region.ASIA_EAST2, Region.SOUTHAMERICA_EAST1): 310.0,
    (Region.AUSTRALIA_SOUTHEAST1, Region.SOUTHAMERICA_EAST1): 290.0,
}


def rtt(a: Region, b: Region) -> float:
    """Round-trip time between two regions in **seconds**."""
    if a == b:
        return INTRA_REGION_RTT_MS / 1000.0
    ms = _RTT_MS.get((a, b))
    if ms is None:
        ms = _RTT_MS.get((b, a))
    if ms is None:
        raise KeyError(f"no latency entry for {a} <-> {b}")
    return ms / 1000.0


def one_way_latency(a: Region, b: Region) -> float:
    """Base one-way network latency between two regions in seconds."""
    return rtt(a, b) / 2.0
