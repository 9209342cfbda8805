"""Per-region phase shifting (§5.1.2).

"Clients in different regions generate respective phase-shifted
transactional workloads": the single-region Azure trace's creation
column is rolled by the time-zone difference so each region keeps its
periodicity but peaks at a different wall-clock moment — exactly the
paper's construction.
"""

from __future__ import annotations

import numpy as np

from repro.net.regions import UTC_OFFSET_HOURS, Region
from repro.workload.trace import INTERVAL_SECONDS, SyntheticAzureTrace


def phase_shift_intervals(
    region: Region,
    base_region: Region,
    interval_seconds: float,
) -> int:
    """How many intervals to roll ``region``'s copy of the base trace."""
    offset_hours = UTC_OFFSET_HOURS[region] - UTC_OFFSET_HOURS[base_region]
    return int(round(offset_hours * 3600.0 / interval_seconds))


def shifted_trace(
    trace: SyntheticAzureTrace,
    region: Region,
    base_region: Region = Region.US_WEST1,
) -> np.ndarray:
    """Creations per interval for ``region``, phase-shifted from the base.

    Only the creation column is shifted: requests, predictors and
    allocations are all driven by demand, and each replayed acquire
    draws its own release (``repro.workload.requests``), so no caller
    replays the trace's deletion column.  A positive time-zone offset
    means the region's local peak arrives earlier in trace time, hence
    the negative roll.
    """
    shift = phase_shift_intervals(region, base_region, INTERVAL_SECONDS)
    return np.roll(trace.creations, -shift)
