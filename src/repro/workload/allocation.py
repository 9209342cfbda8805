"""Initial token allocation policies.

§5.2: "the start allocation can also be an uneven token distribution,
based on historic data."  This module computes such allocations from the
demand history: each region's share of M_e is proportional to its
historical mean demand, so the deployment starts near the equilibrium
Avantan would otherwise have to reach through redistributions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.net.regions import Region
from repro.workload.phase_shift import shifted_trace
from repro.workload.trace import SyntheticAzureTrace


def proportional_split(maximum: int, weights: Sequence[float]) -> list[int]:
    """Split ``maximum`` tokens proportionally to ``weights``, exactly.

    Uses largest-remainder rounding so the shares sum to ``maximum`` and
    no share is negative; zero-weight entries receive zero (before
    remainder distribution).
    """
    if maximum < 0:
        raise ValueError("maximum must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(weight < 0 for weight in weights):
        raise ValueError("weights must be non-negative")
    total = float(sum(weights))
    if total == 0.0:
        # Degenerate: fall back to an even split.
        weights = [1.0] * len(weights)
        total = float(len(weights))
    raw = [maximum * weight / total for weight in weights]
    shares = [int(value) for value in raw]
    remainder = maximum - sum(shares)
    by_fraction = sorted(
        range(len(raw)), key=lambda index: raw[index] - shares[index], reverse=True
    )
    for index in by_fraction[:remainder]:
        shares[index] += 1
    return shares


def historic_allocation(
    trace: SyntheticAzureTrace,
    regions: Sequence[Region],
    maximum: int,
    window_intervals: int = 72,
    end_interval: int | None = None,
    base_region: Region = Region.US_WEST1,
) -> list[int]:
    """Split M_e across regions by recent mean demand.

    The window covers the ``window_intervals`` intervals ending at
    ``end_interval`` (where the run will start), wrapping around the
    trace if needed.  A window shorter than a day is the useful choice:
    over full days the phase-shifted regions all have identical means and
    the split degenerates to even.
    """
    if window_intervals <= 0:
        raise ValueError("window_intervals must be positive")
    weights = []
    for region in regions:
        creations = shifted_trace(trace, region, base_region)
        n = len(creations)
        end = n if end_interval is None else end_interval
        idx = (end - window_intervals + np.arange(window_intervals)) % n
        weights.append(float(np.mean(creations[idx])))
    return proportional_split(maximum, weights)
