"""Interval demand -> timed client operations (§5.1.2).

Sampling-interval compression is modelled exactly as the paper does it:
"the same number of requests that arrived in a span of 5 minutes in the
original dataset now arrive in a span of 5 seconds".  Each original
interval i maps onto the compressed window
``[i * compressed, (i+1) * compressed)`` and its creations are spread
uniformly at random inside that window; each creation draws its own
deletion an exponential lifetime later.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter

import numpy as np

from repro.core.client import Operation
from repro.core.requests import RequestKind
from repro.net.regions import Region
from repro.workload.phase_shift import shifted_trace
from repro.workload.trace import VM_LIFETIME_INTERVALS, SyntheticAzureTrace


def operations_from_trace(
    creations: np.ndarray,
    compressed_interval: float,
    duration: float,
    rng: random.Random,
    lifetime_intervals: float = 6.0,
    amount: int = 1,
    start_interval: int = 0,
) -> list[Operation]:
    """Convert per-interval creation counts into a timed operation list.

    Acquire times spread uniformly inside each compressed window; every
    acquire schedules its own release an exponential VM lifetime later —
    the same death model the trace generator uses for its deletion
    series.  Deriving releases from the replayed acquires (rather than
    replaying the trace's deletion column) keeps creations and deletions
    coupled no matter where in the trace the load window starts or how a
    region's copy is phase-shifted.

    The lifetime is ``rng.expovariate(lambd)`` spelled out as CPython
    writes it, in the same draw order, so the list is the one the method
    call would give at a fraction of the per-operation cost.
    """
    if compressed_interval <= 0:
        raise ValueError("compressed_interval must be positive")
    if lifetime_intervals <= 0:
        raise ValueError("lifetime_intervals must be positive")
    operations: list[Operation] = []
    append = operations.append
    draw = rng.random
    log = math.log
    acquire, release = RequestKind.ACQUIRE, RequestKind.RELEASE
    lambd = 1.0 / (lifetime_intervals * compressed_interval)
    intervals = int(np.ceil(duration / compressed_interval))
    for k in range(intervals):
        index = (start_interval + k) % len(creations)
        window_start = k * compressed_interval
        window_end = min((k + 1) * compressed_interval, duration)
        width = window_end - window_start
        if width <= 0:
            break
        for _ in range(int(creations[index])):
            born = window_start + draw() * width
            append(Operation(born, acquire, amount))
            dies = born + -log(1.0 - draw()) / lambd
            if dies < duration:
                append(Operation(dies, release, amount))
    operations.sort(key=attrgetter("time"))
    return operations


def regional_operations(
    trace: SyntheticAzureTrace,
    regions: list[Region],
    duration: float,
    compressed_interval: float = 5.0,
    seed: int = 11,
    base_region: Region = Region.US_WEST1,
    start_interval: int = 0,
    demand_scale: float = 1.0,
) -> dict[Region, list[Operation]]:
    """Phase-shifted per-region operation lists for one experiment.

    ``demand_scale`` uniformly thins (scale < 1) or thickens the trace,
    used by the scalability sweep to keep per-site load comparable.
    """
    per_region: dict[Region, list[Operation]] = {}
    for region in regions:
        creations = shifted_trace(trace, region, base_region)
        if demand_scale != 1.0:
            creations = np.round(creations * demand_scale).astype(np.int64)
        rng = random.Random(f"{seed}:{region.value}")
        per_region[region] = operations_from_trace(
            creations,
            compressed_interval,
            duration,
            rng,
            lifetime_intervals=VM_LIFETIME_INTERVALS,
            start_interval=start_interval,
        )
    return per_region


def demand_per_compressed_interval(
    trace: SyntheticAzureTrace,
    region: Region,
    base_region: Region = Region.US_WEST1,
) -> np.ndarray:
    """The per-epoch demand series a site in ``region`` will observe —
    used to pre-train that site's predictor, as the paper trains on
    historical demand data."""
    return shifted_trace(trace, region, base_region)
