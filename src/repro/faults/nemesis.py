"""Nemesis: seeded randomized fault schedules (Jepsen-lite).

Samples a region-level fault schedule from a seed: a sequence of
non-overlapping fault windows, each opening one fault (crash a region,
partition the regions, block one direction, degrade links) and closing
it again before the next window.  Region-level faults resolve to actor
names per system (``repro.harness.scenarios.resolve_faults``), so the
*same* schedule drives Samya, MultiPaxSys, and Demarcation — the point
of the harness is comparing how each absorbs identical adversity.

Every schedule ends with a quiet period (no fault active after
``duration - quiet_period``) long enough for clients to resolve or
write off every outstanding request, which is what makes the harness's
liveness assertion meaningful: after the final heal, the system must
answer again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.schedule import RegionFault
from repro.net.regions import Region

_KINDS = ("crash", "partition", "partition-oneway", "degrade")

#: Fault-free head: clients ramp up before the first fault.
WARMUP = 10.0

#: Degradation ceilings (each degrade window samples below these).
MAX_DROP = 0.25
MAX_DUPLICATE = 0.25
MAX_DELAY = 0.3
MAX_JITTER = 0.2

#: Number of fault windows carved out of the active period.
WINDOWS = 4


@dataclass(frozen=True)
class NemesisConfig:
    """Shape of the sampled schedule."""

    duration: float = 120.0
    #: Fault-free tail: no fault is active after ``duration - quiet_period``.
    quiet_period: float = 40.0

    def __post_init__(self) -> None:
        if self.duration - self.quiet_period - WARMUP < 10.0 * WINDOWS:
            raise ValueError(
                f"nemesis needs >= 10 s of active time per window "
                f"({WINDOWS} windows); shorten quiet_period: {self!r}"
            )


class Nemesis:
    """Samples one randomized region-level fault schedule from a seed."""

    def __init__(
        self,
        seed: int,
        regions: tuple[Region, ...],
        config: NemesisConfig | None = None,
    ) -> None:
        if len(regions) < 3:
            raise ValueError("nemesis needs at least 3 regions to split")
        self.seed = seed
        self.regions = tuple(regions)
        self.config = config or NemesisConfig()

    def schedule(self) -> tuple[RegionFault, ...]:
        """The sampled schedule: every fault opened is closed in-window.

        Re-seeded per call, so repeated calls (and ``describe``) return
        the identical schedule.
        """
        config = self.config
        rng = self._rng = random.Random(f"nemesis:{self.seed}")
        active_start = WARMUP
        active_end = config.duration - config.quiet_period
        span = (active_end - active_start) / WINDOWS
        faults: list[RegionFault] = []
        for index in range(WINDOWS):
            slot_start = active_start + index * span
            # Pad both ends so consecutive windows never touch: a heal
            # must land before the next fault opens.
            pad = span * 0.15
            begin = slot_start + pad + rng.random() * pad
            end = slot_start + span - pad - rng.random() * pad
            faults.extend(self._window(rng.choice(_KINDS), begin, end))
        return tuple(faults)

    def _window(self, kind: str, begin: float, end: float) -> list[RegionFault]:
        rng = self._rng
        regions = list(self.regions)
        if kind == "crash":
            # At most a minority of regions dies at once, so every
            # variant retains a live quorum to keep serving against.
            count = rng.randint(1, max(1, (len(regions) - 1) // 2))
            victims = tuple(rng.sample(regions, count))
            return [
                RegionFault(begin, "crash", victims),
                RegionFault(end, "recover", victims),
            ]
        if kind == "partition":
            rng.shuffle(regions)
            cut = rng.randint(1, len(regions) - 1)
            groups = (tuple(regions[:cut]), tuple(regions[cut:]))
            return [
                RegionFault(begin, "partition", groups=groups),
                RegionFault(end, "heal"),
            ]
        if kind == "partition-oneway":
            rng.shuffle(regions)
            cut = rng.randint(1, len(regions) - 1)
            groups = (tuple(regions[:cut]), tuple(regions[cut:]))
            return [
                RegionFault(begin, "partition-oneway", groups=groups),
                RegionFault(end, "heal"),
            ]
        count = rng.randint(1, max(1, len(regions) // 2))
        victims = tuple(rng.sample(regions, count))
        return [
            RegionFault(
                begin,
                "degrade",
                victims,
                drop=rng.uniform(0.05, MAX_DROP),
                duplicate=rng.uniform(0.05, MAX_DUPLICATE),
                delay=rng.uniform(0.0, MAX_DELAY),
                jitter=rng.uniform(0.0, MAX_JITTER),
            ),
            RegionFault(end, "restore", victims),
        ]

    def describe(self) -> list[str]:
        """Human-readable rows for one sampled schedule (stable per seed)."""
        rows = []
        for fault in self.schedule():
            what = fault.action
            if fault.regions:
                what += " " + ",".join(region.value for region in fault.regions)
            if fault.groups:
                what += " " + "|".join(
                    ",".join(region.value for region in group)
                    for group in fault.groups
                )
            if fault.action == "degrade":
                what += (
                    f" drop={fault.drop:.2f} dup={fault.duplicate:.2f}"
                    f" delay={fault.delay:.2f}s jitter={fault.jitter:.2f}s"
                )
            rows.append(f"t={fault.time:6.1f}s  {what}")
        return rows
