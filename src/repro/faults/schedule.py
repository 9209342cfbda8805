"""Fault injection: scheduled crashes, partitions, and link degradation.

Scenarios are declarative lists of :class:`FaultEvent` applied by a
:class:`CrashController` at their scheduled simulated times.  The failure
experiments of §5.4 are region-level ("both the site and the client in a
region is crashed", "a 3-2 network partition"): a :class:`RegionFault`
captures that intent and :func:`resolve_faults` maps it onto the concrete
actor names of whichever system is under test (the §5.4 schedules
themselves are in ``repro.harness.scenarios``).

Beyond the paper's clean crash/partition model, the DSL covers the
message-level and asymmetric faults that dominate real WAN misbehaviour:

* ``degrade`` — probabilistic drops, duplicate delivery, and delay
  spikes/jitter on every link touching the named actors;
* ``restore`` — clear a degradation;
* ``partition-oneway`` — block traffic from one group to another while
  the reverse direction keeps flowing.

These three require a fault-capable transport (a
:class:`~repro.faults.transport.FaultyTransport` wrapping the real one);
applying them to a bare transport is a configuration error and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.regions import Region
from repro.net.transport import Clock, Transport
from repro.sim.process import Actor

_ACTIONS = (
    "crash",
    "recover",
    "partition",
    "heal",
    "degrade",
    "restore",
    "partition-oneway",
)

#: Actions that name concrete actors in ``targets``.
_TARGETED = ("crash", "recover", "degrade", "restore")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    ``action`` is one of ``"crash"``, ``"recover"``, ``"partition"``,
    ``"heal"``, ``"degrade"``, ``"restore"``, ``"partition-oneway"``.
    ``targets`` names the actors to crash/recover/degrade/restore; for a
    partition, ``groups`` gives the connectivity groups (exactly two for
    the one-way form: traffic ``groups[0] -> groups[1]`` is blocked).
    ``drop``/``duplicate``/``delay``/``jitter`` parameterize ``degrade``.
    """

    time: float
    action: str
    targets: tuple[str, ...] = ()
    groups: tuple[tuple[str, ...], ...] = ()
    #: Link-degradation parameters (``degrade`` only): per-message drop
    #: and duplicate probabilities, plus a fixed delay spike and uniform
    #: extra jitter in seconds.
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action in _TARGETED and not self.targets:
            raise ValueError(f"{self.action} fault names no targets: {self!r}")
        if self.action in ("partition", "partition-oneway"):
            seen: set[str] = set()
            for group in self.groups:
                for name in group:
                    if name in seen:
                        raise ValueError(
                            f"endpoint {name!r} appears in two groups: {self!r}"
                        )
                    seen.add(name)
        if self.action == "partition-oneway":
            if len(self.groups) != 2 or not all(self.groups):
                raise ValueError(
                    f"one-way partition needs exactly two non-empty groups: {self!r}"
                )
        if not 0.0 <= self.drop <= 1.0 or not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(f"drop/duplicate must be probabilities: {self!r}")
        if self.delay < 0.0 or self.jitter < 0.0:
            raise ValueError(f"delay/jitter must be non-negative: {self!r}")


@dataclass
class FaultSchedule:
    """An ordered collection of fault events."""

    events: list[FaultEvent] = field(default_factory=list)

    def crash(self, time: float, *targets: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "crash", tuple(targets)))
        return self

    def recover(self, time: float, *targets: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "recover", tuple(targets)))
        return self

    def partition(self, time: float, *groups: tuple[str, ...]) -> "FaultSchedule":
        self.events.append(
            FaultEvent(time, "partition", groups=tuple(tuple(g) for g in groups))
        )
        return self

    def heal(self, time: float) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "heal"))
        return self

    def degrade(
        self,
        time: float,
        *targets: str,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        jitter: float = 0.0,
    ) -> "FaultSchedule":
        self.events.append(
            FaultEvent(
                time,
                "degrade",
                tuple(targets),
                drop=drop,
                duplicate=duplicate,
                delay=delay,
                jitter=jitter,
            )
        )
        return self

    def restore(self, time: float, *targets: str) -> "FaultSchedule":
        self.events.append(FaultEvent(time, "restore", tuple(targets)))
        return self

    def partition_oneway(
        self, time: float, src_group: tuple[str, ...], dst_group: tuple[str, ...]
    ) -> "FaultSchedule":
        self.events.append(
            FaultEvent(
                time, "partition-oneway", groups=(tuple(src_group), tuple(dst_group))
            )
        )
        return self


@dataclass(frozen=True)
class RegionFault:
    """One region-level fault action.

    ``action``: ``"crash"`` / ``"recover"`` / ``"degrade"`` /
    ``"restore"`` (use ``regions``) or ``"partition"`` /
    ``"partition-oneway"`` / ``"heal"`` (use ``groups``).  The
    ``drop``/``duplicate``/``delay``/``jitter`` fields parameterize
    ``degrade`` (see :class:`FaultEvent`).
    """

    time: float
    action: str
    regions: tuple[Region, ...] = ()
    groups: tuple[tuple[Region, ...], ...] = ()
    include_clients: bool = True
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0


def resolve_faults(
    faults: list[RegionFault],
    servers_by_region: dict[Region, list[str]],
    clients_by_region: dict[Region, list[str]],
    extra_by_region: dict[Region, list[str]] | None = None,
) -> FaultSchedule:
    """Translate region-level faults into a concrete actor schedule.

    ``extra_by_region`` covers co-located infrastructure (app managers)
    that partitions must cut off along with their region's servers.
    """
    schedule = FaultSchedule()
    extras = extra_by_region or {}

    def names_for(region: Region, include_clients: bool) -> list[str]:
        names = list(servers_by_region.get(region, []))
        names.extend(extras.get(region, []))
        if include_clients:
            names.extend(clients_by_region.get(region, []))
        return names

    def group_names(groups: tuple[tuple[Region, ...], ...]) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(
                name
                for region in group
                for name in names_for(region, include_clients=True)
            )
            for group in groups
        )

    for fault in sorted(faults, key=lambda f: f.time):
        if fault.action in ("crash", "recover", "degrade", "restore"):
            targets: list[str] = []
            for region in fault.regions:
                targets.extend(names_for(region, fault.include_clients))
            if not targets:
                # A region with no actors in this deployment (e.g. a
                # MultiPaxSys placement without replicas there): nothing
                # to fault, and an empty targeted FaultEvent is invalid.
                continue
            if fault.action == "crash":
                schedule.crash(fault.time, *targets)
            elif fault.action == "recover":
                schedule.recover(fault.time, *targets)
            elif fault.action == "degrade":
                schedule.degrade(
                    fault.time,
                    *targets,
                    drop=fault.drop,
                    duplicate=fault.duplicate,
                    delay=fault.delay,
                    jitter=fault.jitter,
                )
            else:
                schedule.restore(fault.time, *targets)
        elif fault.action == "partition":
            schedule.partition(fault.time, *group_names(fault.groups))
        elif fault.action == "partition-oneway":
            src_group, dst_group = group_names(fault.groups)
            if not src_group or not dst_group:
                continue
            schedule.partition_oneway(fault.time, src_group, dst_group)
        elif fault.action == "heal":
            schedule.heal(fault.time)
        else:
            raise ValueError(f"unknown region fault action {fault.action!r}")
    return schedule


class CrashController:
    """Applies a :class:`FaultSchedule` to a set of actors and a network."""

    def __init__(self, kernel: Clock, network: Transport) -> None:
        self.kernel = kernel
        self.network = network
        self._actors: dict[str, Actor] = {}
        self.applied: list[FaultEvent] = []

    def register(self, actor: Actor) -> None:
        self._actors[actor.name] = actor

    def install(self, schedule: FaultSchedule) -> None:
        for event in schedule.events:
            self.kernel.schedule_at(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        self.applied.append(event)
        if event.action == "crash":
            self._emit_fault("fault.crash", targets=",".join(event.targets))
            for name in event.targets:
                actor = self._actors.get(name)
                if actor is not None:
                    actor.crash()
        elif event.action == "recover":
            self._emit_fault("fault.recover", targets=",".join(event.targets))
            for name in event.targets:
                actor = self._actors.get(name)
                if actor is not None:
                    actor.recover()
        elif event.action == "partition":
            # The partition controller emits fault.partition itself, so
            # partitions applied outside a schedule are traced too.
            self.network.partitions.partition(event.groups)
        elif event.action == "heal":
            self.network.partitions.heal()
            # A heal restores *full* connectivity: one-way rules go too,
            # when the transport has them.
            heal_oneway = getattr(self.network, "heal_oneway", None)
            if heal_oneway is not None:
                heal_oneway()
        elif event.action == "degrade":
            self._emit_fault(
                "fault.degrade",
                targets=",".join(event.targets),
                drop=event.drop,
                duplicate=event.duplicate,
                delay=event.delay,
                jitter=event.jitter,
            )
            self._fault_surface("degrade")(
                event.targets,
                drop=event.drop,
                duplicate=event.duplicate,
                delay=event.delay,
                jitter=event.jitter,
            )
        elif event.action == "restore":
            self._emit_fault("fault.restore", targets=",".join(event.targets))
            self._fault_surface("restore")(event.targets)
        elif event.action == "partition-oneway":
            self._emit_fault(
                "fault.partition_oneway",
                groups="|".join(",".join(group) for group in event.groups),
            )
            self._fault_surface("isolate_oneway")(event.groups[0], event.groups[1])

    def _fault_surface(self, method: str):
        surface = getattr(self.network, method, None)
        if surface is None:
            raise TypeError(
                f"transport {type(self.network).__name__} cannot {method}; "
                "wrap it in repro.faults.FaultyTransport to inject "
                "message-level faults"
            )
        return surface

    def _emit_fault(self, etype: str, **fields) -> None:
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            obs.emit(etype, **fields)
