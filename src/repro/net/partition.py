"""Network partition control.

A partition is expressed as a grouping of endpoint names; messages cross
group boundaries only when no partition is active.  Endpoints not named
in any group are unreachable from everyone (fully isolated), which lets
failure scenarios isolate a single node by partitioning it alone.
"""

from __future__ import annotations

from collections.abc import Iterable


class PartitionController:
    """Tracks the active partition, if any."""

    def __init__(self) -> None:
        #: Endpoint name -> group index; ``None`` while healed.
        self.group_of: dict[str, int] | None = None
        #: Telemetry bus; when set, ``partition``/``heal`` emit
        #: ``fault.partition``/``fault.heal`` trace events so an auditor
        #: can correlate drops and latency spikes with the split.  The
        #: harness wires this alongside the transport's own ``obs``.
        self.obs = None

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into the given groups of endpoint names."""
        groups = [tuple(group) for group in groups]
        group_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in group_of:
                    raise ValueError(f"endpoint {name!r} appears in two groups")
                group_of[name] = index
        self.group_of = group_of
        if self.obs is not None:
            described = "|".join(",".join(group) for group in groups)
            self.obs.emit("fault.partition", groups=described)

    def heal(self) -> None:
        """Remove the partition; full connectivity is restored."""
        self.group_of = None
        if self.obs is not None:
            self.obs.emit("fault.heal")

    def can_communicate(self, a: str, b: str) -> bool:
        if self.group_of is None:
            return True
        group_a = self.group_of.get(a)
        group_b = self.group_of.get(b)
        if group_a is None or group_b is None:
            return False
        return group_a == group_b
