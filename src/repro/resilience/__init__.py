"""Liveness watchdog: detect stuck work and drive automated recovery.

The subsystem closes the gap between the safety plane (the invariant
auditor proves nothing was double-spent) and the liveness bar the
nemesis harness holds (every request eventually resolves): it *notices*
when progress stalls — a protocol round open past its deadline, a
request starved longer than the client timeout, a pledge unresolved for
rounds on end — emits ``liveness.*`` trace events for each detection,
and, where a safe automated action exists (an idle site holding a stale
pledge), drives the recovery-election path itself.
"""

from repro.resilience.watchdog import LivenessWatchdog

__all__ = ["LivenessWatchdog"]
