"""Jepsen-lite nemesis harness: one randomized schedule, every system.

``run_nemesis`` samples a seeded fault schedule (``repro.faults.Nemesis``),
then runs it against each protocol variant on its own kernel with the sim
network wrapped in a :class:`repro.faults.FaultyTransport` — so crashes and
partitions *and* message-level adversity (drops, duplicates, delay spikes)
all hit the same protocol code the paper experiments exercise.

Each run is audited (``repro.obs.audit``) and judged on two axes:

* **safety** — the online auditor recorded zero invariant violations
  (token conservation, message accounting, span discipline).
* **liveness** — after the schedule's final heal the system commits
  again (``post_heal_committed > 0``), and once a grace period longer
  than the client request timeout has elapsed every request has resolved:
  answered, rejected, or written off (``unanswered == 0``).

The grace period matters: ``WorkloadClient`` only writes off stale
in-flight requests under window pressure, so the harness runs the kernel
the request timeout plus ``GRACE_MARGIN`` seconds past the workload and
then sweeps each client's in-flight table explicitly before collecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.faults import FaultyTransport, Nemesis, NemesisConfig
from repro.faults.schedule import RegionFault
from repro.harness.experiment import Experiment, ExperimentConfig, ExperimentResult
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS
from repro.sim.kernel import Kernel

#: The protocol variants the nemesis gate must keep honest.  crdb is
#: excluded: its replicas model a closed-source system at a coarser
#: fidelity and carry no durable escrow state to recover.
NEMESIS_SYSTEMS = ("samya-majority", "multipaxsys", "demarcation")

#: Extra sim-seconds past the workload before collection, beyond the
#: client request timeout — so every request still in flight at the end
#: is old enough to be written off, never stranded.
GRACE_MARGIN = 5.0


@dataclass
class SystemVerdict:
    """One system's outcome against the shared schedule."""

    system: str
    result: ExperimentResult
    #: Operations committed after the schedule's final heal time.
    post_heal_committed: float
    #: Sites still holding a frozen (pledged) balance at quiesce.  A
    #: pledge unresolved after the grace period is a site that will
    #: refuse to serve part of its balance forever — a safety bug in
    #: the recovery path, not a liveness hiccup.
    unresolved_pledges: int = 0
    #: Recovery elections the pledge discipline triggered (idle-path,
    #: WAL-replay, or watchdog-driven) — adversity coverage evidence.
    pledge_recoveries: int = 0

    @property
    def safe(self) -> bool:
        return not self.result.audit_violations and self.unresolved_pledges == 0

    @property
    def live(self) -> bool:
        return self.result.unanswered == 0 and self.post_heal_committed > 0

    @property
    def passed(self) -> bool:
        return self.safe and self.live


@dataclass
class NemesisReport:
    """Everything one nemesis run produced, per system."""

    seed: int
    schedule: tuple[RegionFault, ...]
    final_heal: float
    verdicts: dict[str, SystemVerdict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts.values())

    def violations(self) -> list[str]:
        """All audit violations, prefixed with the offending system."""
        return [
            f"{system}: {violation}"
            for system, verdict in self.verdicts.items()
            for violation in verdict.result.audit_violations
        ]


def run_nemesis(
    seed: int,
    systems: tuple[str, ...] = NEMESIS_SYSTEMS,
    duration: float = 120.0,
    quiet_period: float = 40.0,
    audit: bool = True,
    wal_enabled: bool = True,
    trace_dir: str | Path | None = None,
    drop: float = 0.05,
    duplicate: float = 0.02,
    request_timeout: float = 10.0,
) -> NemesisReport:
    """Run one seeded nemesis schedule against each system.

    ``wal_enabled=False`` is the deliberately-broken-recovery knob: every
    server's :class:`repro.storage.RecoveryWal` silently discards
    appends, so a crashed site recovers *stale* token state — which the
    auditor must flag as a conservation violation (the regression test
    for the recovery path itself).

    ``drop``/``duplicate`` set an *ambient* message-level degradation on
    every server link from t=0 until the schedule's final heal — on top
    of the region crashes and partitions.  This is what forces the
    pledge paths: a dropped Accept or Decision leaves a cohort holding a
    promise it must neither serve from nor abandon, until the pledge
    discipline (idle-path or watchdog) recovers it.
    """
    nemesis = Nemesis(
        seed,
        tuple(PAPER_REGIONS),
        NemesisConfig(duration=duration, quiet_period=quiet_period),
    )
    schedule = nemesis.schedule()
    final_heal = max(fault.time for fault in schedule)
    report = NemesisReport(seed=seed, schedule=schedule, final_heal=final_heal)
    for system in systems:
        trace_path = None
        if trace_dir is not None:
            trace_path = str(
                Path(trace_dir) / f"nemesis-{system}-seed{seed}.jsonl"
            )
        kernel = Kernel(seed=seed)
        network = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=seed)
        config = ExperimentConfig(
            system=system,
            seed=seed,
            duration=duration,
            faults=schedule,
            audit=audit,
            multipaxsys_paper_regions=True,
            trace_path=trace_path,
            # Wire flow rides every nemesis run: byte accounting under
            # adversity is exactly when retransmit/duplicate chatter
            # shows, and the bench artifact's flow section needs it.
            flow=True,
            request_timeout=request_timeout,
            # The liveness watchdog rides every nemesis run: its sweeps
            # drive stale-pledge recovery during partitions, and its
            # liveness.* detections land in the trace artifact.
            watchdog=True,
        )
        experiment = Experiment(config, kernel=kernel, network=network)
        if not wal_enabled:
            for server in experiment.servers:
                wal = getattr(server, "wal", None)
                if wal is not None:
                    wal.enabled = False
        if drop > 0.0 or duplicate > 0.0:
            degraded = [server.name for server in experiment.servers]
            network.degrade(degraded, drop=drop, duplicate=duplicate)
            kernel.schedule(final_heal, network.restore, degraded)
        experiment.start()
        kernel.run(until=duration + request_timeout + GRACE_MARGIN)
        for client in experiment.clients:
            client._expire_stale_inflight()
        result = experiment.collect()
        post_heal = sum(
            count
            for bucket, count in result.throughput_series
            if bucket >= final_heal
        )
        report.verdicts[system] = SystemVerdict(
            system=system,
            result=result,
            post_heal_committed=post_heal,
            unresolved_pledges=experiment.cluster.unresolved_pledges(),
            pledge_recoveries=result.redistributions.get("pledge_recoveries", 0),
        )
    return report
