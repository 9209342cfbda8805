"""Sim/live parity: one seeded workload through both substrates.

The bridge's correctness argument: the *same* deployment driven by the
*same* operation list must end in an **equivalent** state whether it ran
under the discrete-event kernel or live on asyncio.  Equivalent means:

1. **Conservation (Eq. 1)** holds exactly in both runs, audited through
   :class:`repro.metrics.invariants.ConservationChecker` — settled
   tokens at sites plus tokens held by clients equals ``M_e``.
2. The same set of requests commits (identical granted counts per
   client) — the workload is sized so every acquire is eventually
   servable after redistribution, making grant outcomes deterministic
   even though live message timing is not.
3. The decided allocations agree in total: ``sum(per-site tokens)`` is
   identical, pinned by 1+2.

Per-site splits may legitimately differ between substrates: which site
leads a round and how much deficit it asks for depends on arrival
interleaving, and the paper's reallocation procedure is only
deterministic *given* the pooled InitVals.  ``check_parity`` therefore
compares the invariant-bearing quantities and reports per-site detail
for diagnostics.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.client import Operation, WorkloadClient
from repro.core.cluster import SamyaCluster
from repro.core.config import AvantanVariant, SamyaConfig
from repro.core.entity import Entity
from repro.core.requests import RequestKind
from repro.metrics.hub import MetricsHub
from repro.metrics.invariants import ConservationChecker
from repro.net.network import Network, NetworkConfig
from repro.net.regions import Region
from repro.sim.kernel import Kernel
from repro.runtime.asyncio_transport import AsyncioTransport, GeoDelayModel
from repro.runtime.clock import LiveClock
from repro.runtime.tcp_transport import TcpTransport

PARITY_REGIONS: tuple[Region, ...] = (
    Region.US_WEST1,
    Region.EUROPE_WEST2,
    Region.ASIA_EAST2,
)

#: Wall seconds the live transport must stay silent, once every
#: operation has an outcome, before a live run is collected.
QUIESCE_S = 0.05


def parity_config(variant: AvantanVariant = AvantanVariant.MAJORITY) -> SamyaConfig:
    """Deployment knobs that make grant outcomes timing-independent.

    ``reactive_cooldown=0`` removes the fast-reject path (every
    unservable acquire queues and triggers), and proactive prediction is
    off, so a workload whose total demand fits ``M_e`` commits fully on
    both substrates regardless of interleaving.
    """
    return SamyaConfig(
        variant=variant,
        epoch_seconds=1.0,
        proactive=False,
        reactive_cooldown=0.0,
        redistribution_cooldown=0.0,
        election_timeout=0.5,
        cohort_timeout=1.5,
        blocked_retry_interval=1.0,
    )


def parity_workload(regions: tuple[Region, ...] = PARITY_REGIONS) -> dict[Region, list[Operation]]:
    """A seeded workload that forces cross-site redistribution.

    The first region's client demands more than its initial share (but
    less than the cluster total), so serving it requires at least one
    full Avantan round; the others issue a light local load.

    Acquires are spaced 1 s apart — wider than a worst-case Avantan
    round on either substrate (sim WAN: ~0.75 s; live: milliseconds).
    That spacing is what makes grant outcomes substrate-independent: an
    acquire arriving *during* an active round is queued without being
    counted in the round's TokensWanted, and whatever the drain cannot
    serve is rejected — so a burst would commit a timing-dependent
    subset.  Spaced out, every over-share acquire triggers its own
    fully-covering round and commits on both substrates.
    """
    hot, *rest = regions
    workload: dict[Region, list[Operation]] = {
        hot: [
            Operation(time=0.05 + 1.0 * index, kind=RequestKind.ACQUIRE, amount=20)
            for index in range(6)  # 120 tokens against a 100-token share
        ]
    }
    for offset, region in enumerate(rest):
        workload[region] = [
            Operation(time=0.10 + 0.05 * offset, kind=RequestKind.ACQUIRE, amount=5)
        ]
    return workload


@dataclass
class ParityOutcome:
    """What one substrate's run ended with."""

    substrate: str
    maximum: int
    allocations: dict[str, int]
    #: Site-ledger tokens held by clients (acquired - released).
    outstanding: int
    #: Granted acquires per client name.
    granted: dict[str, int]
    committed: int
    rejected: int
    failed: int
    redistributions_completed: int
    conserved: bool
    settled: int = 0

    @property
    def allocation_total(self) -> int:
        return sum(self.allocations.values())


def _build(kernel, network, maximum: int, regions, config: SamyaConfig):
    cluster = SamyaCluster(
        kernel=kernel,
        network=network,
        entity=Entity("parity", maximum),
        regions=list(regions),
        config=config,
    )
    return cluster, cluster.make_checker(maximum)


def _attach_clients(
    cluster: SamyaCluster, workload: dict[Region, list[Operation]], metrics: MetricsHub
) -> list[WorkloadClient]:
    clients = []
    for region, operations in sorted(workload.items(), key=lambda item: item[0].value):
        clients.append(cluster.add_client(region, list(operations), metrics=metrics))
    return clients


def _outcome(
    substrate: str,
    cluster: SamyaCluster,
    checker: ConservationChecker,
    metrics: MetricsHub,
    maximum: int,
) -> ParityOutcome:
    settled = checker.settled_tokens()
    outstanding = checker.outstanding_tokens()
    return ParityOutcome(
        substrate=substrate,
        maximum=maximum,
        allocations={site.name: site.state.tokens_left for site in cluster.sites},
        outstanding=outstanding,
        granted={
            client.name: client.outstanding for client in cluster.clients
        },
        committed=metrics.committed,
        rejected=metrics.rejected,
        failed=metrics.failed,
        redistributions_completed=cluster.redistribution_totals()["completed"],
        conserved=(settled + outstanding == maximum),
        settled=settled,
    )


def run_sim_workload(
    workload: dict[Region, list[Operation]] | None = None,
    maximum: int = 300,
    seed: int = 1,
    duration: float = 30.0,
    variant: AvantanVariant = AvantanVariant.MAJORITY,
) -> ParityOutcome:
    """Drive the workload under the discrete-event kernel."""
    workload = workload if workload is not None else parity_workload()
    kernel = Kernel(seed=seed)
    network = Network(kernel, NetworkConfig())
    cluster, checker = _build(kernel, network, maximum, sorted(workload, key=lambda r: r.value), parity_config(variant))
    metrics = MetricsHub()
    _attach_clients(cluster, workload, metrics)
    cluster.start()
    kernel.run(until=duration)
    return _outcome("sim", cluster, checker, metrics, maximum)


def run_live_workload(
    workload: dict[Region, list[Operation]] | None = None,
    maximum: int = 300,
    seed: int = 1,
    duration: float = 8.0,
    variant: AvantanVariant = AvantanVariant.MAJORITY,
    transport: str = "asyncio",
    latency_scale: float = 0.02,
) -> ParityOutcome:
    """Drive the same workload live on asyncio (or TCP sockets).

    The run ends once every operation has an outcome and the transport
    has sent nothing for ``QUIESCE_S`` (so a round still settling its
    decision finishes), or after ``duration`` wall seconds at most.
    """
    workload = workload if workload is not None else parity_workload()
    operations = sum(len(ops) for ops in workload.values())

    async def _run() -> ParityOutcome:
        clock = LiveClock(seed=seed)
        if transport == "asyncio":
            net = AsyncioTransport(
                clock, delay_model=GeoDelayModel(scale=latency_scale), seed=seed
            )
        elif transport == "tcp":
            net = TcpTransport(clock, seed=seed)
        else:
            raise ValueError(f"unknown transport {transport!r}")
        cluster, checker = _build(
            clock, net, maximum, sorted(workload, key=lambda r: r.value), parity_config(variant)
        )
        metrics = MetricsHub()
        _attach_clients(cluster, workload, metrics)
        await net.start()
        cluster.start()
        sent = -1
        while clock.now < duration and (
            metrics.attempted < operations or sent != net.messages_sent
        ):
            sent = net.messages_sent
            await asyncio.sleep(QUIESCE_S)
        await net.aclose()
        clock.raise_errors()
        net.raise_errors()
        return _outcome(transport, cluster, checker, metrics, maximum)

    return asyncio.run(_run())


def check_parity(sim: ParityOutcome, live: ParityOutcome) -> list[str]:
    """Mismatches between a sim run and a live run (empty = equivalent)."""
    problems: list[str] = []
    for outcome in (sim, live):
        if not outcome.conserved:
            problems.append(
                f"{outcome.substrate}: conservation broken — "
                f"{outcome.settled} settled + {outcome.outstanding} held != {outcome.maximum}"
            )
    if sim.committed != live.committed:
        problems.append(
            f"committed diverged: sim={sim.committed} live={live.committed}"
        )
    if sim.granted != live.granted:
        problems.append(f"per-client grants diverged: sim={sim.granted} live={live.granted}")
    if sim.outstanding != live.outstanding:
        problems.append(
            f"outstanding tokens diverged: sim={sim.outstanding} live={live.outstanding}"
        )
    if sim.allocation_total != live.allocation_total:
        problems.append(
            f"total allocations diverged: sim={sim.allocation_total} "
            f"({sim.allocations}) live={live.allocation_total} ({live.allocations})"
        )
    return problems
