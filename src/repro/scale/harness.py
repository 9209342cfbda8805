"""Build, drive, and audit scale deployments.

The scale harness answers one question: how far does one deployment
stretch in entity count before throughput or correctness gives?  It
wires :class:`~repro.scale.site.ScaleSiteHost` regions behind an
optional :class:`~repro.scale.batching.BatchingTransport`, registers
every entity in a :class:`~repro.scale.shards.EntityDirectory`,
drives an open-loop client workload from each region, and — because a
scale run is exactly where a low-probability conservation bug becomes a
certainty — audits per-entity conservation over the entity tables with
one vectorized pass instead of 10^5 per-entity checkers.

Determinism: every random choice draws from kernel streams keyed by
actor name and network jitter is off — so a (config, seed) pair
replays bit-identically, which is what the batched-versus-unbatched
parity test pins.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.cluster import split_initial_allocation
from repro.net.network import Network, sim_substrate
from repro.net.regions import PAPER_REGIONS
from repro.obs.flow import ResourceProbe, entity_table_bytes
from repro.obs.instruments import Instruments
from repro.scale.batching import BatchingTransport
from repro.scale.shards import EntityDirectory, RouteTable
from repro.scale.site import ScaleSiteHost
from repro.sim.kernel import Kernel
from repro.sim.process import Actor

#: Event budget for post-load quiescence (protocol rounds finishing,
#: queues draining).
MAX_DRAIN_EVENTS = 20_000_000

#: Workload batching quantum: each driver issues ``rate * TICK`` requests
#: inline per tick event (fractional carry preserved).
TICK = 0.05

#: Probability a request is an acquire (the rest release held tokens).
ACQUIRE_FRACTION = 0.65

#: Size of the high-contention hot set (absolute, clamped to
#: ``entities``).  An absolute count, not a fraction: the point of the
#: sweep is to grow the cold tail while contention stays fixed, so the
#: redistribution-round rate does not scale with entities.
HOT_ENTITIES = 256

#: Per-request token amount is uniform in [1, AMOUNT_MAX].
AMOUNT_MAX = 4

#: Cap on the total tokens one driver may demand per entity (None =
#: uncapped).  The parity tests patch in maximum // regions so global
#: demand never exceeds supply and every acquire must commit.
PER_ENTITY_BUDGET: int | None = None

#: "spread": initial tokens split across regions (rotated remainder);
#: "first": all tokens seeded at region 0, forcing redistribution.
PLACEMENT = "spread"


@dataclass
class ScaleConfig:
    """One scale run: deployment shape plus workload."""

    entities: int = 10_000
    regions: int = 3
    #: Tokens per entity (M_e).
    maximum: int = 30
    #: Simulated seconds of open-loop load.
    duration: float = 30.0
    #: Client requests per second, per region.
    rate: float = 4000.0
    seed: int = 0
    batching: bool = True
    #: Probability a request targets the hot set.
    hot_weight: float = 0.5
    audit: bool = True
    #: Write a JSONL telemetry trace of the run here (``.gz`` = gzip).
    #: Message-plane events only — per-entity protocol spans at 10^5
    #: entities would swamp any trace, so scale hosts expose no bus.
    trace_path: str | None = None
    #: Track demand/locality analytics: injects one shared
    #: :class:`~repro.obs.demand.DemandTracker` into every host's local
    #: request path (O(1) counter updates per request, O(K) memory).
    #: Off by default — the sweep's request loop is the hot path.
    demand: bool = False
    #: Track wire/queue/memory flow: injects one shared
    #: :class:`~repro.obs.flow.FlowTracker` into the network, kernel
    #: heap, and every host's mailbox path, and folds exact
    #: ``EntityTable`` byte accounting in at collect.  Off by default —
    #: byte accounting encodes envelopes the sim would otherwise never
    #: serialize.
    flow: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.regions <= len(PAPER_REGIONS):
            raise ValueError(
                f"regions must be in [1, {len(PAPER_REGIONS)}], got {self.regions}"
            )
        for name, ok in (
            ("entities", self.entities >= 1),
            ("maximum", self.maximum >= 1),
            ("rate", self.rate >= 0),
            ("hot_weight", 0 <= self.hot_weight <= 1),
        ):
            if not ok:
                raise ValueError(f"{name} out of range: {getattr(self, name)!r}")


def randbelow(rng, n: int) -> Callable[[], int]:
    """A draw uniform over ``range(n)``, ``n >= 1``.

    The rejection loop under ``Random``'s ``randrange(n)`` without its
    Python-level argument handling: it consumes the generator word for
    word as ``randrange(n)`` does (``randint(1, n)`` is ``1 +`` this
    draw), which keeps every seeded scale golden where it was.
    """
    getrandbits = rng.getrandbits
    bits = n.bit_length()

    def draw() -> int:
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        return value

    return draw


class ScaleLoadDriver(Actor):
    """Open-loop client population for one region.

    Requests are *local calls* into the region's host (clients are
    region-local in the paper's deployment; the intra-region hop is not
    what the scale sweep measures).  Entity choice mixes a fixed hot set
    with a uniform draw over all entities; release amounts never exceed
    what this driver's clients actually hold, so cluster-wide
    ``released <= acquired`` per entity by construction — the audit can
    then require outstanding tokens to be non-negative.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        region_index: int,
        routes: RouteTable,
        config: ScaleConfig,
    ) -> None:
        super().__init__(kernel, name)
        self.region_index = region_index
        #: Shared ``row -> host group``; a row is the same row on every host.
        self.routes = routes
        self.config = config
        self.until = config.duration
        self.hot_count = min(HOT_ENTITIES, config.entities)
        self._carry = 0.0
        #: row -> tokens this driver's clients currently hold.
        self.holdings = [0] * config.entities
        #: row -> total tokens demanded (for PER_ENTITY_BUDGET).
        self.demanded = [0] * config.entities
        self.submitted = 0
        self.immediate = 0
        self.queued = 0
        self.rejected_now = 0
        self.failed = 0
        self.skipped = 0
        self.after(TICK, self._tick)

    def _tick(self) -> None:
        if self.now >= self.until:
            return
        config = self.config
        budget = config.rate * TICK + self._carry
        count = int(budget)
        self._carry = budget - count
        rng = self.rng()
        random = rng.random
        draw_any = randbelow(rng, config.entities)
        hot_count = self.hot_count
        draw_hot = randbelow(rng, hot_count) if hot_count else None
        draw_amount = randbelow(rng, AMOUNT_MAX)
        hot_weight = config.hot_weight
        acquire_fraction = ACQUIRE_FRACTION
        cap = PER_ENTITY_BUDGET
        # A directory change is observed here, at the next tick.
        records = self.routes.records()
        region_index = self.region_index
        holdings = self.holdings
        demanded = self.demanded
        submitted = immediate = 0
        for _ in range(count):
            # Draw everything up front so the rng stream advances
            # identically regardless of per-request outcomes — the
            # determinism the parity test leans on.
            if hot_count and random() < hot_weight:
                row = draw_hot()
            else:
                row = draw_any()
            acquire = random() < acquire_fraction
            amount = 1 + draw_amount()

            record = records[row]
            if record is None:
                self.failed += 1
                continue
            host = record[region_index % len(record)]
            if host.crashed:
                host = self._route(record)
                if host is None:
                    self.failed += 1
                    continue

            held = holdings[row]
            if acquire or held == 0:
                acquire = True
                if cap is not None:
                    amount = min(amount, cap - demanded[row])
                    if amount <= 0:
                        self.skipped += 1
                        continue
                    demanded[row] += amount
            else:
                amount = min(amount, held)

            submitted += 1
            status = host.submit_row(row, acquire, amount)
            if status == "committed":
                immediate += 1
                holdings[row] = held + amount if acquire else held - amount
            elif status == "queued":
                # The grant (if any) lands after this driver stopped
                # watching; the ledger columns still count it.  Holdings
                # stay put, which only makes releases more conservative.
                self.queued += 1
            else:
                self.rejected_now += 1
        self.submitted += submitted
        self.immediate += immediate
        self.after(TICK, self._tick)

    def _route(self, record: Sequence[ScaleSiteHost]) -> ScaleSiteHost | None:
        """Prefer the local region's host; fail over round-robin."""
        count = len(record)
        for offset in range(count):
            host = record[(self.region_index + offset) % count]
            if not host.crashed:
                return host
        return None


@dataclass
class ScaleDeployment:
    """Everything ``build_scale_deployment`` wires together."""

    kernel: Kernel
    network: Network
    transport: Any
    batching: BatchingTransport | None
    hosts: list[ScaleSiteHost]
    drivers: list[ScaleLoadDriver]
    directory: EntityDirectory
    config: ScaleConfig
    #: The run's planes: ``.bus`` (``config.trace_path``), the shared
    #: ``.demand`` / ``.flow`` trackers when the config asked for them.
    instruments: Instruments


def build_scale_deployment(
    config: ScaleConfig,
    transport_wrap: Callable[[Any], Any] | None = None,
) -> ScaleDeployment:
    """Wire a scale deployment (no load has run yet).

    ``transport_wrap`` interposes between the sim network and the
    batching layer — pass a ``FaultyTransport`` factory so injected
    faults hit whole batch envelopes, the deployment order the fault
    tests exercise.
    """
    kernel, network = sim_substrate(config.seed, jitter_sigma=0.0)
    transport: Any = network
    if transport_wrap is not None:
        transport = transport_wrap(transport)
    batching = None
    if config.batching:
        batching = BatchingTransport(transport, kernel)
        transport = batching

    regions = PAPER_REGIONS[: config.regions]
    hosts = [
        ScaleSiteHost(kernel, f"scale-{region.value}", region, transport)
        for region in regions
    ]
    names = [host.name for host in hosts]
    for host in hosts:
        host.connect(names)

    instruments = Instruments(
        trace_path=config.trace_path, demand=config.demand, flow=config.flow
    )
    # The bus goes on the transport alone, never ``kernel.obs``:
    # message-plane telemetry scales with wire envelopes, not entities
    # (see ScaleConfig.trace_path).  The outermost transport is enough —
    # batching and fault layers delegate to the network they wrap.
    instruments.attach(kernel, transport, *hosts)

    directory = EntityDirectory()
    shares = split_initial_allocation(config.maximum, len(hosts))
    ids = [f"e{index}" for index in range(config.entities)]
    rows = range(config.entities)
    for position, host in enumerate(hosts):
        if PLACEMENT == "first":
            tokens = [config.maximum if position == 0 else 0] * config.entities
        else:
            # Rotate the remainder so no single region systematically
            # holds the extra token.
            tokens = [shares[(position + row) % len(hosts)] for row in rows]
        host.table.extend(ids, tokens)
    record = tuple(hosts)
    for entity_id in ids:
        directory.register(entity_id, record)

    routes = RouteTable(directory, ids)
    drivers = [
        ScaleLoadDriver(kernel, f"load-{region.value}", position, routes, config)
        for position, region in enumerate(regions)
    ]
    return ScaleDeployment(
        kernel=kernel,
        network=network,
        transport=transport,
        batching=batching,
        hosts=hosts,
        drivers=drivers,
        directory=directory,
        config=config,
        instruments=instruments,
    )


def audit_conservation(
    deployment: ScaleDeployment, strict: bool = True
) -> tuple[list[str], int]:
    """Vectorized per-entity conservation check.

    For every entity ``e``: ``sum over hosts of tokens_left[e] +
    (acquired[e] - released[e]) == maximum`` and outstanding tokens
    (acquired - released) must be non-negative.  Entities with a
    redistribution round still in flight are excluded unless ``strict``
    — mid-round, a decided grant is legitimately applied on some hosts
    and not yet on others.  Returns ``(violations, entities_audited)``.
    """
    hosts = deployment.hosts
    maximum = deployment.config.maximum
    violations: list[str] = []
    base = hosts[0].table
    for host in hosts[1:]:
        if host.table.ids != base.ids:
            violations.append(f"entity rows diverge between {hosts[0].name} and {host.name}")
            return violations, 0

    active_rows: set[int] = set()
    if not strict:
        for host in hosts:
            for entity_id in host.active_rounds():
                row = base.get(entity_id)
                if row is not None:
                    active_rows.add(row)
    elif any(host.active_rounds() for host in hosts):
        violations.append("strict audit ran with redistribution rounds still active")

    count = len(base)
    audited = count - len(active_rows)
    left = base.as_numpy("tokens_left").astype(np.int64, copy=True)
    acquired = base.as_numpy("acquired").astype(np.int64, copy=True)
    released = base.as_numpy("released").astype(np.int64, copy=True)
    for host in hosts[1:]:
        left += host.table.as_numpy("tokens_left")
        acquired += host.table.as_numpy("acquired")
        released += host.table.as_numpy("released")
    net = left + acquired - released
    outstanding = acquired - released
    for row in np.flatnonzero(net != maximum):
        if int(row) in active_rows:
            continue
        violations.append(
            f"entity {base.ids[row]}: settled {int(left[row])} + outstanding "
            f"{int(outstanding[row])} != maximum {maximum}"
        )
    for row in np.flatnonzero(outstanding < 0):
        if int(row) in active_rows:
            continue
        violations.append(
            f"entity {base.ids[row]}: outstanding {int(outstanding[row])} < 0 "
            "(released more than acquired)"
        )
    return violations, audited


@dataclass
class ScaleResult:
    """Outcome of one scale run (simulated metrics plus wall clock)."""

    config: ScaleConfig
    entities: int
    submitted: int
    committed: int
    rejected: int
    queued_unresolved: int
    failed: int
    skipped: int
    acquired_tokens: int
    released_tokens: int
    rounds_triggered: int
    rounds_applied: int
    protocol_instances: int
    #: Resolutions (one per entity per directory change), not requests.
    directory_lookups: int
    wire_sent: int
    wire_delivered: int
    wire_dropped: int
    dedup_evictions: int
    batching: dict[str, int] | None
    sim_time: float
    events_fired: int
    wall_seconds: float
    drained: bool
    audited: int
    violations: list[str]
    #: ``DemandTracker.snapshot()`` when ``config.demand`` was set —
    #: informational (never part of the gated headline).
    demand: dict[str, Any] | None = None
    #: ``FlowTracker.snapshot()`` when ``config.flow`` was set; its
    #: :meth:`~repro.obs.flow.FlowTracker.headline` subtree is what the
    #: bench gate pins.
    flow: dict[str, Any] | None = None

    @property
    def wall_events_per_sec(self) -> float:
        return self.events_fired / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def wall_messages_per_sec(self) -> float:
        return self.wire_delivered / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def wall_requests_per_sec(self) -> float:
        return self.submitted / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def sim_requests_per_sec(self) -> float:
        duration = self.config.duration
        return self.submitted / duration if duration else 0.0

    def as_metrics(self) -> dict[str, Any]:
        """Flat metric dict for bench JSON artifacts."""
        metrics: dict[str, Any] = {
            "entities": self.entities,
            "submitted": self.submitted,
            "committed": self.committed,
            "rejected": self.rejected,
            "failed": self.failed,
            "rounds_triggered": self.rounds_triggered,
            "rounds_applied": self.rounds_applied,
            "protocol_instances": self.protocol_instances,
            "wire_sent": self.wire_sent,
            "wire_delivered": self.wire_delivered,
            "dedup_evictions": self.dedup_evictions,
            "events_fired": self.events_fired,
            "sim_requests_per_sec": round(self.sim_requests_per_sec, 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "wall_events_per_sec": round(self.wall_events_per_sec, 1),
            "wall_messages_per_sec": round(self.wall_messages_per_sec, 1),
            "wall_requests_per_sec": round(self.wall_requests_per_sec, 1),
            "violations": len(self.violations),
            "drained": int(self.drained),
        }
        if self.batching is not None:
            metrics.update(
                {f"batch_{key}": value for key, value in self.batching.items()}
            )
        return metrics


def run_scale(
    config: ScaleConfig,
    transport_wrap: Callable[[Any], Any] | None = None,
    deployment: ScaleDeployment | None = None,
    keep_deployment: bool = False,
) -> ScaleResult | tuple[ScaleResult, ScaleDeployment]:
    """Run one scale point end to end and audit it.

    Wall-clock timing wraps the whole simulated run (load plus drain);
    the drain phase lets in-flight redistribution rounds terminate and
    queued requests resolve, so the strict conservation audit applies.
    """
    if deployment is None:
        deployment = build_scale_deployment(config, transport_wrap)
    kernel = deployment.kernel
    start = time.perf_counter()
    kernel.run(until=config.duration)
    kernel.run(max_events=MAX_DRAIN_EVENTS)
    wall = time.perf_counter() - start
    drained = kernel.pending == 0
    instruments = deployment.instruments
    flow = instruments.flow
    if flow is not None:
        flow.table_bytes = {
            host.name: entity_table_bytes(host.table)
            for host in deployment.hosts
        }
        # One end-of-run RSS sample (cheap: a /proc read).  It lands in
        # the snapshot only — memory is machine-dependent and must never
        # reach the trace (see repro.obs.flow module docs).
        ResourceProbe(flow).sample("collect", ts=kernel.now)
    snapshots = instruments.collect()

    violations: list[str] = []
    audited = 0
    if config.audit:
        violations, audited = audit_conservation(deployment, strict=drained)
    if not drained:
        violations.append(
            f"run did not quiesce within {MAX_DRAIN_EVENTS} drain events"
        )

    hosts = deployment.hosts
    result = ScaleResult(
        config=config,
        entities=config.entities,
        submitted=sum(driver.submitted for driver in deployment.drivers),
        committed=sum(host.table.total("committed") for host in hosts),
        rejected=sum(host.table.total("rejected") for host in hosts),
        queued_unresolved=sum(host.queued_requests() for host in hosts),
        failed=sum(driver.failed for driver in deployment.drivers),
        skipped=sum(driver.skipped for driver in deployment.drivers),
        acquired_tokens=sum(host.table.total("acquired") for host in hosts),
        released_tokens=sum(host.table.total("released") for host in hosts),
        rounds_triggered=sum(host.rounds_triggered for host in hosts),
        rounds_applied=sum(host.rounds_applied for host in hosts),
        protocol_instances=sum(host.protocol_count() for host in hosts),
        directory_lookups=deployment.directory.lookups,
        wire_sent=deployment.network.messages_sent,
        wire_delivered=deployment.network.messages_delivered,
        wire_dropped=deployment.network.messages_dropped,
        dedup_evictions=sum(
            host.stats()["dedup_evictions"] for host in hosts
        ),
        batching=(
            deployment.batching.stats() if deployment.batching is not None else None
        ),
        sim_time=kernel.now,
        events_fired=kernel.events_fired,
        wall_seconds=wall,
        drained=drained,
        audited=audited,
        violations=violations,
        demand=snapshots.get("demand") if config.demand else None,
        flow=snapshots.get("flow"),
    )
    if keep_deployment:
        return result, deployment
    return result


def per_entity_committed(deployment: ScaleDeployment):
    """Per-entity commit counts summed across hosts (parity-test probe).

    Returns a numpy int64 array.
    """
    hosts = deployment.hosts
    total = hosts[0].table.as_numpy("committed").astype(np.int64, copy=True)
    for host in hosts[1:]:
        total += host.table.as_numpy("committed")
    return total


def _point_trace_path(path: str, count: int) -> str:
    """``trace.jsonl.gz`` -> ``trace-10000.jsonl.gz`` for multi-point sweeps."""
    directory, _, filename = path.rpartition("/")
    stem, dot, suffixes = filename.partition(".")
    filename = f"{stem}-{count}{dot}{suffixes}"
    return f"{directory}/{filename}" if directory else filename


def sweep_scale(
    entity_counts: Sequence[int], base: ScaleConfig
) -> list[ScaleResult]:
    """Run one point per entity count, holding everything else fixed.

    With a ``trace_path`` and more than one point, each point writes its
    own file (entity count spliced into the name) instead of the last
    run overwriting the rest.
    """
    results: list[ScaleResult] = []
    for count in entity_counts:
        config = dataclasses.replace(base, entities=count)
        if base.trace_path is not None and len(entity_counts) > 1:
            config = dataclasses.replace(
                config, trace_path=_point_trace_path(base.trace_path, count)
            )
        results.append(run_scale(config))
    return results
