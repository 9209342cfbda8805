"""The five workloads: build, run, collect, and check one unit of each.

A *unit* is one complete, deterministic execution of a workload at one
seed: build the deployment (timed as ``setup``), drive the load and let
it drain (``run`` — the window every wall-clock metric is taken over),
then gather results (``collect``; the scale harness gathers inside its
``run_scale``, so those units have no third phase).  ``run.py`` repeats units and folds
their samples; this module knows only how to run one and what must be
true of its outputs.

Everything here goes through the public surface of ``repro.harness``,
``repro.scale``, ``repro.runtime`` and ``repro.net.codec``.  Sizes are
the ISSUE-11 shapes divided by ``shrink``: 1 for the full suite (the
shapes the committed paper-gate baselines pin), 5 for the driver's
time-boxed runs and ``--quick``.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.faults import FaultyTransport, Nemesis, NemesisConfig
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.harness.nemesis import GRACE_MARGIN, SystemVerdict
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS
from repro.obs.flow import entity_table_bytes
from repro.runtime.clock import LiveClock
from repro.runtime.metrics import LiveRunStats
from repro.runtime.tcp_transport import TcpTransport
from repro.scale import ScaleConfig, build_scale_deployment, run_scale
from repro.sim.kernel import Kernel

SHRINK = {"full": 1.0, "small": 5.0}

PHASES = ("setup", "run", "collect")

#: The default ``--seed`` whose outputs are pinned below.
GOLDEN_SEED = 3

#: The fault schedule every sim_nemesis run replays.  The traffic, the
#: kernel and the per-message fault draws follow ``--seed``; the
#: *schedule* does not, because which regions crash decides how many
#: requests are even issued (2.9k-10.7k attempted and 60-86% served
#: across ten schedules at one duration), which no bound could absorb.
NEMESIS_SCHEDULE_SEED = 7

#: Wall seconds live_tcp lets its sockets go quiet before teardown.
QUIESCE_S = 0.05


class Phases:
    """Times — and on the traced pass profiles — the phases of one unit."""

    def __init__(self, traced: bool = False) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.profiles = {name: cProfile.Profile() for name in PHASES} if traced else {}

    @contextmanager
    def __call__(self, name: str):
        profile = self.profiles.get(name)
        if name == "setup":
            # Garbage of the previous unit must not be collected on this
            # unit's clock.
            gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        if profile is not None:
            profile.enable()
        try:
            yield
        finally:
            if profile is not None:
                profile.disable()
            self.wall[name] = time.perf_counter() - wall
            self.cpu[name] = time.process_time() - cpu


@dataclass
class Unit:
    """What one unit produced, before any timing is attached."""

    attempted: int
    #: Operations that ended with no outcome the workload explains: not
    #: committed, not refused by Eq. 1, not shed by the client's own
    #: window, not written off under an injected fault.
    lost: int
    events_fired: int
    #: Count-derived metrics under their catalogue names.
    facts: dict[str, float]
    problems: list[str] = field(default_factory=list)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class MessageTap:
    """Keeps the first envelopes a transport's public ``trace`` tap sees."""

    LIMIT = 20_000

    def __init__(self) -> None:
        self.messages: list = []

    def __call__(self, message) -> None:
        if len(self.messages) < self.LIMIT:
            self.messages.append(message)


# -- Experiment-based workloads -------------------------------------------


def _experiment_unit(
    experiment: Experiment, result, clock_seconds: float, fault_free: bool
) -> Unit:
    """Facts and Eq. 1 conservation shared by the three Experiment workloads."""
    attempted = (
        result.committed_total
        + result.rejected
        + result.failed
        + result.shed
        + result.unanswered
    )
    unserved = result.failed + result.shed + result.unanswered
    redis = result.redistributions
    rounds = redis["triggered"]
    transport = experiment.network
    appends = sum(
        server.wal.appends
        for server in experiment.servers
        if getattr(server, "wal", None) is not None
    )
    facts = {
        "served_share": 1.0 - _ratio(unserved, attempted),
        "granted_share": 1.0 - _ratio(result.rejected, attempted),
        "committed_per_s": result.committed_total / clock_seconds,
        "commit_samples": result.latency.count,
        "net.network.messages_per_request": _ratio(transport.messages_sent, attempted),
        "net.network.dropped_share": _ratio(
            transport.messages_dropped, transport.messages_sent
        ),
        "core.avantan.rounds_per_kreq": 1000.0 * _ratio(rounds, attempted),
        "core.avantan.aborted_share": _ratio(
            redis["aborted"], rounds + redis["aborted"]
        ),
        "core.avantan.messages_per_round": _ratio(redis["messages_sent"], rounds),
        "core.site.pledge_recoveries": redis["pledge_recoveries"],
        "core.client.shed_share": _ratio(result.shed, attempted),
        "storage.wal_appends_per_commit": _ratio(appends, result.committed_total),
    }
    problems = []
    maximum = experiment.config.maximum
    settled = (
        result.tokens_left_total + redis["acquired_tokens"] - redis["released_tokens"]
    )
    if settled != maximum:
        problems.append(
            f"Eq. 1 broken: tokens_left {result.tokens_left_total} + acquired "
            f"{redis['acquired_tokens']} - released {redis['released_tokens']} "
            f"= {settled}, maximum {maximum}"
        )
    if result.invariant_checks < 1:
        problems.append("the conservation checker never ran")
    if attempted <= 0 or result.committed_total <= 0:
        problems.append(f"nothing committed ({attempted} attempted)")
    # In flight at the cut is not lost; a timeout write-off with no fault
    # injected is.
    lost = result.failed if fault_free else result.unanswered
    return Unit(
        attempted=attempted,
        lost=lost,
        events_fired=getattr(experiment.kernel, "events_fired", 0),
        facts=facts,
        problems=problems,
    )


def sim_paper(seed: int, shrink: float, phases: Phases, tap=None) -> Unit:
    duration = 600.0 / shrink
    with phases("setup"):
        experiment = Experiment(
            ExperimentConfig(system="samya-majority", duration=duration, seed=seed)
        )
        experiment.network.trace = tap
    with phases("run"):
        experiment.start()
        experiment.kernel.run(until=duration)
    with phases("collect"):
        result = experiment.collect()
    unit = _experiment_unit(experiment, result, duration, fault_free=True)
    unit.facts["sim_commit_p50_ms"] = result.latency.p50 * 1000.0
    unit.facts["sim_commit_p99_ms"] = result.latency.p99 * 1000.0
    if seed == GOLDEN_SEED and shrink == 1.0 and result.committed != 117456:
        unit.problems.append(
            f"committed {result.committed} != 117456, the fig3b baseline "
            "(benchmarks/baselines/BENCH_fig3b_throughput.json)"
        )
    return unit


def sim_nemesis(seed: int, shrink: float, phases: Phases, tap=None) -> Unit:
    """``repro.harness.nemesis.run_nemesis`` for one system, assembled from
    the same public pieces so build and run are timed apart."""
    duration = 300.0 / shrink
    request_timeout = 10.0
    with phases("setup"):
        schedule = Nemesis(
            NEMESIS_SCHEDULE_SEED,
            tuple(PAPER_REGIONS),
            # The shrunk run has no room for the default 40 s quiet tail.
            NemesisConfig(duration=duration, quiet_period=min(40.0, duration / 6.0)),
        ).schedule()
        final_heal = max(fault.time for fault in schedule)
        kernel = Kernel(seed=seed)
        inner = Network(kernel, NetworkConfig())
        inner.trace = tap
        network = FaultyTransport(inner, kernel, seed=seed)
        experiment = Experiment(
            ExperimentConfig(
                system="samya-majority",
                seed=seed,
                duration=duration,
                faults=schedule,
                audit=True,
                flow=True,
                watchdog=True,
                request_timeout=request_timeout,
            ),
            kernel=kernel,
            network=network,
        )
        degraded = [server.name for server in experiment.servers]
        network.degrade(degraded, drop=0.05, duplicate=0.02)
        kernel.schedule(final_heal, network.restore, degraded)
    with phases("run"):
        experiment.start()
        kernel.run(until=duration + request_timeout + GRACE_MARGIN)
        # The harness's own end-of-run sweep: clients write off stale
        # requests only under window pressure, and liveness is judged
        # after every request has had the chance to resolve.
        for client in experiment.clients:
            client._expire_stale_inflight()
    with phases("collect"):
        result = experiment.collect()
    verdict = SystemVerdict(
        system="samya-majority",
        result=result,
        post_heal_committed=sum(
            count for bucket, count in result.throughput_series if bucket >= final_heal
        ),
        unresolved_pledges=sum(
            1 for server in experiment.servers if server.unresolved_pledge is not None
        ),
        pledge_recoveries=result.redistributions["pledge_recoveries"],
    )
    unit = _experiment_unit(experiment, result, duration, fault_free=False)
    snapshot = result.metrics_snapshot
    unit.facts.update(
        {
            "sim_commit_p50_ms": result.latency.p50 * 1000.0,
            "sim_commit_p99_ms": result.latency.p99 * 1000.0,
            "sim_post_heal_committed": verdict.post_heal_committed,
            "net.codec.frames_per_request": _ratio(
                result.flow_snapshot["frames"], unit.attempted
            ),
            "faults.injected_drop_share": _ratio(
                sum(
                    count
                    for reason, count in network.injected.items()
                    if reason not in ("duplicate", "delay")
                ),
                network.messages_sent,
            ),
            "resilience.sweeps": result.liveness_snapshot["sweeps"],
            "resilience.recoveries_driven": result.liveness_snapshot[
                "recoveries_driven"
            ],
            "obs.events_per_request": _ratio(
                sum(
                    value
                    for key, value in snapshot.items()
                    if key.startswith("repro_events_total")
                ),
                unit.attempted,
            ),
        }
    )
    if not verdict.safe:
        unit.problems.append(
            f"not safe: {len(result.audit_violations)} audit violation(s) "
            f"{result.audit_violations[:3]}, {verdict.unresolved_pledges} "
            "unresolved pledge(s)"
        )
    if not verdict.live:
        unit.problems.append(
            f"not live: {result.unanswered} unanswered, "
            f"{verdict.post_heal_committed} commits after the final heal"
        )
    return unit


def live_tcp(seed: int, shrink: float, phases: Phases, tap=None) -> Unit:
    """``repro.runtime.LiveCluster(..., transport="tcp")`` with its build,
    its fixed wall-clock load window and its teardown timed apart."""
    duration = 10.0 / shrink
    config = ExperimentConfig(
        system="samya-majority",
        mode="live",
        duration=duration,
        seed=seed,
        # The workload generator squeezes a whole 5 s trace interval into
        # a run shorter than that; thin the demand with it so the request
        # *rate* stays the ~310/s the full size runs at, below the shed
        # point (at twice that the transport starts to shed and to hang).
        demand_scale=min(duration, 5.0),
        maximum=25_000,
        max_outstanding=None,
    )

    async def main() -> Unit:
        with phases("setup"):
            clock = LiveClock(seed=seed)
            transport = TcpTransport(clock, seed=seed)
            transport.trace = tap
            experiment = Experiment(config, kernel=clock, network=transport)
            await transport.start()
            stats = LiveRunStats(clock, transport)
            stats.install()
        with phases("run"):
            experiment.start()
            await asyncio.sleep(duration)
        with phases("collect"):
            # No request is issued past ``duration``, but on a busy host
            # the loop can be behind its schedule; wait until nothing
            # has been sent for a whole quiet interval before closing.
            # Not a courtesy: on Python 3.11 ``TcpTransport.aclose()``
            # hangs forever when it cancels a writer task inside
            # ``wait_for(drain())`` in the loop iteration the drain
            # completes — wait_for swallows the cancellation and the task
            # goes back to waiting on its queue (README, known defects).
            sent = -1
            while sent != transport.messages_sent:
                sent = transport.messages_sent
                await asyncio.sleep(QUIESCE_S)
            await transport.aclose()
            clock.raise_errors()
            transport.raise_errors()
            result = experiment.collect()
        unit = _experiment_unit(experiment, result, duration, fault_free=True)
        health = stats.as_dict()
        unit.facts.update(
            {
                "live_commit_p50_ms": result.latency.p50 * 1000.0,
                "live_commit_p90_ms": result.latency.p90 * 1000.0,
                "net.codec.frames_per_request": _ratio(
                    transport.messages_sent, unit.attempted
                ),
                "runtime.drift_avg_ms": health["drift_avg_ms"],
                "runtime.drift_max_ms": health["drift_max_ms"],
                "runtime.callbacks_per_request": _ratio(
                    health["callbacks_fired"], unit.attempted
                ),
            }
        )
        return unit

    return asyncio.run(main())


# -- scale workloads ------------------------------------------------------


def _scale_unit(config: ScaleConfig, phases: Phases, tap):
    """One scale unit and the ``ScaleResult`` its golden checks read."""
    with phases("setup"):
        deployment = build_scale_deployment(config)
        deployment.network.trace = tap
    with phases("run"):
        # Load, drain, and the vectorized audit (milliseconds).
        result = run_scale(config, deployment=deployment)
    # Outside every phase: this is the benchmark measuring, not the
    # workload working, and it must not be charged to repro.obs.
    table_bytes = sum(
        sizes["columns_bytes"] + sizes["ids_bytes"] + sizes["index_bytes"]
        for sizes in (entity_table_bytes(host.table) for host in deployment.hosts)
    )
    immediate = sum(driver.immediate for driver in deployment.drivers)
    attempted = result.submitted
    unserved = result.failed + result.queued_unresolved
    batching = result.batching or {}
    facts = {
        "served_share": 1.0 - _ratio(unserved, attempted),
        "granted_share": 1.0 - _ratio(result.rejected, attempted),
        "committed_per_s": result.committed / config.duration,
        "net.network.messages_per_request": _ratio(result.wire_sent, attempted),
        "net.network.dropped_share": _ratio(result.wire_dropped, result.wire_sent),
        "core.avantan.rounds_per_kreq": 1000.0 * _ratio(
            result.rounds_triggered, attempted
        ),
        "core.avantan.messages_per_round": _ratio(
            batching.get("logical_sent", result.wire_sent), result.rounds_triggered
        ),
        "scale.site.immediate_share": _ratio(immediate, attempted),
        "scale.site.rounds_per_kreq": 1000.0 * _ratio(result.rounds_applied, attempted),
        "scale.site.protocol_instances": result.protocol_instances,
        "scale.site.table_bytes_per_entity": table_bytes / config.entities,
        "scale.batching.coalescing_ratio": _ratio(
            batching.get("logical_sent", 0), result.wire_sent
        ),
    }
    problems = list(result.violations[:5])
    if not result.drained:
        problems.append("the run did not drain")
    # Eq. 1 summed over entities, from the public result fields alone.
    tokens_left = sum(host.table.total("tokens_left") for host in deployment.hosts)
    settled = tokens_left + result.acquired_tokens - result.released_tokens
    if settled != config.maximum * config.entities:
        problems.append(
            f"Eq. 1 broken: tokens_left {tokens_left} + acquired "
            f"{result.acquired_tokens} - released {result.released_tokens} = "
            f"{settled}, maximum {config.maximum} x {config.entities} entities"
        )
    if result.committed + result.rejected + unserved != attempted:
        problems.append(
            f"{attempted} submitted but {result.committed} committed + "
            f"{result.rejected} rejected + {unserved} unresolved"
        )
    unit = Unit(
        attempted=attempted,
        lost=unserved,
        events_fired=result.events_fired,
        facts=facts,
        problems=problems,
    )
    return unit, result


def scale_hot(seed: int, shrink: float, phases: Phases, tap=None) -> Unit:
    config = ScaleConfig(
        entities=10_000,
        regions=3,
        maximum=30,
        duration=10.0 / shrink,
        rate=4000,
        batching=True,
        seed=seed,
    )
    unit, result = _scale_unit(config, phases, tap)
    # 8 is this workload's seed offset in REGISTRY below.
    if seed == GOLDEN_SEED + 8 and shrink == 1.0:
        if (result.committed, result.rounds_applied) != (69566, 18648):
            unit.problems.append(
                f"committed {result.committed}, rounds_applied "
                f"{result.rounds_applied} != 69566, 18648, the scale-smoke "
                "baseline (benchmarks/baselines/BENCH_scale_smoke.json)"
            )
    return unit


def scale_cold(seed: int, shrink: float, phases: Phases, tap=None) -> Unit:
    config = ScaleConfig(
        entities=100_000,
        regions=3,
        # Deliberate: with maximum=30 the cold tail drains by t~100 s and
        # the run degenerates into 368k rounds / 161 s.
        maximum=3000,
        hot_weight=0.0,
        duration=100.0 / shrink,
        rate=4000,
        seed=seed,
    )
    return _scale_unit(config, phases, tap)[0]


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    unit: Callable[..., Unit]
    #: Added to ``--seed`` (the ISSUE's S, S+4, S+8 mapping).
    seed_offset: int
    #: Wall seconds one full-size unit takes on a quiet 2-core host, from
    #: which the per-repeat timeout is derived.
    expected_s: float


REGISTRY = {
    "sim_paper": Workload(sim_paper, 0, 10.0),
    "sim_nemesis": Workload(sim_nemesis, 4, 8.0),
    "scale_hot": Workload(scale_hot, 8, 6.0),
    "scale_cold": Workload(scale_cold, 8, 8.0),
    "live_tcp": Workload(live_tcp, 0, 11.0),
}
