"""Build and run one experiment: system + workload + faults + metrics.

This is the programmatic equivalent of the paper's GCP deployment
scripts.  ``ExperimentConfig`` holds every knob a table or figure
varies; ``run_experiment`` returns an ``ExperimentResult`` with the
measurements the paper reports (commit-latency percentiles, throughput,
redistribution counts) plus safety-audit results the paper asserts
implicitly (token conservation, Eq. 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.baselines.crdb import CockroachLikeCluster
from repro.baselines.demarcation import DemarcationCluster
from repro.baselines.multipaxsys import MultiPaxSysCluster
from repro.core.client import WorkloadClient
from repro.core.cluster import Deployment, SamyaCluster
from repro.core.config import AvantanVariant, SamyaConfig
from repro.core.entity import Entity
from repro.core.reallocation import (
    EqualSplitReallocator,
    GreedyMaxUsageReallocator,
    ProportionalReallocator,
)
from repro.faults.schedule import CrashController, RegionFault, resolve_faults
from repro.metrics.hub import MetricsHub
from repro.metrics.invariants import ConservationChecker, InvariantViolation
from repro.metrics.latency import LatencySummary
from repro.net.network import sim_substrate
from repro.net.regions import MULTIPAXSYS_REGIONS, PAPER_REGIONS, Region
from repro.obs.bus import Sink
from repro.obs.instruments import Instruments
from repro.obs.schema import SCHEMA
from repro.prediction.arima import ArimaPredictor
from repro.prediction.lstm import LstmPredictor
from repro.prediction.oracle import OraclePredictor
from repro.prediction.random_walk import RandomWalkPredictor
from repro.prediction.seasonal import SeasonalNaivePredictor
from repro.workload.allocation import historic_allocation, proportional_split
from repro.workload.readwrite import mix_reads
from repro.workload.requests import (
    demand_per_compressed_interval,
    regional_operations,
)
from repro.workload.trace import SyntheticAzureTrace, TraceConfig

PREDICTORS = ("none", "seasonal", "random-walk", "arima", "lstm", "oracle")

REALLOCATORS = {
    "greedy": GreedyMaxUsageReallocator,
    "proportional": ProportionalReallocator,
    "equal-split": EqualSplitReallocator,
}

#: Historical trace intervals fed to each site's predictor before the run.
PRETRAIN_INTERVALS = 1152

#: The one entity every experiment contends on.
ENTITY_ID = "VM"

#: Trace interval at which the run's load window begins.  The default
#: window (from 03:00 of day 1) covers the Australia and Asia daily peaks
#: within a 600 s run.
START_INTERVAL = 36

#: Period of the conservation checker's sweep (simulated seconds).
INVARIANT_INTERVAL = 20.0


@dataclass
class ExperimentConfig:
    """Everything one run needs; defaults follow §5.2."""

    system: str = "samya-majority"
    #: Execution substrate: "sim" runs on the discrete-event kernel,
    #: "live" on the asyncio runtime (see repro.runtime).  Live runs
    #: use *wall-clock* duration — keep it small.
    mode: str = "sim"
    duration: float = 600.0
    sites_per_region: int = 1
    maximum: int = 5000
    seed: int = 1
    trace: TraceConfig = field(default_factory=TraceConfig)
    #: §5.1.2 compression: 300 s intervals replayed in this many seconds.
    compressed_interval: float = 5.0
    demand_scale: float = 1.0
    read_ratio: float = 0.0
    predictor: str = "seasonal"
    loss_probability: float = 0.0
    faults: tuple[RegionFault, ...] = ()
    #: Per-client in-flight window (None = unbounded open loop).
    max_outstanding: int | None = 8
    #: Clients write off requests unanswered for this long as FAILED
    #: (frees the window; emits ``liveness.request_expired`` on traced
    #: runs).  Fault scenarios that heal late should raise it.
    request_timeout: float = 10.0
    #: Subscribe the liveness watchdog (repro.resilience) to the run's
    #: event stream: periodic sweeps flag stuck rounds / starved
    #: requests / stale pledges as ``liveness.*`` events and drive
    #: pledge recovery on idle sites.  It consumes events, so like
    #: ``audit`` / ``metrics`` / ``perf`` it forces a bus; snapshot lands
    #: in ``ExperimentResult.liveness_snapshot``.
    watchdog: bool = False
    enforce_constraint: bool = True
    redistribute: bool = True
    #: Run reactive redistributions exactly as the paper describes them
    #: (Eq. 5's TokensWanted = m, queue through cooldowns).  The default
    #: False uses the engineering improvements described in
    #: repro.core.config; Fig. 3f contrasts the two.
    paper_literal_reactive: bool = False
    reallocator: str = "greedy"
    #: "even" splits M_e equally across sites (the paper's default);
    #: "historic" weights each region by its recent mean demand
    #: (§5.2's uneven-start option).
    initial_allocation: str = "even"
    #: Sites' prediction epoch; defaults to the compressed interval.
    epoch_seconds: float | None = None
    #: Deploy MultiPaxSys replicas in the 5 paper regions instead of the
    #: Spanner-style 3-US placement (used by the failure experiments,
    #: which crash/partition whole regions).
    multipaxsys_paper_regions: bool = False
    #: Write a JSONL telemetry trace (repro.obs) here (``.gz`` for a
    #: gzip-compressed trace).  None disables the on-disk trace; a bus
    #: is still built if an event-consuming plane asks for one (the
    #: rule lives in repro.obs.instruments), and with none every emit
    #: site stays a single ``is None`` branch.
    trace_path: str | None = None
    #: Subscribe the online invariant auditor (repro.obs.audit) to the
    #: run's event stream; violations land in
    #: ``ExperimentResult.audit_violations`` instead of raising mid-run.
    audit: bool = False
    #: Keep a live metrics registry (repro.obs.registry) fed from the
    #: event stream; its snapshot lands in
    #: ``ExperimentResult.metrics_snapshot`` (and bench artifacts).
    metrics: bool = False
    #: Record wall-clock perf histograms (repro.obs.perf): kernel
    #: tick/heap-push timings plus per-phase span durations from the
    #: event stream.  Snapshot lands in ``ExperimentResult.perf_snapshot``.
    perf: bool = False
    #: Track wire/queue flow (repro.obs.flow): per-link and per-type
    #: frame/byte counters at the transport seam, kernel-heap and
    #: transport-queue watermarks.  Byte stamps ride ``msg.send`` and
    #: bounded ``flow.*`` rollups land in the trace at collect; the
    #: snapshot lands in ``ExperimentResult.flow_snapshot``.
    flow: bool = False

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; pick from {tuple(SYSTEMS)}"
            )
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; pick from {PREDICTORS}"
            )
        if self.reallocator not in REALLOCATORS:
            raise ValueError(
                f"unknown reallocator {self.reallocator!r}; "
                f"pick from {tuple(REALLOCATORS)}"
            )
        if self.initial_allocation not in ("even", "historic"):
            raise ValueError(
                f"unknown initial_allocation {self.initial_allocation!r}"
            )
        if self.mode not in ("sim", "live"):
            raise ValueError(f"unknown mode {self.mode!r}; pick 'sim' or 'live'")


@dataclass
class ExperimentResult:
    """What one run measured."""

    system: str
    duration: float
    committed: int
    committed_reads: int
    rejected: int
    failed: int
    shed: int
    unanswered: int
    latency: LatencySummary
    read_latency: LatencySummary
    throughput_series: list[tuple[float, float]]
    redistributions: dict[str, int]
    #: Per-round protocol trace summary (Samya systems only).
    rounds: dict[str, float]
    #: Tokens held by the sites, settled: a participant that has not yet
    #: applied a decided value counts its decided grant, not the balance
    #: it pooled (the checker's Eq. 1 sum).  None where sites hold no pool.
    tokens_left_total: int | None
    invariant_checks: int
    #: Online-audit verdict (config.audit): one row per violation the
    #: auditor recorded; empty means a clean run (or auditing off).
    audit_violations: list[str] = field(default_factory=list)
    #: Point-in-time registry dump (config.metrics or any traced run).
    metrics_snapshot: dict[str, float] | None = None
    #: Wall-clock perf histogram dump (config.perf): per instrument/key,
    #: count + mean/p50/p95/p99/max ms (see PerfRecorder.snapshot).
    perf_snapshot: dict | None = None
    #: Demand/contention rollup (any traced/monitored run): token
    #: locality per site, hot-entity sketch, prediction scorecard
    #: (see DemandTracker.snapshot; lands in bench ``demand`` sections).
    demand_snapshot: dict | None = None
    #: Wire/queue flow rollup (config.flow): per-link and per-type
    #: frames/bytes, queue watermarks, coalescing efficiency (see
    #: FlowTracker.snapshot; lands in bench ``flow`` sections).
    flow_snapshot: dict | None = None
    #: Watchdog rollup (config.watchdog): sweeps run, stuck/starved/
    #: stale detections, recoveries driven, and what was still open at
    #: the end (see LivenessWatchdog.snapshot).
    liveness_snapshot: dict | None = None

    @property
    def committed_total(self) -> int:
        return self.committed + self.committed_reads

    @property
    def throughput_avg(self) -> float:
        return self.committed_total / self.duration if self.duration > 0 else 0.0


# -- system construction ------------------------------------------------------


def _build_samya(variant: AvantanVariant, experiment: "Experiment") -> SamyaCluster:
    config = experiment.config
    allocation = None
    if config.initial_allocation == "historic":
        per_region = historic_allocation(
            experiment.trace,
            list(PAPER_REGIONS),
            config.maximum,
            end_interval=START_INTERVAL,
        )
        # SamyaCluster places one site per region per replica rank;
        # split each region's share across its replicas.
        allocation = []
        for replica in range(config.sites_per_region):
            for index in range(len(PAPER_REGIONS)):
                shares = proportional_split(
                    per_region[index], [1.0] * config.sites_per_region
                )
                allocation.append(shares[replica])
    return SamyaCluster(
        kernel=experiment.kernel,
        network=experiment.network,
        entity=experiment.entity,
        regions=PAPER_REGIONS,
        sites_per_region=config.sites_per_region,
        config=SamyaConfig(
            variant=variant,
            epoch_seconds=config.epoch_seconds or config.compressed_interval,
            enforce_constraint=config.enforce_constraint,
            redistribute=config.redistribute,
            proactive=config.predictor != "none",
            paper_literal_reactive=config.paper_literal_reactive,
            reactive_cooldown=1.0 if config.paper_literal_reactive else 5.0,
        ),
        predictor_factory=experiment._make_predictor,
        reallocator=REALLOCATORS[config.reallocator](),
        initial_allocation=allocation,
    )


def _build_multipaxsys(experiment: "Experiment") -> MultiPaxSysCluster:
    config = experiment.config
    replica_regions = (
        PAPER_REGIONS if config.multipaxsys_paper_regions else MULTIPAXSYS_REGIONS
    )
    return MultiPaxSysCluster(
        experiment.kernel,
        experiment.network,
        experiment.entity,
        client_regions=PAPER_REGIONS,
        replica_regions=replica_regions,
    )


def _build_crdb(experiment: "Experiment") -> CockroachLikeCluster:
    return CockroachLikeCluster(
        experiment.kernel,
        experiment.network,
        experiment.entity,
        client_regions=PAPER_REGIONS,
        replica_regions=PAPER_REGIONS,
    )


def _build_demarcation(experiment: "Experiment") -> DemarcationCluster:
    return DemarcationCluster(
        experiment.kernel,
        experiment.network,
        experiment.entity,
        regions=PAPER_REGIONS,
    )


#: The systems §5 compares: name -> builder(experiment) -> Deployment.
SYSTEMS = {
    "samya-majority": partial(_build_samya, AvantanVariant.MAJORITY),
    "samya-star": partial(_build_samya, AvantanVariant.STAR),
    "multipaxsys": _build_multipaxsys,
    "crdb": _build_crdb,
    "demarcation": _build_demarcation,
}


class Experiment:
    """A built, not-yet-run experiment; exposes internals for tests.

    By default the experiment builds its own sim substrate (Kernel +
    Network).  A caller may inject any :class:`repro.net.transport.Clock`
    / ``Transport`` pair instead — that is how ``repro.runtime`` reuses
    this builder unchanged for live asyncio and TCP runs.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        kernel=None,
        network=None,
        trace_sink: Sink | None = None,
    ) -> None:
        self.config = config
        if network is None:
            kernel, network = sim_substrate(
                config.seed, loss_probability=config.loss_probability
            )
        self.kernel = kernel
        self.network = network
        #: Every observability plane of the run (``.bus``, ``.auditor``,
        #: ``.registry``, ``.demand``, ``.perf``, ``.flow``, ``.watchdog``).
        self.instruments = Instruments(
            sink=trace_sink,
            trace_path=config.trace_path,
            audit=config.audit,
            metrics=config.metrics,
            perf=config.perf,
            flow=config.flow,
            watchdog=config.watchdog,
        )
        self.instruments.attach(self.kernel, self.network)
        # A deployment decision, not wiring: core actors emit protocol
        # spans through the clock they already hold (the scale harness
        # keeps its kernel bare).
        self.kernel.obs = self.instruments.bus
        self.trace = SyntheticAzureTrace(config.trace)
        self.entity = Entity(ENTITY_ID, config.maximum)
        self.metrics = MetricsHub()
        self.cluster: Deployment = SYSTEMS[config.system](self)
        self.servers: list = self.cluster.servers
        self.clients: list[WorkloadClient] = self.cluster.clients
        self.checker: ConservationChecker | None = self.cluster.make_checker(
            config.maximum
        )
        if self.checker is not None:
            # With a bus, safety violations become invariant.violation
            # trace events (audited, never lost) instead of mid-run raises.
            self.checker.obs = self.instruments.bus
        self._add_clients()
        self._controller = CrashController(self.kernel, self.network)
        self._install_faults()

    def _make_predictor(self, region: Region, replica: int):
        config = self.config
        if config.predictor == "none":
            return None
        series = demand_per_compressed_interval(self.trace, region).astype(float)
        if config.demand_scale != 1.0:
            series = series * config.demand_scale
        if config.sites_per_region > 1:
            # Load in a region splits across its sites.
            series = series / config.sites_per_region
        per_day = self.trace.config.intervals_per_day
        # Sites observe demand per *epoch*; when the epoch spans several
        # trace intervals, pretraining data must be binned to match.
        epoch = config.epoch_seconds or config.compressed_interval
        bin_size = max(1, int(round(epoch / config.compressed_interval)))
        if bin_size > 1:
            usable = (len(series) // bin_size) * bin_size
            series = series[:usable].reshape(-1, bin_size).sum(axis=1)
            per_day = max(1, per_day // bin_size)
        n = len(series)
        start_bin = START_INTERVAL // bin_size
        pretrain_bins = max(8, PRETRAIN_INTERVALS // bin_size)
        history_idx = (
            start_bin - pretrain_bins + np.arange(pretrain_bins)
        ) % n
        history = list(series[history_idx])
        if config.predictor == "seasonal":
            predictor = SeasonalNaivePredictor(period=per_day, seasons=2)
            predictor.fit(history)
        elif config.predictor == "random-walk":
            predictor = RandomWalkPredictor()
            predictor.fit(history)
        elif config.predictor == "arima":
            predictor = ArimaPredictor()
            predictor.fit(history)
        elif config.predictor == "lstm":
            predictor = LstmPredictor(periods=(per_day,), seed=config.seed)
            predictor.fit(history)
        elif config.predictor == "oracle":
            horizon = int(np.ceil(config.duration / epoch)) + 2
            future_idx = (start_bin + np.arange(horizon)) % n
            predictor = OraclePredictor(list(series[future_idx]))
        else:  # pragma: no cover - guarded by __post_init__
            raise AssertionError(config.predictor)
        return predictor

    # -- workload ----------------------------------------------------------------

    def _add_clients(self) -> None:
        config = self.config
        per_region = regional_operations(
            self.trace,
            list(PAPER_REGIONS),
            duration=config.duration,
            compressed_interval=config.compressed_interval,
            seed=config.seed,
            start_interval=START_INTERVAL,
            demand_scale=config.demand_scale,
        )
        for region, operations in per_region.items():
            if config.read_ratio > 0.0:
                rng = random.Random(f"reads:{config.seed}:{region.value}")
                operations = mix_reads(operations, config.read_ratio, rng)
            client = self.cluster.add_client(region, operations, metrics=self.metrics)
            client.max_outstanding = config.max_outstanding
            client.request_timeout = config.request_timeout

    # -- faults ------------------------------------------------------------------

    def _install_faults(self) -> None:
        config = self.config
        for actor in self.servers + self.clients + list(
            self.cluster.app_managers.values()
        ):
            self._controller.register(actor)
        if not config.faults:
            return
        servers_by_region: dict[Region, list[str]] = {}
        for server in self.servers:
            servers_by_region.setdefault(server.region, []).append(server.name)
        clients_by_region: dict[Region, list[str]] = {}
        for client in self.clients:
            clients_by_region.setdefault(client.region, []).append(client.name)
        extras = {
            region: [manager.name]
            for region, manager in self.cluster.app_managers.items()
        }
        schedule = resolve_faults(
            list(config.faults), servers_by_region, clients_by_region, extras
        )
        self._controller.install(schedule)

    # -- execution ---------------------------------------------------------------

    def start(self) -> None:
        """Install the periodic safety audit and release the clients.

        Split from :meth:`collect` so a live launcher can start the
        deployment, let the asyncio loop run for wall-clock duration,
        and only then gather results; ``run`` composes both around the
        sim kernel.
        """
        config = self.config
        obs = self.instruments.bus
        if obs is not None:
            obs.emit(
                "run.meta",
                schema=SCHEMA,
                substrate=config.mode,
                system=config.system,
                seed=config.seed,
                duration=config.duration,
                maximum=config.maximum,
                predictor=config.predictor,
                reallocator=config.reallocator,
            )
        if self.checker is not None:
            self.checker.install_periodic(
                self.kernel, INVARIANT_INTERVAL, config.duration
            )
        self.instruments.start(self.servers, config.duration)
        self.cluster.start()

    def collect(self) -> ExperimentResult:
        """Final safety check + measurement assembly (after the run)."""
        config = self.config
        if self.checker is not None:
            self.checker.check()
            if self.checker.violations and self.instruments.auditor is None:
                # A traced-but-unaudited run must still fail loudly: the
                # violations are in the trace, but nobody is watching it.
                raise InvariantViolation(
                    f"{self.checker.violations} safety violation(s) recorded "
                    "in the trace; re-run with auditing or see "
                    "invariant.violation events"
                )
        result = ExperimentResult(
            system=config.system,
            duration=config.duration,
            committed=self.metrics.committed,
            committed_reads=self.metrics.committed_reads,
            rejected=self.metrics.rejected,
            failed=self.metrics.failed,
            shed=sum(client.shed for client in self.clients),
            unanswered=sum(client.unanswered() for client in self.clients),
            latency=self.metrics.latency_summary(),
            read_latency=self.metrics.read_latency_summary(),
            throughput_series=self.metrics.throughput.series(0.0, config.duration),
            redistributions=self.cluster.redistribution_totals(),
            rounds=self.cluster.round_summary(),
            tokens_left_total=(
                self.checker.settled_tokens()
                if self.checker is not None
                else self.cluster.total_tokens_left()
            ),
            invariant_checks=self.checker.checks if self.checker else 0,
        )
        snapshots = self.instruments.collect(
            committed=result.committed,
            rejected=result.rejected,
            failed=result.failed,
            committed_reads=result.committed_reads,
            shed=result.shed,
        )
        result.audit_violations = snapshots.get("audit", [])
        result.metrics_snapshot = snapshots.get("metrics")
        result.perf_snapshot = snapshots.get("perf")
        result.demand_snapshot = snapshots.get("demand")
        result.flow_snapshot = snapshots.get("flow")
        result.liveness_snapshot = snapshots.get("liveness")
        return result

    def run(self) -> ExperimentResult:
        self.start()
        self.kernel.run(until=self.config.duration)
        return self.collect()


def build_experiment(config: ExperimentConfig) -> Experiment:
    return Experiment(config)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if config.mode == "live":
        # Imported lazily: the sim path must not depend on the runtime
        # package (and the runtime package imports this module).
        from repro.runtime.cluster import run_live

        return run_live(config)
    return Experiment(config).run()
