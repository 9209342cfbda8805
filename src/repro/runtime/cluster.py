"""Launcher: run a harness experiment on the live asyncio substrate.

``LiveCluster`` builds the exact same deployment the sim harness builds
— same cluster wiring, same trace-driven clients, same metrics hub and
conservation checker — but on a :class:`~repro.runtime.clock.LiveClock`
and a live transport, then lets the event loop run for
``config.duration`` *wall* seconds.  The result is the same
``ExperimentResult`` the sim path returns, so every report formatter
works unchanged; a :class:`~repro.runtime.metrics.LiveRunStats` rides
along with substrate health.

Selecting the substrate from the harness: set
``ExperimentConfig(mode="live")`` and call ``run_experiment`` — or from
the CLI, ``python -m repro live ...`` / ``python -m repro run --mode
live``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Callable

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.runtime.asyncio_transport import AsyncioTransport, GeoDelayModel
from repro.runtime.clock import LiveClock
from repro.runtime.metrics import LiveRunStats
from repro.runtime.tcp_transport import TcpTransport

TRANSPORTS = ("asyncio", "tcp")

#: Default compression of the WAN latency matrix for live runs: short
#: wall-clock runs keep the paper's local-vs-WAN ratios at ~1/20 scale.
DEFAULT_LATENCY_SCALE = 0.05


@dataclass
class LiveReport:
    """One live run: harness measurements + substrate health."""

    result: ExperimentResult
    stats: dict[str, float | int]
    transport: str


class LiveCluster:
    """Builds and runs one experiment on the live asyncio substrate."""

    def __init__(
        self,
        config: ExperimentConfig,
        transport: str = "asyncio",
        latency_scale: float = DEFAULT_LATENCY_SCALE,
        on_tick: Callable[["object"], None] | None = None,
        tick_interval: float = 1.0,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; pick from {TRANSPORTS}")
        # The builder below is substrate-agnostic; mode only routes the
        # top-level run_experiment dispatch, but it is also what the
        # telemetry run.meta records, so pin it to what actually runs.
        self.config = replace(config, mode="live")
        self.transport_kind = transport
        self.latency_scale = latency_scale
        #: Optional in-flight observer: called with the running
        #: Experiment every ``tick_interval`` wall seconds (``repro top``
        #: renders its live frames from this).  Exceptions propagate and
        #: fail the run, same as any other callback.
        self.on_tick = on_tick
        self.tick_interval = tick_interval
        #: The Experiment under way — readable while the run is in
        #: flight (e.g. by signal handlers wanting a final frame).
        self.experiment = None

    def run(self) -> LiveReport:
        return asyncio.run(self._run())

    async def _run(self) -> LiveReport:
        from repro.harness.experiment import Experiment

        config = self.config
        clock = LiveClock(seed=config.seed)
        if self.transport_kind == "asyncio":
            transport = AsyncioTransport(
                clock,
                delay_model=GeoDelayModel(scale=self.latency_scale),
                loss_probability=config.loss_probability,
                seed=config.seed,
            )
        else:
            transport = TcpTransport(
                clock,
                loss_probability=config.loss_probability,
                seed=config.seed,
            )
        experiment = Experiment(config, kernel=clock, network=transport)
        try:
            try:
                await transport.start()
                stats = LiveRunStats(clock, transport)
                stats.install()
                self.experiment = experiment
                experiment.start()
                ticker = None
                if self.on_tick is not None:
                    ticker = asyncio.ensure_future(self._tick_loop(experiment))
                await asyncio.sleep(config.duration)
                if ticker is not None:
                    ticker.cancel()
                    try:
                        await ticker
                    except asyncio.CancelledError:
                        pass
            finally:
                await transport.aclose()
            # A callback or handler exception (e.g. an invariant violation)
            # must fail the run, exactly as it would under the sim kernel.
            clock.raise_errors()
            transport.raise_errors()
            result = experiment.collect()
        finally:
            # Over TCP the perf recorder also sits in the module-global
            # codec seam; leave nothing behind, however the run ended.
            experiment.instruments.close()
        return LiveReport(result=result, stats=stats.as_dict(), transport=self.transport_kind)

    async def _tick_loop(self, experiment) -> None:
        while True:
            await asyncio.sleep(self.tick_interval)
            self.on_tick(experiment)


def run_live(
    config: ExperimentConfig,
    transport: str = "asyncio",
    latency_scale: float = DEFAULT_LATENCY_SCALE,
) -> ExperimentResult:
    """Run one experiment live and return the harness result."""
    return LiveCluster(config, transport=transport, latency_scale=latency_scale).run().result
