"""The one instruments value, on all three harnesses.

``repro.obs.instruments.Instruments`` is the only place that builds,
attaches, rolls up and snapshots the observability planes.  The
conformance test holds the core sim, the live asyncio substrate and the
scale deployment to one surface; the structural pins keep a second
assembly from growing back next to it.
"""

import re
import socket
from pathlib import Path

import pytest

import repro
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.net import codec
from repro.obs.instruments import Instruments
from repro.runtime.cluster import LiveCluster
from repro.scale.harness import ScaleConfig, build_scale_deployment, run_scale
from repro.workload.trace import TraceConfig

ALL_ON = dict(audit=True, metrics=True, perf=True, flow=True, watchdog=True)
CORE_PLANES = {"audit", "metrics", "demand", "perf", "flow", "liveness"}


def core_config(**overrides):
    defaults = dict(
        duration=5.0, seed=5, trace=TraceConfig(days=2.0), start_interval=0, **ALL_ON
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_sim(tmp_path):
    experiment = Experiment(core_config())
    experiment.run()
    return experiment.instruments, (experiment.kernel, experiment.network)


def run_live(tmp_path):
    cluster = LiveCluster(core_config(mode="live", duration=0.3, maximum=600))
    cluster.run()
    experiment = cluster.experiment
    return experiment.instruments, (experiment.kernel, experiment.network)


def run_scale_point(tmp_path):
    # Every plane ScaleConfig has a flag for: it has none for perf, and
    # no auditor or watchdog rides a bus that carries only msg.* events.
    config = ScaleConfig(
        entities=200,
        duration=1.0,
        rate=400.0,
        seed=3,
        demand=True,
        flow=True,
        trace_path=str(tmp_path / "scale.jsonl"),
    )
    deployment = build_scale_deployment(config)
    run_scale(config, deployment=deployment)
    parts = (deployment.kernel, deployment.transport, *deployment.hosts)
    return deployment.instruments, parts


SUBSTRATES = {
    "sim": (run_sim, CORE_PLANES),
    "live": (run_live, CORE_PLANES),
    "scale": (run_scale_point, {"metrics", "demand", "flow"}),
}

#: Everything an ``instrument()`` stores, on any part.
CACHED_REFS = (
    "_perf_tick", "_perf_push", "_flow_heap", "profiler", "_perf_fire",
    "perf", "flow", "demand", "_flow_mailbox",
)

SAMPLE = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$')


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_one_surface_on_every_substrate(substrate, tmp_path):
    run, expected = SUBSTRATES[substrate]
    instruments, parts = run(tmp_path)

    snapshots = instruments.snapshots()
    assert set(snapshots) == expected
    assert snapshots["metrics"] and snapshots["flow"]["frames"] > 0
    assert snapshots["demand"]["requests"] > 0

    text = instruments.prometheus()
    families = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
        elif not line.startswith("#"):
            assert SAMPLE.match(line), line
    assert "repro_events_total" in families
    assert any(name.startswith("repro_flow_") for name in families)
    assert ("repro_perf_span_dur_seconds" in families) == ("perf" in expected)

    # Attaching an all-off value leaves no ref behind, anywhere.
    off = Instruments()
    off.attach(*parts)
    assert off.bus is None and off.planes == {} and off.snapshots() == {}
    clock, *rest = parts
    for part in parts:
        left = {name: getattr(part, name, None) for name in CACHED_REFS}
        assert not any(value is not None for value in left.values()), (part, left)
    assert all(part.obs is None for part in rest)
    assert codec._PERF is None


def test_the_bus_rule_lives_in_one_place():
    for flag in ("audit", "metrics", "perf", "watchdog"):
        forced = Instruments(**{flag: True})
        # Registry feed and demand tracker ride every bus.
        assert forced.registry is not None and forced.demand is not None, flag
    for quiet in (Instruments(), Instruments(flow=True), Instruments(demand=True)):
        assert quiet.registry is None and quiet.auditor is None
    asked = Instruments(demand=True)
    assert asked.host_demand is asked.demand is not None
    assert Instruments(metrics=True).host_demand is None
    # Tap order: the auditor first, the watchdog last; flow never taps.
    assert list(Instruments(**ALL_ON).planes) == [
        "audit", "metrics", "demand", "perf", "flow", "liveness",
    ]
    assert not hasattr(Instruments(flow=True).flow, "tap")


def test_codec_recorder_does_not_outlive_a_failed_live_run():
    # The recorder is module-global; a TCP run that dies between build
    # and teardown (here: /metrics port already bound) must not leak it.
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        cluster = LiveCluster(
            core_config(mode="live", duration=0.2, maximum=600),
            transport="tcp",
            metrics_port=taken.getsockname()[1],
        )
        with pytest.raises(OSError):
            cluster.run()
    assert codec._PERF is None


SRC = Path(repro.__file__).parent


def occurrences(needle: str, skip: tuple[str, ...] = ()) -> list[str]:
    """``file:line`` of every source line containing ``needle``, outside
    the ``skip`` files and outside ``def`` lines."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in skip:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if needle in line and not line.lstrip().startswith("def "):
                found.append(f"{relative}:{number}")
    return found


def test_there_is_one_assembly():
    for gone in ("def install_perf", "def install_flow", "hasattr(self.kernel"):
        assert not [
            path for path in SRC.rglob("*.py") if gone in path.read_text()
        ], gone
    for gone in ("emit_flow_events", "emit_demand_events", ".rollup("):
        assert occurrences(gone) == [], gone
    # One constructor call each, outside the module that defines the
    # class (whose offline replay helper builds its own).
    home = {
        "EventBus(": "obs/bus.py",
        "FlowTracker()": "obs/flow.py",
        "DemandTracker(": "obs/demand.py",
        "PerfRecorder()": "obs/perf.py",
        "MetricsRegistry()": "obs/registry.py",
        "InvariantAuditor()": "obs/audit.py",
        "LivenessWatchdog(": "resilience/watchdog.py",
    }
    for call, module in home.items():
        (site,) = occurrences(call, skip=(module,))
        assert site.startswith("obs/instruments.py:"), (call, site)
    for call in ("prof.active()", "reset_msg_ids()", '_verbs("rollup")'):
        (site,) = occurrences(call)
        assert site.startswith("obs/instruments.py:"), (call, site)
    (site,) = occurrences("set_perf_recorder(")
    assert site.startswith("runtime/tcp_transport.py:")
