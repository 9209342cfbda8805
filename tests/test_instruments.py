"""The one instruments value, on all three harnesses.

``repro.obs.instruments.Instruments`` is the only place that builds,
attaches, rolls up and snapshots the observability planes.  The
conformance test holds the core sim, the live asyncio substrate and the
scale deployment to one surface; the structural pins keep a second
assembly from growing back next to it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import repro
from repro.faults import NemesisConfig
from repro.harness import experiment as experiment_module
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.net import codec
from repro.net.network import NetworkConfig
from repro.obs.instruments import Instruments
from repro.runtime import cluster as cluster_module
from repro.runtime.cluster import LiveCluster
from repro.scale.harness import ScaleConfig, build_scale_deployment, run_scale
from repro.workload.trace import TraceConfig

ALL_ON = dict(audit=True, metrics=True, perf=True, flow=True, watchdog=True)
CORE_PLANES = {"audit", "metrics", "demand", "perf", "flow", "liveness"}


def core_config(**overrides):
    defaults = dict(
        duration=5.0, seed=5, trace=TraceConfig(days=2.0), **ALL_ON
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


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_one_surface_on_every_substrate(substrate, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment_module, "START_INTERVAL", 0)
    run, expected = SUBSTRATES[substrate]
    instruments, parts = run(tmp_path)

    snapshots = instruments.snapshots()
    assert set(snapshots) == expected
    assert snapshots["metrics"] and snapshots["flow"]["frames"] > 0
    assert snapshots["demand"]["requests"] > 0

    # Span durations have one owner, the registry feed; the perf table
    # still shows them, read from the feed's histograms.
    if "perf" in expected:
        feed = snapshots["metrics"]
        rows = {
            key[len("span.dur{"):-1]: row
            for key, row in snapshots["perf"].items()
            if key.startswith("span.dur{")
        }
        assert "request" in rows
        for span, row in rows.items():
            count = feed[f'repro_span_duration_seconds{{span="{span}"}}_count']
            assert row["count"] == count

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


def test_codec_recorder_does_not_outlive_a_failed_live_run(monkeypatch):
    # The recorder is module-global; a TCP run that dies between build
    # and teardown (here: right after the transport started) must not
    # leak it.
    def fail(self):
        raise OSError("injected")

    monkeypatch.setattr(cluster_module.LiveRunStats, "install", fail)
    cluster = LiveCluster(
        core_config(mode="live", duration=0.2, maximum=600), transport="tcp"
    )
    with pytest.raises(OSError, match="injected"):
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
    # ... plus the one offline assembly: `repro trace FILE` replays a
    # trace through the same three folds (the summary renders from
    # them) and, under --audit, through an auditor, in a single pass.
    offline = {
        "FlowTracker()": ["obs/summary.py"],
        "DemandTracker(": ["obs/summary.py"],
        "MetricsRegistry()": ["obs/summary.py"],
        "InvariantAuditor()": ["cli.py"],
    }
    for call, module in home.items():
        files = [site.split(":")[0] for site in occurrences(call, skip=(module,))]
        assert files == sorted(["obs/instruments.py", *offline.get(call, [])]), call
    for call in ("prof.active()", "reset_msg_ids()", '_verbs("rollup")'):
        (site,) = occurrences(call)
        assert site.startswith("obs/instruments.py:"), (call, site)
    (site,) = occurrences("set_perf_recorder(")
    assert site.startswith("runtime/tcp_transport.py:")


# -- one owner per number, one writer per format ---------------------------

@pytest.fixture(scope="module")
def observed_run():
    experiment = Experiment(
        ExperimentConfig(
            duration=60.0, seed=3, metrics=True, flow=True, perf=True, watchdog=True
        )
    )
    return experiment.instruments, experiment.run()


def test_every_number_on_metrics_has_one_owner(observed_run):
    # Locality and wire numbers live in the demand and flow snapshots
    # alone; the registry feed carries none of them.
    _, result = observed_run
    assert result.demand_snapshot["sites"] and result.flow_snapshot["frames"] > 0
    flat = result.metrics_snapshot
    assert not [k for k in flat if k.startswith(("repro_demand_", "repro_flow_"))]


def test_result_snapshots_keep_what_the_benchmark_reads(observed_run):
    # benchmarks/e2e/workloads.py sums these and may not be edited.
    _, result = observed_run
    events = [
        value
        for key, value in result.metrics_snapshot.items()
        if key.startswith('repro_events_total{type="')
    ]
    assert events and sum(events) > result.committed
    assert result.flow_snapshot["frames"] > 0
    assert result.liveness_snapshot["sweeps"] > 0


def test_the_benchmark_surface_resolves():
    # benchmarks/e2e may not be edited, so what it names must keep
    # existing: every repro import, every config keyword it passes.
    e2e = SRC.parent.parent / "benchmarks" / "e2e"
    for path in sorted(e2e.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    submodule = hasattr(module, "__path__") and importlib.util.find_spec(name)
                    assert hasattr(module, alias.name) or submodule, f"{path.name}: {name}"
    classes = {cls.__name__: cls for cls in (ExperimentConfig, ScaleConfig, NemesisConfig)}
    passed = {name: set() for name in classes}
    for node in ast.walk(ast.parse((e2e / "workloads.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in classes:
            passed[node.func.id] |= {k.arg for k in node.keywords if k.arg}
    for name, keywords in passed.items():
        assert keywords, name  # the scan still sees the calls
        fields = {field.name for field in dataclasses.fields(classes[name])}
        assert keywords <= fields, (name, sorted(keywords - fields))
    NetworkConfig()


def pattern_lines(pattern: str, *relative: str) -> int:
    """Source lines matching ``pattern`` in the named files or
    directories under ``src/repro`` (all of it when none is named)."""
    paths = []
    for root in [SRC / name for name in relative] or [SRC]:
        paths += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    return sum(
        bool(re.search(pattern, line))
        for path in paths
        for line in path.read_text().splitlines()
    )


def test_one_writer_per_format():
    # One histogram class, no number derived twice.
    assert pattern_lines(r"class Histogram|DEFAULT_BUCKETS", "obs/registry.py") == 0
    assert pattern_lines(r"repro_demand_|repro_flow_", "obs/registry.py") == 0
    assert pattern_lines(r"def _report_(flow|perf)", "cli.py") == 0
    assert pattern_lines(r'event\["', "obs/summary.py") == 0
    assert pattern_lines(r'title="wire bytes by message type') == 1
    assert pattern_lines(r"tracemalloc") == 0
