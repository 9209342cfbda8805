"""The metric catalogue: every number the benchmark prints, in one table.

``BENCHMARK.json`` at the repo root is the projection of this table onto
the keys the benchmark contract allows (name, unit, better, bound);
``python benchmarks/e2e/catalogue.py`` prints that projection and
``test_selfcheck.py`` fails when the two drift apart.  The extra columns
kept here are what the tools need and the contract has no key for:

``agg``
    How samples of one metric (units inside a run, repeats across
    subprocesses) fold into one value.  ``best`` is the min of a cost or
    the max of a rate — the estimator of the undisturbed host, see the
    README's sizing findings.  ``median`` is for values with no "best"
    direction under noise (memory, set-up, wall-clock latency).
    ``exact`` marks numbers on the simulated clock and counts: on the
    four sim-clock workloads every sample must be identical or the run
    fails; on ``live_tcp`` they fall back to the median.
``gate`` / ``floor``
    The bound ``compare.py`` applies between two result files of the
    same seed, as a share of the base, and the absolute movement under
    which it never rules.  ``None`` leaves the row informational.  Exact
    metrics are gated at zero drift on the sim-clock workloads
    regardless.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from layers import LAYERS

#: Seconds one driver run measures for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 15

#: Why each workload is in the benchmark, as BENCHMARK.json records it
#: (the README has the long form).
WHY = {
    "sim_paper": (
        "Fig. 3b point: paper trace, 5 regions, local commits; wall time is "
        "kernel + network + client/site message passing; codec, scale, obs idle"
    ),
    "sim_nemesis": (
        "same protocol under crashes, partitions, 5% drop/2% dup with WAL, "
        "audit, flow and watchdog on: the only sim run where obs/faults/"
        "storage/resilience cost anything"
    ),
    "scale_hot": (
        "10k entities, 256-entity hot set, maximum=30: Eq. 1 refusals and "
        "~150 Avantan rounds per 1000 requests, so scale.site + core.avantan "
        "+ batching + kernel dominate"
    ),
    "scale_cold": (
        "100k entities, no hot set, every request commits locally with 0 "
        "rounds: driver + submit + EntityTable only; kernel or codec changes "
        "must show nothing"
    ),
    "live_tcp": (
        "open loop over loopback TCP on the asyncio clock, below the shed "
        "point: the only run with codec, tcp_transport and LiveClock on the "
        "request path and latency in real time"
    ),
}

WORKLOADS = tuple(WHY)

#: Workloads whose every count and simulated-clock number is a pure
#: function of (code, seed).
SIM_CLOCK = frozenset(WORKLOADS) - {"live_tcp"}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    agg: str
    #: End-to-end only: the share of the parent's median the driver lets
    #: the metric worsen by (measured across *different* seeds, so even
    #: simulated-clock metrics need a non-zero one here).
    bound: float | None = None
    gate: float | None = None
    #: Absolute movement below which ``compare.py`` always says "same".
    floor: float = 0.0


END_TO_END = (
    # The driver bounds are at least 3x the widest interquartile spread
    # seen over two sets of ten seeds (README, "Bounds"); the compare.py
    # gates are the ISSUE-11 bounds for same-seed best-of-N suite runs.
    # setup_s: median of the run's set-ups and the largest bound, because
    # a 13 ms build is the noisiest thing measured; under 0.05 s of
    # movement is never a verdict.
    Metric("setup_s", "s", "lower", "median", bound=0.25, gate=0.15, floor=0.05),
    Metric("requests_per_wall_s", "1/s", "higher", "best", bound=0.20, gate=0.15),
    Metric("peak_rss_mb", "MB", "lower", "median", bound=0.10, gate=0.10),
    # 1 - failed_share and 1 - rejected_share: the contract wants metrics
    # that are never 0, and both shares are 0 on scale_cold.
    Metric("served_share", "ratio", "higher", "exact", bound=0.15, gate=0.005),
    Metric("granted_share", "ratio", "higher", "exact", bound=0.05, gate=0.005),
    # committed / seconds of the workload's own clock (simulated for the
    # four sim workloads, wall for live_tcp).
    Metric("committed_per_s", "1/s", "higher", "exact", bound=0.15, gate=0.05),
)

#: User-visible numbers the driver cannot bound: they exist on some
#: workloads only (the contract reports every end-to-end metric on every
#: workload) or are too host-sensitive.  They ride with the per-layer
#: list, 0 where they do not apply, and ``compare.py`` gates them.
PER_WORKLOAD = (
    # CPU of the run phase / attempted: the cost number of live_tcp, whose
    # wall is fixed.  Not an end-to-end metric of the driver because on
    # live_tcp it moves 25-35% between quiet and busy minutes of one host
    # (README, "Bounds"), more than any bound the contract allows.
    Metric("cpu_us_per_request", "us", "lower", "best", gate=0.25),
    Metric("sim_commit_p50_ms", "ms", "lower", "exact"),
    Metric("sim_commit_p99_ms", "ms", "lower", "exact"),
    Metric("sim_post_heal_committed", "count", "higher", "exact"),
    Metric("live_commit_p50_ms", "ms", "lower", "median", gate=0.10),
    Metric("live_commit_p90_ms", "ms", "lower", "median", gate=0.10),
    Metric("commit_samples", "count", "higher", "exact"),
)

COUNTS = (
    Metric("sim.events_per_request", "count", "lower", "exact"),
    Metric("sim.events_per_wall_s", "1/s", "higher", "best"),
    Metric("sim.fired_per_scheduled", "ratio", "higher", "exact"),
    Metric("net.network.messages_per_request", "count", "lower", "exact"),
    Metric("net.network.dropped_share", "ratio", "lower", "exact"),
    Metric("net.codec.bytes_per_frame", "B", "lower", "exact"),
    Metric("net.codec.encode_us_per_frame", "us", "lower", "best"),
    Metric("net.codec.decode_us_per_frame", "us", "lower", "best"),
    Metric("net.codec.frames_per_request", "count", "lower", "exact"),
    Metric("core.avantan.rounds_per_kreq", "count", "lower", "exact"),
    Metric("core.avantan.aborted_share", "ratio", "lower", "exact"),
    Metric("core.avantan.messages_per_round", "count", "lower", "exact"),
    Metric("core.site.pledge_recoveries", "count", "lower", "exact"),
    Metric("core.client.shed_share", "ratio", "lower", "exact"),
    Metric("scale.site.immediate_share", "ratio", "higher", "exact"),
    Metric("scale.site.rounds_per_kreq", "count", "lower", "exact"),
    Metric("scale.site.protocol_instances", "count", "lower", "exact"),
    Metric("scale.site.table_bytes_per_entity", "B", "lower", "exact"),
    Metric("scale.batching.coalescing_ratio", "ratio", "higher", "exact"),
    Metric("runtime.drift_avg_ms", "ms", "lower", "median"),
    Metric("runtime.drift_max_ms", "ms", "lower", "median"),
    Metric("runtime.callbacks_per_request", "count", "lower", "exact"),
    Metric("faults.injected_drop_share", "ratio", "lower", "exact"),
    Metric("storage.wal_appends_per_commit", "count", "lower", "exact"),
    Metric("resilience.sweeps", "count", "lower", "exact"),
    Metric("resilience.recoveries_driven", "count", "lower", "exact"),
    Metric("obs.events_per_request", "count", "lower", "exact"),
    Metric("trace.residual_share", "ratio", "lower", "median"),
    Metric("trace.overhead_ratio", "ratio", "lower", "median"),
)

PER_LAYER = (
    tuple(
        Metric(f"{layer}.self_us_per_request", "us", "lower", "best")
        for layer in LAYERS
    )
    + tuple(
        Metric(f"{layer}.calls_per_request", "count", "lower", "exact")
        for layer in LAYERS
    )
    + COUNTS
    + PER_WORKLOAD
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def aggregate(name: str, workload: str, samples: list[float]) -> float:
    """Fold samples of one metric into the value that is reported."""
    metric = BY_NAME[name]
    agg = metric.agg
    if agg == "exact":
        if workload in SIM_CLOCK:
            if any(sample != samples[0] for sample in samples):
                raise NondeterminismError(
                    f"{workload} {name}: exact metric differs across "
                    f"same-seed repeats: {samples}"
                )
            return samples[0]
        agg = "median"
    if agg == "best":
        return min(samples) if metric.better == "lower" else max(samples)
    return statistics.median(samples)


class NondeterminismError(AssertionError):
    """A simulated-clock number moved between identical runs."""


def manifest() -> dict:
    """The ``BENCHMARK.json`` this catalogue declares."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
