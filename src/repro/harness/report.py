"""Plain-text table/series formatting for the benchmark harness.

Benchmarks print the same rows/series the paper reports so a reader can
diff shapes side by side with the PDF.  ``write_bench_json`` adds the
machine-readable counterpart: every benchmark drops a ``BENCH_<name>.json``
artifact with its headline numbers, so CI (and humans) can diff runs
without scraping stdout tables.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from collections.abc import Sequence
from pathlib import Path
from typing import Any

#: Bench-artifact format version.  /1 was headline+config+seed; /2 adds
#: ``schema``, ``git_sha``, and optional ``metrics`` — the fields the
#: regression gate (repro.harness.regression) keys baselines on.
BENCH_SCHEMA = "bench-json/2"

_GIT_SHA: str | None = None


def git_sha() -> str:
    """The current commit (``-dirty`` suffixed), or ``unknown``.

    Cached per process: the runner writes one artifact per figure and
    must not pay a subprocess per artifact.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            here = Path(__file__).resolve().parent
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=here, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            if sha:
                dirty = subprocess.run(
                    ["git", "status", "--porcelain"],
                    cwd=here, capture_output=True, text=True, timeout=10,
                ).stdout.strip()
                _GIT_SHA = sha + ("-dirty" if dirty else "")
            else:
                _GIT_SHA = "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells else len(headers[col])
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_series(
    points: Sequence[tuple[float, float]],
    title: str = "",
    x_label: str = "t",
    y_label: str = "value",
    max_points: int = 40,
    bar_width: int = 40,
) -> str:
    """Render a time series as an ASCII bar chart (the 'figure')."""
    if not points:
        return f"{title}\n(no data)"
    stride = max(1, len(points) // max_points)
    sampled = list(points[::stride])
    # Striding drops the tail unless it lands on a stride boundary; the
    # final point is the end of the run and must always be shown.
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    peak = max(value for _, value in sampled) or 1.0
    lines = [title] if title else []
    lines.append(f"{x_label:>10}  {y_label}")
    for x, value in sampled:
        bar = "#" * int(round(bar_width * value / peak))
        lines.append(f"{x:>10.1f}  {bar} {value:.1f}")
    return "\n".join(lines)


def ratio(a: float, b: float) -> float:
    """a/b with a guard for empty baselines."""
    return a / b if b else float("inf")


def write_bench_json(
    name: str,
    headline: dict[str, Any],
    config: Any = None,
    seed: int | None = None,
    out_dir: str | os.PathLike | None = None,
    metrics: dict[str, Any] | None = None,
    calibration: float | None = None,
    demand: dict[str, Any] | None = None,
    flow: dict[str, Any] | None = None,
    shape: list[dict[str, Any]] | None = None,
) -> Path:
    """Write ``BENCH_<name>.json``: headline numbers + provenance.

    Every artifact is stamped with the bench-json schema version and
    the producing git commit so committed baselines are attributable;
    ``seed`` makes a baseline-vs-current comparison refuse to compare
    different workloads.  ``config`` may be an ``ExperimentConfig``
    (serialized via ``dataclasses.asdict``), a plain dict, or ``None``.
    Non-JSON values (Region enums, TraceConfig) fall back to ``str``.
    ``metrics`` embeds a point-in-time registry snapshot
    (``ExperimentResult.metrics_snapshot``); ``demand`` embeds the
    contention rollup (``ExperimentResult.demand_snapshot``: token
    locality, hot-entity sketch, prediction scorecard); ``flow`` embeds
    the wire/queue rollup (``ExperimentResult.flow_snapshot``: bytes by
    link and message type, queue watermarks, coalescing efficiency) —
    all are informational sections the regression gate never compares
    (it keys on ``headline`` only; benchmarks that want byte budgets
    gated fold ``FlowTracker.headline()`` into ``headline`` themselves).
    ``calibration`` stamps
    the machine's reference dispatch rate
    (``harness.calibration.calibration_point``) so the regression gate
    can compare wall-clock metrics across machines as ratios.  ``shape``
    (the row's paper-shape checks, ``{label, ok, detail}`` entries) is the
    one section besides ``headline`` the gate reads.  The artifact lands
    in ``out_dir`` (default: the current directory).
    """
    directory = Path(out_dir or ".")
    directory.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = {
        "bench": name,
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "headline": headline,
    }
    if config is not None:
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            config = dataclasses.asdict(config)
        payload["config"] = config
    if seed is not None:
        payload["seed"] = seed
    if metrics is not None:
        payload["metrics"] = metrics
    if demand is not None:
        payload["demand"] = demand
    if flow is not None:
        payload["flow"] = flow
    if calibration is not None:
        payload["calibration"] = round(calibration, 1)
    if shape is not None:
        payload["shape"] = shape
    path = directory / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path
