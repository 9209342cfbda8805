"""Benchmark regression gate: figure rows, the runner, and the comparison.

Every table and figure of the paper's §5 is one :class:`Figure` row of
``benchmarks/figures.py``.  :func:`run_figures` runs rows in-process and
writes one ``BENCH_<name>.json`` artifact per row — numbers first, the
paper-shape check outcomes beside them — and :func:`check_artifacts`
derives the whole verdict from those artifacts and the committed
baselines under ``benchmarks/baselines/``.  ``python -m repro bench``
(see ``repro.cli``) is that loop: it exits non-zero with the metric or
the check named, so a perf, correctness or paper-shape regression fails
CI instead of rotting silently.

Comparison rules:

* Only the ``headline`` tree is compared, flattened to dotted paths
  (``throughput_avg.Samya Av.[(n+1)/2]``).  Provenance fields
  (``schema``, ``git_sha``, ``config``, ``metrics``) are informational.
* A numeric leaf must exist on both sides and agree within the metric's
  :class:`Tolerance` (relative and absolute slack combined; the sim is
  deterministic, so tolerances encode *acceptable intended drift*, not
  noise).  Missing or extra leaves fail: a renamed metric is a baseline
  update, not an accident.
* ``seed`` must match when both sides carry it — different workloads
  are not comparable.  Baselines produced before bench-json/2 may lack
  ``schema``/``git_sha``/``seed``; the comparison backfills those as
  ``unknown`` (a note, never a failure) so old artifacts stay usable.
* **Calibrated** metrics (``Figure.calibrated``) are wall-clock
  rates: never comparable across machines directly, so each side is
  first divided by its artifact's top-level ``calibration`` stamp (the
  machine's no-op kernel dispatch rate, ``harness.calibration``) and
  the tolerance applies to the *ratios*.  They are rates (higher is
  better), so only a slowdown beyond tolerance is fatal; a speed-up
  beyond it is a note that the baseline is stale.  An artifact without
  a calibration stamp downgrades the comparison to a note — old
  baselines and ad-hoc runs must not fail the gate on provenance they
  never had.
* Every ``ok: false`` entry of the artifact's ``shape`` section is a
  fatal ``shape`` finding (``error`` when the runner caught an
  exception; the drifted numbers of such a row are not compared).
"""

from __future__ import annotations

import importlib.util
import json
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.harness.calibration import calibration_point
from repro.harness.experiment import run_experiment
from repro.harness.report import (
    BENCH_SCHEMA,
    format_table,
    git_sha,
    write_bench_json,
)


@dataclass(frozen=True)
class Tolerance:
    """Allowed drift for one metric: ``|cur - base| <= max(abs, rel*|base|)``."""

    rel: float = 0.0
    abs: float = 0.0

    def allows(self, baseline: float, current: float) -> bool:
        delta = baseline - current
        if delta < 0:
            delta = -delta
        return delta <= max(self.abs, self.rel * (abs(baseline)))

    def describe(self) -> str:
        parts = []
        if self.rel:
            parts.append(f"±{self.rel * 100:g}%")
        if self.abs:
            parts.append(f"±{self.abs:g}")
        return " or ".join(parts) if parts else "exact"


@dataclass(frozen=True)
class Figure:
    """One row of the figure list: what runs, what it reports, what holds it.

    The comparison reads only ``name`` and the tolerances; everything
    else is what :func:`run_figures` needs to regenerate the artifact.
    ``results`` below is ``{label: what run(config) returned}``.
    """

    name: str
    #: The paper claim the row reproduces (first line: ``bench --list``).
    doc: str = ""
    #: label -> config, variants built by ``replace(BASE, ...)``.
    points: dict[Any, Any] = field(default_factory=dict)
    #: Runs one point.
    run: Callable[[Any], Any] = run_experiment
    #: The gated numbers (the artifact's ``headline`` tree).
    headline: Callable[[dict], dict[str, Any]] = lambda results: {}
    #: The paper's shape as ``(label, ok, detail)`` checks — all judged,
    #: none raising, so one violated property does not hide the next.
    shape: Callable[[dict], list[tuple[str, bool, str]]] = lambda results: []
    #: The printed rows/series, laid out like the paper's.
    table: Callable[[dict], str] = lambda results: ""
    #: Label of the ``ExperimentConfig`` point that runs with
    #: ``metrics=True`` (the registry rides along: passive; results identical)
    #: and whose metrics / demand / flow snapshots become the artifact's
    #: informational sections.
    observed: Any = None
    #: Those sections for a row ``run_experiment`` does not run.
    sections: Callable[[dict], dict[str, Any]] | None = None
    #: The workload seed the points share: artifacts whose seeds differ
    #: are not comparable.
    seed: int | None = None
    default: Tolerance = Tolerance(rel=0.10)
    overrides: dict[str, Tolerance] = field(default_factory=dict)
    #: Dotted-path prefixes to skip entirely (unstable diagnostics).
    ignore: tuple[str, ...] = ()
    #: Dotted-path prefixes gated as calibration ratios (wall-clock
    #: rates divided by each artifact's ``calibration`` stamp); a row
    #: that declares any has its artifact stamped.
    calibrated: dict[str, Tolerance] = field(default_factory=dict)

    def calibrated_for(self, path: str) -> Tolerance | None:
        return _longest_prefix(self.calibrated, path)

    def tolerance_for(self, path: str) -> Tolerance:
        override = _longest_prefix(self.overrides, path)
        return override if override is not None else self.default

    def ignored(self, path: str) -> bool:
        return any(_under(path, prefix) for prefix in self.ignore)


def _under(path: str, prefix: str) -> bool:
    """Dotted-path prefix match: ``a.b`` is under ``a`` and ``a.b``, not ``a.``."""
    return path == prefix or path.startswith(prefix + ".")


def _longest_prefix(table: dict[str, Tolerance], path: str) -> Tolerance | None:
    matches = [prefix for prefix in table if _under(path, prefix)]
    return table[max(matches, key=len)] if matches else None


@dataclass(frozen=True)
class Finding:
    """One comparison outcome worth reporting."""

    bench: str
    #: "regression" | "missing" | "extra" | "seed" | "shape" | "error" | "note"
    kind: str
    metric: str
    detail: str
    fatal: bool


def numeric_leaves(tree: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to dotted-path -> number (bools excluded)."""
    out: dict[str, float] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(numeric_leaves(value, path))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[prefix] = float(tree)
    return out


def _drift(base: float, current: float) -> float:
    """Signed percent change from ``base`` (infinite from a zero base)."""
    return (current - base) / base * 100.0 if base else float("inf")


def _stamp(payload: dict[str, Any]) -> float:
    """An artifact's ``calibration`` stamp; 0.0 when absent or malformed."""
    value = payload.get("calibration")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return 0.0


def _compare_calibrated(
    bench: str,
    path: str,
    base_value: float,
    cur_value: float,
    base_cal: float,
    cur_cal: float,
    tolerance: Tolerance,
) -> list[Finding]:
    """Gate one wall-clock metric as a calibration ratio.

    Each side is normalized by its artifact's ``calibration`` stamp
    (events/sec of the fixed no-op kernel loop on the machine that
    produced it), cancelling the machine constant.  The metric is a rate:
    falling below tolerance is fatal, rising above it is a note.  Either
    stamp missing means the metric cannot be gated — a note, not a
    failure.
    """
    if base_cal <= 0.0 or cur_cal <= 0.0:
        missing = "baseline" if base_cal <= 0.0 else "current artifact"
        return [
            Finding(bench, "note", path,
                    f"{missing} lacks a calibration stamp; wall-clock "
                    "metric not gated", fatal=False)
        ]
    base_ratio = base_value / base_cal
    cur_ratio = cur_value / cur_cal
    if tolerance.allows(base_ratio, cur_ratio):
        return []
    slower = cur_ratio < base_ratio
    return [
        Finding(bench, "regression" if slower else "note", path,
                f"calibrated ratio {base_ratio:.4g} -> {cur_ratio:.4g} "
                f"({_drift(base_ratio, cur_ratio):+.1f}%, tolerance "
                f"{tolerance.describe()}; raw {base_value:g} @ {base_cal:.3g} "
                f"ev/s -> {cur_value:g} @ {cur_cal:.3g} ev/s)", fatal=slower)
    ]


def compare_payloads(
    current: dict[str, Any], baseline: dict[str, Any], spec: Figure
) -> list[Finding]:
    """All findings from one artifact-vs-baseline comparison."""
    bench = spec.name
    findings: list[Finding] = []
    # Provenance: backfill pre-bench-json/2 baselines instead of failing.
    if "schema" not in baseline:
        findings.append(
            Finding(bench, "note", "schema",
                    f"baseline predates {BENCH_SCHEMA}; provenance backfilled "
                    "as unknown", fatal=False)
        )
    cur_seed = current.get("seed")
    base_seed = baseline.get("seed")
    if cur_seed is not None and base_seed is not None and cur_seed != base_seed:
        findings.append(
            Finding(bench, "seed", "seed",
                    f"baseline seed {base_seed} != current seed {cur_seed}; "
                    "not comparable", fatal=True)
        )
        return findings
    base_metrics = numeric_leaves(baseline.get("headline", {}))
    cur_metrics = numeric_leaves(current.get("headline", {}))
    for path in sorted(base_metrics):
        if spec.ignored(path):
            continue
        base_value = base_metrics[path]
        if path not in cur_metrics:
            findings.append(
                Finding(bench, "missing", path,
                        f"baseline has {base_value:g}, current artifact lacks "
                        "the metric", fatal=True)
            )
            continue
        cur_value = cur_metrics[path]
        calibrated = spec.calibrated_for(path)
        if calibrated is not None:
            findings.extend(
                _compare_calibrated(
                    bench, path, base_value, cur_value,
                    _stamp(baseline), _stamp(current),
                    calibrated,
                )
            )
            continue
        tolerance = spec.tolerance_for(path)
        if not tolerance.allows(base_value, cur_value):
            findings.append(
                Finding(bench, "regression", path,
                        f"{base_value:g} -> {cur_value:g} "
                        f"({_drift(base_value, cur_value):+.1f}%, "
                        f"tolerance {tolerance.describe()})", fatal=True)
            )
    for path in sorted(set(cur_metrics) - set(base_metrics)):
        if spec.ignored(path):
            continue
        findings.append(
            Finding(bench, "extra", path,
                    f"current artifact has {cur_metrics[path]:g} but the "
                    "baseline lacks the metric; update baselines", fatal=True)
        )
    return findings


# -- artifact/baseline directories ------------------------------------------


def repo_bench_dir() -> Path:
    """``benchmarks/`` of this checkout (src layout: src/repro/harness/..)."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


def default_baseline_dir() -> Path:
    return repo_bench_dir() / "baselines"


def bench_files(directory: Path) -> dict[str, Path]:
    """Artifact name -> ``BENCH_<name>.json`` path, for one directory."""
    return {
        path.stem[len("BENCH_"):]: path
        for path in sorted(directory.glob("BENCH_*.json"))
    }


def load_figures() -> tuple[Figure, ...]:
    """The rows of ``benchmarks/figures.py``, in paper order.

    Loaded by path (``benchmarks/`` is not a package).  Importing it
    builds configs and runs nothing.
    """
    path = repo_bench_dir() / "figures.py"
    module_spec = importlib.util.spec_from_file_location("repro_figures", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return tuple(module.FIGURES)


def run_figures(figures: Sequence[Figure], out_dir: Path) -> list[Path]:
    """Run each row in-process: points, artifact, then the printed table.

    The artifact is written *before* anything is judged — headline
    numbers with the shape outcomes beside them in a ``shape`` section —
    so a figure whose shape broke still leaves its numbers behind, and
    :func:`check_artifacts` (not this function) turns ``ok: false``
    entries into findings.  Nothing raises past a row: an exception is
    recorded as an ``error`` entry of that row's artifact and the next
    row runs.  Points whose configs compare equal run once per call and
    the rows share the result (fig3b and table2b are the same five).
    """
    memo: list[tuple[Any, Any, Any]] = []

    def run_once(run: Callable[[Any], Any], config: Any) -> Any:
        for seen_run, seen_config, result in memo:
            if seen_run is run and seen_config == config:
                return result
        result = run(config)
        memo.append((run, config, result))
        return result

    written: list[Path] = []
    for figure in figures:
        start = perf_counter()
        headline, sections, checks, text = {}, {}, [], ""
        try:
            results = {
                label: run_once(
                    figure.run,
                    replace(config, metrics=True)
                    if label == figure.observed
                    else config,
                )
                for label, config in figure.points.items()
            }
            headline = figure.headline(results)
            if figure.observed is not None:
                observed = results[figure.observed]
                sections = {
                    "metrics": observed.metrics_snapshot,
                    "demand": observed.demand_snapshot,
                    "flow": observed.flow_snapshot,
                }
            elif figure.sections is not None:
                sections = figure.sections(results)
            checks = [
                {"label": label, "ok": bool(ok), "detail": detail}
                for label, ok, detail in figure.shape(results)
            ]
            text = figure.table(results)
        except Exception as exc:  # one bad row must not hide the others
            traceback.print_exc()
            checks.append(
                {"label": "raised", "ok": False, "error": True,
                 "detail": f"{type(exc).__name__}: {exc}"}
            )
        written.append(
            write_bench_json(
                figure.name,
                headline,
                config={str(label): c for label, c in figure.points.items()},
                seed=figure.seed,
                out_dir=out_dir,
                calibration=calibration_point() if figure.calibrated else None,
                shape=checks,
                **sections,
            )
        )
        print(f"\n== {figure.name} ({perf_counter() - start:.1f} s wall) ==")
        print(text)
    return written


def failed_checks(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """The ``ok: false`` entries of an artifact's ``shape`` section."""
    return [check for check in payload.get("shape", []) if not check["ok"]]


def check_artifacts(
    artifacts_dir: Path,
    baselines_dir: Path,
    names: set[str] | None = None,
    figures: Sequence[Figure] = (),
) -> tuple[list[Finding], int]:
    """The whole verdict, from artifacts alone.

    Every selected artifact's failed shape checks are findings, and its
    headline is compared against its baseline under the tolerances of
    its row in ``figures`` (a name without a row gets the defaults).
    Returns (findings, compared_count).  Selection (``names``) limits
    the gate to benches actually run — a subset run must not fail on
    the baselines it skipped.
    """
    rows = {figure.name: figure for figure in figures}
    findings: list[Finding] = []
    compared = 0
    artifacts = bench_files(artifacts_dir)
    baselines = bench_files(baselines_dir)

    def missing(name: str, detail: str) -> None:
        findings.append(Finding(name, "missing", "-", detail, fatal=True))

    selected = names if names is not None else set(artifacts) | set(baselines)
    for name in sorted(selected):
        artifact_path = artifacts.get(name)
        baseline_path = baselines.get(name)
        if artifact_path is None:
            missing(
                name,
                f"baseline exists but no artifact in {artifacts_dir}"
                if baseline_path is not None
                else "no artifact and no baseline for selected bench",
            )
            continue
        try:
            current = json.loads(artifact_path.read_text(encoding="utf-8"))
            baseline = (
                json.loads(baseline_path.read_text(encoding="utf-8"))
                if baseline_path is not None
                else None
            )
        except (OSError, json.JSONDecodeError) as exc:
            missing(name, f"unreadable artifact: {exc}")
            continue
        failed = failed_checks(current)
        findings.extend(
            Finding(name, "error" if check.get("error") else "shape",
                    check["label"], check["detail"], fatal=True)
            for check in failed
        )
        if baseline is None:
            missing(
                name,
                "no committed baseline; run "
                "`python -m repro bench --update-baselines`",
            )
        elif not any(check.get("error") for check in failed):
            # (A row that raised did not finish: its numbers are partial.)
            compared += 1
            findings.extend(
                compare_payloads(current, baseline, rows.get(name, Figure(name)))
            )
    return findings, compared


def update_baselines(
    artifacts_dir: Path,
    baselines_dir: Path,
    names: set[str] | None = None,
) -> list[Path]:
    """Promote artifacts to committed baselines (backfilling provenance).

    An artifact that carries a failed shape check or an error is not
    promoted: a baseline records a figure that has the paper's shape.
    """
    baselines_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, path in bench_files(artifacts_dir).items():
        if names is not None and name not in names:
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        if failed_checks(payload):
            continue
        # Backfill: artifacts written before bench-json/2 gain the
        # provenance fields at promotion time.
        payload.setdefault("schema", BENCH_SCHEMA)
        payload.setdefault("git_sha", git_sha())
        target = baselines_dir / path.name
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(target)
    return written


def format_report(
    findings: list[Finding], compared: int, checked_names: int
) -> str:
    """Human-readable gate verdict."""
    fatal = [finding for finding in findings if finding.fatal]
    notes = [finding for finding in findings if not finding.fatal]
    lines: list[str] = []
    if findings:
        lines.append(
            format_table(
                ["bench", "kind", "metric", "detail"],
                [[f.bench, f.kind, f.metric, f.detail] for f in findings],
                title="regression gate findings",
            )
        )
        lines.append("")
    verdict = "PASS" if not fatal else f"FAIL ({len(fatal)} fatal finding(s))"
    lines.append(
        f"regression gate: {verdict} — {compared} artifact(s) compared "
        f"across {checked_names} bench(es), {len(notes)} note(s)"
    )
    return "\n".join(lines)
