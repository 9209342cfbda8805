"""Wall-clock performance plane: log-bucketed histograms + the recorder.

Every committed baseline before this module measured *simulated* time;
the sim kernel's event loop, the codec, and the live transports burn
wall time that no table showed.  This module is the measurement layer
for exactly that: log-bucketed duration histograms cheap enough for the
kernel's dispatch loop and a :class:`PerfRecorder` holding the standard
instruments, whose snapshot a bench artifact embeds.

Design constraints, in order:

* **Fixed buckets.**  Bucket boundaries are *constants* —
  ``10 ** (MIN_EXP + i / BUCKETS_PER_DECADE)`` — never derived from the
  data.  Two histograms with these boundaries would merge by adding
  bucket counts, the HDR-histogram property; no code merges or
  serializes one today.
* **Bounded.**  A histogram is at most :data:`BUCKET_COUNT` integers no
  matter how many samples it absorbs; recording never allocates after
  the bucket exists.  That is what lets it replace raw-sample lists on
  paths that see millions of events.
* **Zero overhead when off.**  Nothing here is consulted unless a
  recorder is installed; instrumented code follows the PR 2 pattern —
  one ``is None`` test on the hot path, timing only behind it.

Resolution: :data:`BUCKETS_PER_DECADE` log-spaced buckets per decade
give a worst-case relative quantile error of one bucket ratio
(:func:`bucket_ratio`, ~7.5% at 32/decade) across 10 decades: 100 ns
to 1000 s.  Durations are **seconds**, like every other repro clock.
"""

from __future__ import annotations

import math
from typing import Any

from repro.metrics.latency import LatencySummary

#: Log-spaced buckets per decade.  Fixed (see module docs).
BUCKETS_PER_DECADE = 32

#: Exponent of the smallest tracked duration: 10^-7 s = 100 ns.
MIN_EXP = -7

#: Exponent of the largest tracked duration: 10^3 s.
MAX_EXP = 3

#: Total bucket count; values outside the range clamp into the edge
#: buckets, so counts and sums stay exact even for outliers.
BUCKET_COUNT = (MAX_EXP - MIN_EXP) * BUCKETS_PER_DECADE

_MIN_VALUE = 10.0**MIN_EXP
_LOG_SCALE = float(BUCKETS_PER_DECADE)


def bucket_ratio() -> float:
    """Upper/lower edge ratio of one bucket — the resolution bound."""
    return 10.0 ** (1.0 / BUCKETS_PER_DECADE)


def bucket_index(value: float) -> int:
    """The bucket a duration lands in (clamped at both edges)."""
    if value <= _MIN_VALUE:
        return 0
    index = int((math.log10(value) - MIN_EXP) * _LOG_SCALE)
    if index < 0:
        return 0
    if index >= BUCKET_COUNT:
        return BUCKET_COUNT - 1
    return index


def bucket_upper(index: int) -> float:
    """Upper edge (seconds) of bucket ``index``."""
    return 10.0 ** (MIN_EXP + (index + 1) / _LOG_SCALE)


def bucket_mid(index: int) -> float:
    """Geometric midpoint of bucket ``index`` — the quantile estimate."""
    return 10.0 ** (MIN_EXP + (index + 0.5) / _LOG_SCALE)


class PerfHistogram:
    """Log-bucketed duration histogram.

    Buckets are sparse (a dict of index -> count): most instruments
    touch a narrow band of the 10-decade range, and sparse storage
    makes reading proportional to occupied buckets.
    ``count``/``total``/``vmin``/``vmax`` are tracked exactly, so means
    and extremes carry no bucketing error — only interior quantiles are
    approximate, within one bucket ratio.
    """

    __slots__ = ("buckets", "count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = 0.0

    # -- recording (the hot path) ------------------------------------------

    def record(self, value: float) -> None:
        if value <= _MIN_VALUE:
            index = 0
        else:
            index = int((math.log10(value) - MIN_EXP) * _LOG_SCALE)
            if index < 0:
                index = 0
            elif index >= BUCKET_COUNT:
                index = BUCKET_COUNT - 1
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    # -- reading -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, ``q`` in [0, 100].

        Returns the geometric midpoint of the bucket holding the ranked
        sample, clamped into the exactly-tracked ``[vmin, vmax]`` so
        q=0/q=100 are exact and no estimate overshoots an observed
        extreme.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                estimate = bucket_mid(index)
                return min(max(estimate, self.vmin), self.vmax)
        return self.vmax  # pragma: no cover - rank <= count always hits

    def summary(self) -> LatencySummary:
        """The standard percentile row, from buckets (mean/max exact)."""
        if self.count == 0:
            return LatencySummary.from_samples([])
        return LatencySummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(50),
            p90=self.quantile(90),
            p95=self.quantile(95),
            p99=self.quantile(99),
            maximum=self.vmax,
        )


class PerfRecorder:
    """Named perf histograms: ``(instrument, key)`` -> histogram.

    One recorder rides one run.  Instruments are dotted names
    (``kernel.tick``, ``codec.encode``); ``key`` is the one free label
    (a message type, a span name, a region pair).  Hot paths cache the
    histogram object itself (see ``Kernel.instrument``) so recording
    is a method call, not a dict lookup.
    """

    def __init__(self) -> None:
        self._hists: dict[tuple[str, str], PerfHistogram] = {}
        #: ``(span name,) -> histogram`` of completed spans: the registry
        #: feed's ``repro_span_duration_seconds`` cells, linked by
        #: ``Instruments.attach`` so :meth:`snapshot` reports them as
        #: ``span.dur`` rows without recording each span a second time.
        self.spans: dict[tuple[str, ...], PerfHistogram] = {}

    def histogram(self, instrument: str, key: str = "") -> PerfHistogram:
        handle = (instrument, key)
        hist = self._hists.get(handle)
        if hist is None:
            hist = PerfHistogram()
            self._hists[handle] = hist
        return hist

    def observe(self, instrument: str, key: str, seconds: float) -> None:
        self.histogram(instrument, key).record(seconds)

    def items(self) -> list[tuple[tuple[str, str], PerfHistogram]]:
        return sorted(self._hists.items())

    def __len__(self) -> int:
        return len(self._hists)

    def snapshot(self) -> dict[str, Any]:
        """Flat JSON-safe dump for bench artifacts and results.

        Per instrument/key: count, total seconds, mean/p50/p95/p99/max
        in **milliseconds** (the unit every repro table prints).  Span
        durations are substrate clock seconds — simulated under the
        kernel, wall under the live clock — like the trace they come from.
        """
        spans = [(("span.dur", span), hist) for (span,), hist in self.spans.items()]
        out: dict[str, Any] = {}
        for (instrument, key), hist in sorted([*self._hists.items(), *spans]):
            if hist.count == 0:
                continue
            name = f"{instrument}{{{key}}}" if key else instrument
            summary = hist.summary()
            out[name] = {
                "count": hist.count,
                "sum_s": round(hist.total, 9),
                "mean_ms": round(summary.mean * 1000.0, 6),
                "p50_ms": round(summary.p50 * 1000.0, 6),
                "p95_ms": round(summary.p95 * 1000.0, 6),
                "p99_ms": round(summary.p99 * 1000.0, 6),
                "max_ms": round(summary.maximum * 1000.0, 6),
            }
        return out


def format_perf_report(snapshot: dict[str, Any]) -> str:
    """The perf table of ``run / live --perf``, from a
    :meth:`PerfRecorder.snapshot` (a run result's or a bench artifact's)."""
    from repro.harness.report import format_table

    rows = [
        [
            name,
            cell["count"],
            f"{cell['mean_ms']:.4f}",
            f"{cell['p50_ms']:.4f}",
            f"{cell['p95_ms']:.4f}",
            f"{cell['max_ms']:.4f}",
        ]
        for name, cell in sorted(snapshot.items())
    ]
    return format_table(
        ["instrument", "count", "mean ms", "p50 ms", "p95 ms", "max ms"],
        rows,
        title="wall-clock perf histograms",
    )
