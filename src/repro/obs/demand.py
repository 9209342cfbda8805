"""Demand & contention analytics over the telemetry stream.

The paper's efficiency story is *token locality*: demand-driven
redistribution should let hot entities be served from locally held
tokens instead of cross-region Avantan rounds.  PR 2/3/6 measure
latency, faults, and CPU; this module measures the claim itself.
:class:`DemandTracker` folds ``site.serve`` / ``epoch.close`` /
``realloc.trigger`` events (delivered by :class:`DemandTap`, a
read-only :class:`~repro.obs.bus.EventBus` tap, or fed directly by the
scale host's local call path) into four views:

* **Token locality** — per site, granted acquires split into ``local``
  (answered straight from the site's balance) versus ``waited``
  (answered only after queueing through a redistribution round), plus
  rejections.  ``locality_ratio`` = local / (local + waited) is the
  Eq.1-adjacent efficiency metric.
* **Hot entities** — a bounded :class:`SpaceSavingSketch` (Metwally et
  al.'s space-saving algorithm) of per-entity request counts, with
  per-entity locality and token-residency aux data carried only for
  the K entities currently in the sketch, so memory stays O(K) at the
  10^5–10^6-entity scale regime.
* **Prediction scorecard** — joins each epoch's *predicted* demand
  (the forecast the site stashed at the previous epoch close, carried
  on ``epoch.close``) against the *observed* arrivals of that epoch:
  signed error per epoch, running MAPE per site.
* **Starvation** — requests that waited on a round and were still
  rejected.

``format_demand_report`` renders all four; ``repro trace --demand``
prints it for a trace and every ``repro top`` frame is it for the
in-flight tracker.

Everything here observes and never emits: the one exception,
:meth:`DemandTracker.rollup`, is called by the *bus owner* (the
experiment harness, at collect time) to write the ``demand.*`` summary
events into the trace — a tap must never re-enter the bus.

Determinism: the tracker draws no randomness and iterates in sorted
order everywhere it renders, so a fixed-seed run produces a
byte-identical ``--demand`` report.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping

# NOTE: repro.harness.report is imported lazily inside format_demand_report
# (same cycle-avoidance as repro.obs.summary).

__all__ = [
    "DemandTap",
    "DemandTracker",
    "SpaceSavingSketch",
    "format_demand_report",
    "track_demand",
]


class SpaceSavingSketch:
    """Bounded top-K heavy-hitter counter (space-saving algorithm).

    Holds at most ``capacity`` keys.  A new key arriving at capacity
    *replaces* the current minimum: it inherits ``min + count`` with
    error bound ``min``, so every stored estimate over-counts by at
    most its recorded ``error`` — ``true <= estimate <= true + error``
    for keys genuinely in the stream — and any key with true count
    above ``N / capacity`` (``N`` counts so far) is guaranteed to be
    present.

    Deterministic by construction: eviction picks the (count, key)
    minimum, so equal-count ties break lexicographically, and
    :meth:`items` orders by descending count then key.
    """

    __slots__ = ("capacity", "_counts", "_errors")

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def update(self, key: str, count: int = 1) -> str | None:
        """Count ``key``; returns the evicted key if one was replaced."""
        counts = self._counts
        if key in counts:
            counts[key] += count
            return None
        if len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            return None
        victim = min(counts, key=lambda k: (counts[k], k))
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[key] = floor + count
        self._errors[key] = floor
        return victim

    def items(self) -> list[tuple[str, int, int]]:
        """(key, estimate, error) rows, by descending count then key."""
        return [
            (key, self._counts[key], self._errors[key])
            for key in sorted(self._counts, key=lambda k: (-self._counts[k], k))
        ]


#: Sketch capacity: hot-entity tables, reports, and ``demand.entity``
#: trace events are all at most this long.
TOP_K = 32

#: Per-site scorecard rows kept (oldest epochs drop first; the running
#: MAPE covers every epoch regardless).
SCORECARD_ROWS = 512


class _SiteDemand:
    """Per-site rollup: locality counters and scorecard."""

    __slots__ = (
        "local", "waited", "rejected", "starved", "released", "triggers",
        "tokens_left", "epochs", "error_sum", "abs_error_sum", "ape_sum",
        "ape_count", "scorecard",
    )

    def __init__(self) -> None:
        self.local = 0
        self.waited = 0
        self.rejected = 0
        self.starved = 0
        self.released = 0
        self.triggers = 0
        self.tokens_left: int | None = None
        self.epochs = 0
        self.error_sum = 0.0
        self.abs_error_sum = 0.0
        self.ape_sum = 0.0
        self.ape_count = 0
        self.scorecard: deque[tuple[int, float, float]] = deque(
            maxlen=SCORECARD_ROWS
        )

    @property
    def locality_ratio(self) -> float | None:
        served = self.local + self.waited
        return self.local / served if served else None

    @property
    def mape_pct(self) -> float | None:
        return 100.0 * self.ape_sum / self.ape_count if self.ape_count else None


class DemandTracker:
    """Streaming contention analytics (see module docs).

    Feed it with :class:`DemandTap` (event stream) or call
    :meth:`serve` / :meth:`epoch` / :meth:`trigger` directly (the scale
    host's local request path, where per-request events would swamp the
    trace but O(1) counter updates are free).
    """

    def __init__(self) -> None:
        self.sites: dict[str, _SiteDemand] = {}
        self.hot = SpaceSavingSketch(TOP_K)
        #: Aux data only for entities currently in the sketch: locality
        #: split and last-seen token residency per site — O(K) always.
        self.entity_aux: dict[str, dict[str, Any]] = {}
        self.requests = 0

    # -- feeds ---------------------------------------------------------------

    def _site(self, name: str) -> _SiteDemand:
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = _SiteDemand()
        return site

    def serve(
        self,
        site: str,
        entity: str | None,
        status: str,
        kind: str = "acquire",
        waited: bool = False,
        tokens_left: int | None = None,
    ) -> None:
        """One served request (any kind, any outcome)."""
        self.requests += 1
        rollup = self._site(site)
        if tokens_left is not None:
            rollup.tokens_left = tokens_left
        if kind == "release":
            rollup.released += 1
        elif kind == "acquire":
            if status == "granted":
                if waited:
                    rollup.waited += 1
                else:
                    rollup.local += 1
            elif status == "rejected":
                rollup.rejected += 1
                if waited:
                    rollup.starved += 1
        if entity:
            evicted = self.hot.update(entity)
            if evicted is not None:
                self.entity_aux.pop(evicted, None)
            aux = self.entity_aux.get(entity)
            if aux is None:
                aux = self.entity_aux[entity] = {
                    "local": 0, "waited": 0, "rejected": 0, "tokens": {},
                }
            if kind == "acquire":
                if status == "granted":
                    aux["waited" if waited else "local"] += 1
                elif status == "rejected":
                    aux["rejected"] += 1
            if tokens_left is not None:
                aux["tokens"][site] = tokens_left

    def epoch(
        self,
        site: str,
        observed: float,
        predicted: float | None,
        epoch: int | None = None,
    ) -> None:
        """Close one epoch: join forecast against observed arrivals."""
        rollup = self._site(site)
        rollup.epochs += 1
        if predicted is None:
            return
        index = epoch if epoch is not None else rollup.epochs
        error = float(predicted) - float(observed)
        rollup.error_sum += error
        rollup.abs_error_sum += abs(error)
        if observed > 0:
            rollup.ape_sum += abs(error) / float(observed)
            rollup.ape_count += 1
        rollup.scorecard.append((index, float(predicted), float(observed)))

    def trigger(self, site: str, reason: str = "reactive") -> None:
        self._site(site).triggers += 1

    # -- reads ---------------------------------------------------------------

    @property
    def locality_ratio(self) -> float | None:
        """Cluster-wide granted-acquire locality (None before traffic)."""
        local = sum(site.local for site in self.sites.values())
        waited = sum(site.waited for site in self.sites.values())
        served = local + waited
        return local / served if served else None

    def hot_rows(self) -> list[dict[str, Any]]:
        """Top-K entities with locality and residency aux, hottest first."""
        rows = []
        for entity, count, error in self.hot.items():
            aux = self.entity_aux.get(entity, {})
            rows.append(
                {
                    "entity": entity,
                    "requests": count,
                    "error": error,
                    "local": aux.get("local", 0),
                    "waited": aux.get("waited", 0),
                    "rejected": aux.get("rejected", 0),
                    "tokens": dict(sorted(aux.get("tokens", {}).items())),
                }
            )
        return rows

    def tap(self) -> "DemandTap":
        """A bus subscriber that feeds this tracker."""
        return DemandTap(self)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe point-in-time dump (bench ``demand`` section)."""
        sites: dict[str, Any] = {}
        for name in sorted(self.sites):
            site = self.sites[name]
            entry: dict[str, Any] = {
                "local": site.local,
                "waited": site.waited,
                "rejected": site.rejected,
                "starved": site.starved,
                "released": site.released,
                "triggers": site.triggers,
                "epochs": site.epochs,
            }
            if site.locality_ratio is not None:
                entry["locality_ratio"] = round(site.locality_ratio, 6)
            if site.tokens_left is not None:
                entry["tokens_left"] = site.tokens_left
            if site.ape_count:
                entry["mape_pct"] = round(site.mape_pct, 3)
                entry["mean_error"] = round(site.error_sum / site.ape_count, 3)
            sites[name] = entry
        out: dict[str, Any] = {
            "requests": self.requests,
            "sketch_capacity": self.hot.capacity,
            "sites": sites,
            "hot": self.hot_rows(),
        }
        if self.locality_ratio is not None:
            out["locality_ratio"] = round(self.locality_ratio, 6)
        return out

    def rollup(self, bus: Any) -> None:
        """Write ``demand.*`` summary events into the trace.

        Called by the bus *owner* at collect time (taps must never emit):
        one ``demand.site`` per site, one ``demand.entity`` per sketch row,
        and the retained ``demand.scorecard`` rows — all bounded, so the
        trace tail stays O(sites + K + SCORECARD_ROWS).
        """
        for name in sorted(self.sites):
            site = self.sites[name]
            fields: dict[str, Any] = {
                "local": site.local,
                "waited": site.waited,
                "rejected": site.rejected,
                "starved": site.starved,
                "triggers": site.triggers,
            }
            if site.locality_ratio is not None:
                fields["locality"] = round(site.locality_ratio, 6)
            if site.ape_count:
                fields["mape_pct"] = round(site.mape_pct, 3)
            bus.emit("demand.site", node=name, **fields)
        for row in self.hot_rows():
            bus.emit(
                "demand.entity",
                entity=row["entity"],
                requests=row["requests"],
                error=row["error"],
                local=row["local"],
                waited=row["waited"],
                rejected=row["rejected"],
            )
        for name in sorted(self.sites):
            site = self.sites[name]
            for index, predicted, observed in site.scorecard:
                error = predicted - observed
                fields = {
                    "epoch": index,
                    "predicted": round(predicted, 6),
                    "observed": round(observed, 6),
                    "error": round(error, 6),
                }
                if observed > 0:
                    fields["ape_pct"] = round(100.0 * abs(error) / observed, 3)
                bus.emit("demand.scorecard", node=name, **fields)


class DemandTap:
    """EventBus tap (or offline event-stream folder) feeding a tracker.

    Works identically subscribed to a live bus and replayed over
    :func:`~repro.obs.schema.iter_trace` — same events, same tracker
    state, which is what makes the offline ``--demand`` report agree
    with the live ``repro top`` frames.
    """

    #: The event types :meth:`__call__` reads (the bus routes only these).
    TYPES = frozenset({"site.serve", "epoch.close", "realloc.trigger"})

    def __init__(self, tracker: DemandTracker) -> None:
        self.tracker = tracker

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type")
        if etype == "site.serve":
            self.tracker.serve(
                site=str(event.get("node", "")),
                entity=event.get("entity"),
                status=str(event.get("status", "")),
                kind=str(event.get("kind", "acquire")),
                waited=bool(event.get("waited", False)),
                tokens_left=(
                    event["tokens_left"]
                    if isinstance(event.get("tokens_left"), int)
                    else None
                ),
            )
        elif etype == "epoch.close":
            predicted = event.get("predicted")
            self.tracker.epoch(
                site=str(event.get("node", "")),
                observed=float(event.get("demand", 0.0) or 0.0),
                predicted=(
                    float(predicted)
                    if isinstance(predicted, (int, float))
                    and not isinstance(predicted, bool)
                    else None
                ),
                epoch=(
                    event["epoch"] if isinstance(event.get("epoch"), int) else None
                ),
            )
        elif etype == "realloc.trigger":
            self.tracker.trigger(
                str(event.get("node", "")), str(event.get("reason", "reactive"))
            )


def track_demand(events: Iterable[Mapping[str, Any]]) -> DemandTracker:
    """Replay an event stream into a fresh tracker (offline path)."""
    tracker = DemandTracker()
    tap = DemandTap(tracker)
    for event in events:
        tap(event)
    return tracker


def _pct(value: float | None) -> str:
    return f"{100.0 * value:.1f}%" if value is not None else "-"


def format_demand_report(tracker: DemandTracker, source: str = "") -> str:
    """Deterministic plain-text demand report (``repro trace --demand``)."""
    from repro.harness.report import format_table

    sections: list[str] = []
    header = f"demand report — {tracker.requests} served requests"
    if source:
        header += f" from {source}"
    header += f"\ntoken locality (granted acquires served from local tokens): {_pct(tracker.locality_ratio)}"
    sections.append(header)

    hot = tracker.hot_rows()
    if hot:
        rows = [
            [
                rank + 1,
                row["entity"],
                row["requests"],
                row["error"],
                row["local"],
                row["waited"],
                row["rejected"],
                _pct(
                    row["local"] / (row["local"] + row["waited"])
                    if row["local"] + row["waited"]
                    else None
                ),
                " ".join(
                    f"{site}:{left}" for site, left in row["tokens"].items()
                ) or "-",
            ]
            for rank, row in enumerate(hot)
        ]
        sections.append(
            format_table(
                ["#", "entity", "req (±err)", "err", "local", "waited",
                 "rejected", "locality", "token residency"],
                rows,
                title=(
                    f"hottest entities (space-saving top-{tracker.hot.capacity}, "
                    f"counts over-estimate by at most err)"
                ),
            )
        )

    if tracker.sites:
        rows = []
        for name in sorted(tracker.sites):
            site = tracker.sites[name]
            rows.append(
                [
                    name,
                    site.local,
                    site.waited,
                    site.rejected,
                    site.starved,
                    _pct(site.locality_ratio),
                    site.triggers,
                    site.tokens_left if site.tokens_left is not None else "-",
                ]
            )
        sections.append(
            format_table(
                ["site", "local", "waited", "rejected", "starved",
                 "locality", "triggers", "tokens left"],
                rows,
                title="token locality by site (granted acquires)",
            )
        )

    scored = [
        name for name in sorted(tracker.sites) if tracker.sites[name].ape_count
    ]
    if scored:
        rows = []
        for name in scored:
            site = tracker.sites[name]
            rows.append(
                [
                    name,
                    site.epochs,
                    f"{site.error_sum / site.ape_count:+.1f}",
                    f"{site.mape_pct:.1f}%",
                ]
            )
        sections.append(
            format_table(
                ["site", "epochs", "mean signed error", "MAPE"],
                rows,
                title="prediction scorecard (forecast vs observed demand)",
            )
        )
        epoch_rows = []
        for name in scored:
            site = tracker.sites[name]
            for index, predicted, observed in list(site.scorecard)[-8:]:
                error = predicted - observed
                ape = (
                    f"{100.0 * abs(error) / observed:.1f}%" if observed > 0 else "-"
                )
                epoch_rows.append(
                    [name, index, f"{predicted:.1f}", f"{observed:.1f}",
                     f"{error:+.1f}", ape]
                )
        sections.append(
            format_table(
                ["site", "epoch", "predicted", "observed", "error", "APE"],
                epoch_rows,
                title="per-epoch scorecard (last 8 epochs per site)",
            )
        )

    return "\n\n".join(sections)
