"""Flow & resource observability: wire bytes, queues, memory.

The paper's efficiency story is ultimately a *communication* story —
tokens move so data doesn't — and PR 6/7 measure time and demand but
never bytes, queues, or memory.  :class:`FlowTracker` is the missing
resource plane:

* **Wire flow accounting** — per-link (src-region -> dst-region) and
  per-message-type counters of frames, payload bytes, and encoded-frame
  bytes.  The live transports record the frame they already encoded;
  the sim network (which passes payloads by reference and never
  serializes) encodes *only behind the flow seam*, so a disabled run
  still pays one ``is None`` test and zero serialization.
* **Queue & backpressure watermarks** — named depth gauges with
  high-watermark tracking (:meth:`FlowTracker.queue` returns the gauge
  object so hot paths cache the ref in their ``instrument()``) for
  TCP per-peer out-queues, asyncio endpoint queues, scale-site
  mailboxes, and the sim kernel's event heap, plus overflow-drop
  counters fed by the bounded-queue backpressure path.
* **Coalescing efficiency** — the :class:`BatchingTransport` reports
  envelopes vs inner messages and envelope bytes vs the bytes the same
  payloads would have cost sent bare, so the batching win (and its
  header overhead) is a number, not a belief.
* **Memory telemetry** — :class:`ResourceProbe` samples RSS keyed to a
  protocol phase, and the scale harness folds the columnar
  ``EntityTable``'s exact byte accounting in at collect.

Surfaces follow the house pattern: bounded ``flow.*`` rollup events
written by the bus *owner* at collect (:meth:`FlowTracker.rollup` — taps
never emit), an offline ``repro trace FILE --flow`` report
(:func:`track_flow` + :func:`format_flow_report`), ``repro_flow_*``
families on live ``/metrics`` (:meth:`FlowTracker.families`), and a ``flow``
section in bench artifacts (:meth:`FlowTracker.snapshot`) whose
:meth:`FlowTracker.headline` subtree the regression gate pins — the
byte budget the planned binary codec must beat.

Determinism: byte accounting draws no randomness and schedules
nothing, so a fixed-seed sim run is bit-identical with flow on or off,
and two same-seed traces produce byte-identical ``--flow`` reports.
Memory samples are the one machine-dependent view, so they are *never*
emitted into the trace or rendered by the offline report — they live
only in snapshots (bench artifacts, informational).

Unlike :class:`~repro.obs.demand.DemandTap`, :class:`FlowTap` is
offline-only: live runs feed the tracker directly at the transport
seams (bytes are known there for free), so subscribing the tap to a
live bus would double-count.  The offline tap folds the optional
``bytes``/``frame_bytes`` fields flow-enabled runs stamp on
``msg.send`` and then lets the end-of-trace ``flow.*`` rollups
overwrite with the authoritative totals — either path alone
reconstructs the same state.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

# NOTE: repro.harness.report is imported lazily inside the formatters
# (same cycle-avoidance as repro.obs.summary / repro.obs.demand).

__all__ = [
    "FlowTap",
    "FlowTracker",
    "ResourceProbe",
    "WIRE_HEADER_BYTES",
    "entity_table_bytes",
    "format_flow_report",
    "format_wire_table",
    "track_flow",
]

#: Length-prefix bytes the TCP framing adds per message.  Mirrors
#: ``repro.net.codec.FRAME_HEADER.size`` (pinned by tests) without
#: importing the codec from the observation layer.
WIRE_HEADER_BYTES = 4


class _WireFlow:
    """Frames / payload bytes / framed bytes for one link or type."""

    __slots__ = ("frames", "payload_bytes", "frame_bytes")

    def __init__(self) -> None:
        self.frames = 0
        self.payload_bytes = 0
        self.frame_bytes = 0

    def record(self, payload_bytes: int, frame_bytes: int) -> None:
        self.frames += 1
        self.payload_bytes += payload_bytes
        self.frame_bytes += frame_bytes


class _QueueFlow:
    """Depth gauge with high-watermark and overflow accounting.

    Hot paths cache this object (``tracker.queue(name)`` once, method
    calls after) so recording is one attribute test plus a call — the
    ``Kernel.instrument`` cached-ref pattern.
    """

    __slots__ = ("depth", "high", "enqueued", "dequeued", "dropped")

    def __init__(self) -> None:
        self.depth = 0
        self.high = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0

    def observe(self, depth: int) -> None:
        self.depth = depth
        if depth > self.high:
            self.high = depth

    def enqueue(self, depth: int) -> None:
        self.enqueued += 1
        self.depth = depth
        if depth > self.high:
            self.high = depth

    def dequeue(self, depth: int) -> None:
        self.dequeued += 1
        self.depth = depth

    def drain(self, count: int, depth: int) -> None:
        """Batch dequeue: ``count`` items left, ``depth`` remain."""
        self.dequeued += count
        self.depth = depth

    def drop(self) -> None:
        self.dropped += 1


class _BatchFlow:
    """Coalescing efficiency: envelopes vs the payloads they carry."""

    __slots__ = (
        "envelopes", "inner", "passthrough", "envelope_bytes", "inner_bytes",
    )

    def __init__(self) -> None:
        self.envelopes = 0
        self.inner = 0
        self.passthrough = 0
        self.envelope_bytes = 0
        self.inner_bytes = 0

    @property
    def coalescing_ratio(self) -> float | None:
        """Inner messages per envelope (higher = better coalescing)."""
        return self.inner / self.envelopes if self.envelopes else None

    @property
    def overhead_ratio(self) -> float | None:
        """Envelope bytes / bare bytes for the same payloads (<1 saves)."""
        if not self.inner_bytes:
            return None
        return self.envelope_bytes / self.inner_bytes


#: The per-cell ``repro_flow_*`` families: name, kind, help, label names,
#: the tracker dict holding the cells, the cell attribute sampled.
_FAMILIES = (
    ("repro_flow_link_bytes_total", "counter",
     "Framed wire bytes per region link", ("src", "dst"), "links", "frame_bytes"),
    ("repro_flow_link_frames_total", "counter",
     "Frames per region link", ("src", "dst"), "links", "frames"),
    ("repro_flow_type_bytes_total", "counter",
     "Framed wire bytes per message type", ("msg_type",), "types", "frame_bytes"),
    ("repro_flow_type_frames_total", "counter",
     "Frames per message type", ("msg_type",), "types", "frames"),
    ("repro_flow_queue_depth", "gauge",
     "Last observed queue depth", ("queue",), "queues", "depth"),
    ("repro_flow_queue_high_watermark", "gauge",
     "Maximum observed queue depth", ("queue",), "queues", "high"),
    ("repro_flow_queue_dropped_total", "counter",
     "Messages dropped at a full queue (backpressure)", ("queue",),
     "queues", "dropped"),
)


class FlowTracker:
    """Streaming wire/queue/memory accounting (see module docs).

    Fed directly by the substrate seams (sim network, both live
    transports, the batching layer, the kernel heap, scale mailboxes)
    — every seam is one ``is None`` test when flow is off.
    """

    def __init__(self) -> None:
        self.links: dict[tuple[str, str], _WireFlow] = {}
        self.types: dict[str, _WireFlow] = {}
        self.queues: dict[str, _QueueFlow] = {}
        self.batch = _BatchFlow()
        #: ResourceProbe samples (machine-dependent; snapshot-only).
        self.memory: list[dict[str, Any]] = []
        #: Exact columnar-table accounting, folded in by the scale
        #: harness at collect when flow is enabled.
        self.table_bytes: dict[str, Any] | None = None

    # -- feeds ---------------------------------------------------------------

    def record_send(
        self,
        msg_type: str,
        payload_bytes: int,
        frame_bytes: int,
        src_region: str = "",
        dst_region: str = "",
    ) -> None:
        """One encoded frame leaving a transport."""
        link = self.links.get((src_region, dst_region))
        if link is None:
            link = self.links[(src_region, dst_region)] = _WireFlow()
        link.record(payload_bytes, frame_bytes)
        wire = self.types.get(msg_type)
        if wire is None:
            wire = self.types[msg_type] = _WireFlow()
        wire.record(payload_bytes, frame_bytes)

    def link(self, src_region: str, dst_region: str) -> _WireFlow:
        link = self.links.get((src_region, dst_region))
        if link is None:
            link = self.links[(src_region, dst_region)] = _WireFlow()
        return link

    def type(self, msg_type: str) -> _WireFlow:
        wire = self.types.get(msg_type)
        if wire is None:
            wire = self.types[msg_type] = _WireFlow()
        return wire

    def queue(self, name: str) -> _QueueFlow:
        """Get-or-create the named gauge — cache the return on hot paths."""
        gauge = self.queues.get(name)
        if gauge is None:
            gauge = self.queues[name] = _QueueFlow()
        return gauge

    def record_batch(
        self, inner: int, envelope_bytes: int = 0, inner_bytes: int = 0
    ) -> None:
        """One envelope carrying ``inner`` coalesced payloads."""
        self.batch.envelopes += 1
        self.batch.inner += inner
        self.batch.envelope_bytes += envelope_bytes
        self.batch.inner_bytes += inner_bytes

    def record_passthrough(self) -> None:
        """A singleton the batcher sent bare instead of enveloping."""
        self.batch.passthrough += 1

    def record_memory(
        self,
        phase: str,
        rss_bytes: int,
        peak_rss_bytes: int | None = None,
        ts: float = 0.0,
    ) -> None:
        sample: dict[str, Any] = {
            "phase": phase, "ts": round(float(ts), 6), "rss_bytes": rss_bytes,
        }
        if peak_rss_bytes is not None:
            sample["peak_rss_bytes"] = peak_rss_bytes
        self.memory.append(sample)

    # -- reads ---------------------------------------------------------------

    @property
    def total_frames(self) -> int:
        return sum(wire.frames for wire in self.types.values())

    @property
    def total_frame_bytes(self) -> int:
        return sum(wire.frame_bytes for wire in self.types.values())

    @property
    def total_payload_bytes(self) -> int:
        return sum(wire.payload_bytes for wire in self.types.values())

    def type_rows(self) -> list[dict[str, Any]]:
        """Per-message-type accounting, heaviest first (then by name)."""
        rows = []
        for name in sorted(
            self.types, key=lambda k: (-self.types[k].frame_bytes, k)
        ):
            wire = self.types[name]
            rows.append(
                {
                    "msg_type": name,
                    "frames": wire.frames,
                    "payload_bytes": wire.payload_bytes,
                    "frame_bytes": wire.frame_bytes,
                    "mean_frame_bytes": (
                        round(wire.frame_bytes / wire.frames, 1)
                        if wire.frames
                        else 0.0
                    ),
                }
            )
        return rows

    def link_rows(self) -> list[dict[str, Any]]:
        """Per-link accounting, heaviest first (then by region pair)."""
        rows = []
        for src, dst in sorted(
            self.links, key=lambda k: (-self.links[k].frame_bytes, k)
        ):
            wire = self.links[(src, dst)]
            rows.append(
                {
                    "src_region": src,
                    "dst_region": dst,
                    "frames": wire.frames,
                    "payload_bytes": wire.payload_bytes,
                    "frame_bytes": wire.frame_bytes,
                }
            )
        return rows

    def queue_rows(self) -> list[dict[str, Any]]:
        rows = []
        for name in sorted(self.queues):
            gauge = self.queues[name]
            rows.append(
                {
                    "queue": name,
                    "high": gauge.high,
                    "depth": gauge.depth,
                    "enqueued": gauge.enqueued,
                    "dequeued": gauge.dequeued,
                    "dropped": gauge.dropped,
                }
            )
        return rows

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe point-in-time dump (bench ``flow`` section)."""
        out: dict[str, Any] = {
            "frames": self.total_frames,
            "payload_bytes": self.total_payload_bytes,
            "frame_bytes": self.total_frame_bytes,
            "types": self.type_rows(),
            "links": self.link_rows(),
            "queues": self.queue_rows(),
        }
        batch = self.batch
        if batch.envelopes or batch.passthrough:
            entry: dict[str, Any] = {
                "envelopes": batch.envelopes,
                "inner": batch.inner,
                "passthrough": batch.passthrough,
                "envelope_bytes": batch.envelope_bytes,
                "inner_bytes": batch.inner_bytes,
            }
            if batch.coalescing_ratio is not None:
                entry["coalescing_ratio"] = round(batch.coalescing_ratio, 3)
            if batch.overhead_ratio is not None:
                entry["overhead_ratio"] = round(batch.overhead_ratio, 4)
            out["batch"] = entry
        if self.memory:
            out["memory"] = list(self.memory)
        if self.table_bytes is not None:
            out["entity_table"] = self.table_bytes
        return out

    def headline(self) -> dict[str, Any]:
        """The gate-checked subtree: the wire byte budget.

        Mean framed bytes per message type pin the codec (a binary
        codec swap moves every mean), the coalescing ratio pins the
        batcher, and the total pins overall chattiness.  All are
        deterministic on a fixed seed.
        """
        out: dict[str, Any] = {
            "wire_frames": self.total_frames,
            "wire_bytes": self.total_frame_bytes,
            "bytes_per_frame": {
                row["msg_type"]: row["mean_frame_bytes"]
                for row in self.type_rows()
            },
        }
        if self.batch.coalescing_ratio is not None:
            out["coalescing_ratio"] = round(self.batch.coalescing_ratio, 3)
        if self.batch.overhead_ratio is not None:
            out["overhead_ratio"] = round(self.batch.overhead_ratio, 4)
        return out

    def rollup(self, bus: Any) -> None:
        """Write ``flow.*`` rollup events into the trace.

        Called by the bus *owner* at collect time (taps must never emit):
        one ``flow.link`` per region pair, one ``flow.type`` per message
        type, one ``flow.queue`` per named queue, one ``flow.batch`` — all
        bounded by the run's own cardinality.  Memory samples are omitted
        on purpose: they are machine-dependent and would break same-seed
        trace identity (see module docs).
        """
        for (src, dst) in sorted(self.links):
            wire = self.links[(src, dst)]
            bus.emit(
                "flow.link",
                src_region=src,
                dst_region=dst,
                frames=wire.frames,
                bytes=wire.payload_bytes,
                frame_bytes=wire.frame_bytes,
            )
        for name in sorted(self.types):
            wire = self.types[name]
            bus.emit(
                "flow.type",
                msg_type=name,
                frames=wire.frames,
                bytes=wire.payload_bytes,
                frame_bytes=wire.frame_bytes,
            )
        for name in sorted(self.queues):
            gauge = self.queues[name]
            bus.emit(
                "flow.queue",
                queue=name,
                high=gauge.high,
                depth=gauge.depth,
                enqueued=gauge.enqueued,
                dequeued=gauge.dequeued,
                dropped=gauge.dropped,
            )
        batch = self.batch
        if batch.envelopes or batch.passthrough:
            bus.emit(
                "flow.batch",
                envelopes=batch.envelopes,
                inner=batch.inner,
                passthrough=batch.passthrough,
                envelope_bytes=batch.envelope_bytes,
                inner_bytes=batch.inner_bytes,
            )

    def families(self):
        """Flow state as ``repro_flow_*`` metric families, for
        :func:`repro.obs.registry.prometheus` (live ``/metrics``).  A
        family appears with its first cell, the batch counters with the
        first envelope — a run without a batcher has no such family."""
        for name, kind, help_text, labelnames, source, field in _FAMILIES:
            cells = {
                key if isinstance(key, tuple) else (key,): getattr(cell, field)
                for key, cell in getattr(self, source).items()
            }
            if cells:
                yield name, kind, help_text, labelnames, cells
        batch = self.batch
        if batch.envelopes or batch.passthrough:
            for noun, help_text, value in (
                ("envelopes", "Batch envelopes sent", batch.envelopes),
                ("inner", "Payloads coalesced into envelopes", batch.inner),
                ("passthrough", "Singleton payloads sent bare", batch.passthrough),
            ):
                yield (
                    f"repro_flow_batch_{noun}_total", "counter", help_text,
                    (), {(): value},
                )


class ResourceProbe:
    """Process memory sampler keyed to protocol phase.

    RSS comes from ``/proc/self/statm`` when available (Linux), with
    ``resource.getrusage`` peak RSS alongside — both one cheap read, so
    flow-enabled runs do not distort the wall-clock numbers the
    calibrated gate watches.
    Samples land in the tracker's snapshot only — never in the trace —
    because memory is machine-dependent (see module docs).
    """

    def __init__(self, tracker: FlowTracker | None = None) -> None:
        self.tracker = tracker

    @staticmethod
    def rss_bytes() -> int:
        """Current resident set size (0 where /proc is unavailable)."""
        try:
            with open("/proc/self/statm", "r", encoding="ascii") as fh:
                pages = int(fh.read().split()[1])
            import os

            return pages * os.sysconf("SC_PAGE_SIZE")
        except (OSError, ValueError, IndexError):
            return 0

    @staticmethod
    def peak_rss_bytes() -> int:
        """Peak RSS via getrusage (ru_maxrss is KiB on Linux)."""
        try:
            import resource
            import sys

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return peak if sys.platform == "darwin" else peak * 1024
        except (ImportError, OSError):
            return 0

    def sample(self, phase: str, ts: float = 0.0) -> dict[str, Any]:
        """One sample; folded into the tracker when one is attached."""
        rss = self.rss_bytes()
        peak = self.peak_rss_bytes()
        if self.tracker is not None:
            self.tracker.record_memory(phase, rss, peak_rss_bytes=peak, ts=ts)
        return {"phase": phase, "rss_bytes": rss, "peak_rss_bytes": peak}


def entity_table_bytes(table: Any) -> dict[str, Any]:
    """Exact byte accounting for a columnar ``EntityTable``.

    Column data is exact (``len * itemsize`` per ``array('q')``); the
    id list and index dict are reported via ``sys.getsizeof`` so the
    fixed per-row bookkeeping overhead is visible next to the 48 bytes
    of column data each row actually needs.
    """
    import sys

    from repro.scale.entity_table import COLUMNS

    columns = {}
    for name in COLUMNS:
        column = getattr(table, name)
        columns[name] = len(column) * column.itemsize
    ids = table.ids
    index = table._index
    return {
        "rows": len(ids),
        "columns": columns,
        "columns_bytes": sum(columns.values()),
        "ids_bytes": sys.getsizeof(ids) + sum(sys.getsizeof(i) for i in ids),
        "index_bytes": sys.getsizeof(index),
    }


class FlowTap:
    """Offline event-stream folder reconstructing a tracker from a trace.

    Folds the optional ``bytes``/``frame_bytes`` stamped on ``msg.send``
    when flow was enabled, per-drop ``flow.backpressure`` events, and
    the end-of-run ``flow.*`` rollups, which *assign* (not add) the
    authoritative totals — so a complete trace replays to exactly the
    live tracker's state and the ``--flow`` report is byte-identical.
    Do not subscribe this to a live bus (see module docs).
    """

    def __init__(self, tracker: FlowTracker) -> None:
        self.tracker = tracker

    @staticmethod
    def _int(value: Any, default: int = 0) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            return default
        return value

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type")
        if etype == "msg.send":
            payload = event.get("bytes")
            if isinstance(payload, bool) or not isinstance(payload, int):
                return
            frame = self._int(
                event.get("frame_bytes"), payload + WIRE_HEADER_BYTES
            )
            self.tracker.record_send(
                str(event.get("msg_type", "")),
                payload,
                frame,
                str(event.get("src_region", "") or ""),
                str(event.get("dst_region", "") or ""),
            )
        elif etype == "flow.link":
            wire = self.tracker.link(
                str(event.get("src_region", "")), str(event.get("dst_region", ""))
            )
            wire.frames = self._int(event.get("frames"))
            wire.payload_bytes = self._int(event.get("bytes"))
            wire.frame_bytes = self._int(
                event.get("frame_bytes"), wire.payload_bytes
            )
        elif etype == "flow.type":
            wire = self.tracker.type(str(event.get("msg_type", "")))
            wire.frames = self._int(event.get("frames"))
            wire.payload_bytes = self._int(event.get("bytes"))
            wire.frame_bytes = self._int(
                event.get("frame_bytes"), wire.payload_bytes
            )
        elif etype == "flow.queue":
            gauge = self.tracker.queue(str(event.get("queue", "")))
            gauge.high = self._int(event.get("high"))
            gauge.depth = self._int(event.get("depth"))
            gauge.enqueued = self._int(event.get("enqueued"))
            gauge.dequeued = self._int(event.get("dequeued"))
            gauge.dropped = self._int(event.get("dropped"))
        elif etype == "flow.backpressure":
            gauge = self.tracker.queue(str(event.get("queue", "")))
            gauge.drop()
            gauge.observe(self._int(event.get("depth"), gauge.depth))
        elif etype == "flow.batch":
            batch = self.tracker.batch
            batch.envelopes = self._int(event.get("envelopes"))
            batch.inner = self._int(event.get("inner"))
            batch.passthrough = self._int(event.get("passthrough"))
            batch.envelope_bytes = self._int(event.get("envelope_bytes"))
            batch.inner_bytes = self._int(event.get("inner_bytes"))


def track_flow(events: Iterable[Mapping[str, Any]]) -> FlowTracker:
    """Replay an event stream into a fresh tracker (offline path)."""
    tracker = FlowTracker()
    tap = FlowTap(tracker)
    for event in events:
        tap(event)
    return tracker


def _ratio(numerator: int, denominator: int, digits: int = 2) -> str:
    return f"{numerator / denominator:.{digits}f}" if denominator else "-"


def format_wire_table(snapshot: Mapping[str, Any]) -> str:
    """Wire bytes per message type — a section of the flow report and,
    for a flow-enabled trace, of the trace summary."""
    from repro.harness.report import format_table

    total = snapshot["frame_bytes"] or 1
    rows = [
        [
            row["msg_type"],
            row["frames"],
            f"{row['payload_bytes']:,}",
            f"{row['frame_bytes']:,}",
            f"{row['mean_frame_bytes']:.1f}",
            f"{100.0 * row['frame_bytes'] / total:.1f}%",
        ]
        for row in snapshot["types"]
    ]
    return format_table(
        ["msg type", "frames", "payload B", "frame B", "B/frame", "share"],
        rows,
        title="wire bytes by message type (framed = payload + 4B header)",
    )


def format_flow_report(snapshot: Mapping[str, Any], source: str = "") -> str:
    """Deterministic plain-text flow report from a
    :meth:`FlowTracker.snapshot` — the live tracker's (``run / live
    --flow``), a replayed trace's (``repro trace --flow``) or a bench
    artifact's ``flow`` section.

    Memory samples are deliberately excluded (machine-dependent); they
    are visible in bench artifacts' ``flow`` sections instead.
    """
    from repro.harness.report import format_table

    sections: list[str] = []
    header = (
        f"flow report — {snapshot['frames']} frames, "
        f"{snapshot['frame_bytes']:,} wire bytes "
        f"({snapshot['payload_bytes']:,} payload)"
    )
    if source:
        header += f" from {source}"
    batch = snapshot.get("batch")
    if batch and batch["envelopes"]:
        header += (
            f"\ncoalescing: {batch['inner']} payloads in {batch['envelopes']} "
            f"envelopes (x{_ratio(batch['inner'], batch['envelopes'])}), "
            f"{batch['passthrough']} passthrough, envelope overhead "
            f"{_ratio(batch['envelope_bytes'], batch['inner_bytes'], 4)}"
        )
    sections.append(header)

    if snapshot["types"]:
        sections.append(format_wire_table(snapshot))

    if snapshot["links"]:
        total = snapshot["frame_bytes"] or 1
        rows = [
            [
                f"{row['src_region'] or '?'} -> {row['dst_region'] or '?'}",
                row["frames"],
                f"{row['frame_bytes']:,}",
                f"{100.0 * row['frame_bytes'] / total:.1f}%",
            ]
            for row in snapshot["links"]
        ]
        sections.append(
            format_table(
                ["link", "frames", "frame B", "share"],
                rows,
                title="wire bytes by link (src region -> dst region)",
            )
        )

    if snapshot["queues"]:
        rows = [
            [
                row["queue"],
                row["high"],
                row["depth"],
                row["enqueued"],
                row["dequeued"],
                row["dropped"],
            ]
            for row in snapshot["queues"]
        ]
        sections.append(
            format_table(
                ["queue", "high", "last depth", "enq", "deq", "dropped"],
                rows,
                title="queue watermarks (high = max observed depth)",
            )
        )

    return "\n\n".join(sections)
