"""Tests for the demand & contention observability plane.

Three layers: property-based guarantees of the space-saving sketch
(the bounds are the whole point of using it instead of a Counter),
unit tests of the tracker's locality/scorecard/starvation accounting,
and end-to-end checks that the tap, the trace events, the report, and
the promoted flash-sale example all agree.
"""

import importlib.util
import json
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs import (
    DemandTap,
    DemandTracker,
    RingSink,
    SpaceSavingSketch,
    format_demand_report,
    format_flow_report,
    track_demand,
    validate_events,
)
from repro.obs import demand as demand_module
from repro.obs.bus import EventBus
from repro.sim.kernel import Kernel
from repro.workload.trace import TraceConfig


# quick_config runs load from trace interval 0 and audit every 5 s.
pytestmark = pytest.mark.usefixtures("quick_window")

# A modest alphabet with repeated draws gives streams where some keys
# exceed the total/capacity guarantee threshold and others do not.
keys = st.integers(0, 40).map(lambda n: f"e{n}")
streams = st.lists(keys, min_size=1, max_size=400)


class TestSpaceSavingSketch:
    @settings(max_examples=100, deadline=None)
    @given(stream=streams, capacity=st.integers(1, 16))
    def test_estimate_bounds_and_guaranteed_recall(self, stream, capacity):
        sketch = SpaceSavingSketch(capacity)
        for key in stream:
            sketch.update(key)
        truth = Counter(stream)
        rows = {key: (estimate, error) for key, estimate, error in sketch.items()}
        assert len(sketch) == len(rows) <= capacity
        # Eviction hands the victim's count to the newcomer, so the
        # stored counts always sum to the stream length.
        assert sum(estimate for estimate, _ in rows.values()) == len(stream)
        # Upper bound on the true count of any absent key: the smallest
        # stored count once the sketch is full, 0 before.
        full = len(rows) == capacity
        floor = min(estimate for estimate, _ in rows.values()) if full else 0
        for key, (estimate, error) in rows.items():
            # The space-saving invariant: stored counts over-estimate
            # by at most the recorded error.
            assert truth[key] <= estimate <= truth[key] + error
        for key, count in truth.items():
            if key not in rows:
                # An absent key's true count is bounded by the sketch
                # minimum, so any heavy hitter is guaranteed present.
                assert count <= floor
                assert count <= len(stream) / capacity

    def test_zipf_stream_recalls_head(self):
        # Deterministic zipf-ish stream: key i appears ~N/i times,
        # arrivals interleaved (a sorted stream is the adversarial case
        # where tail keys inherit inflated floors).
        stream = [f"e{i:02d}" for i in range(1, 40) for _ in range(400 // i)]
        random.Random(0).shuffle(stream)
        sketch = SpaceSavingSketch(8)
        for key in stream:
            sketch.update(key)
        top = [key for key, _, _ in sketch.items()[:4]]
        # Recall of the head is the guarantee; exact ordering within it
        # is not (estimates carry error).
        assert set(top) == {"e01", "e02", "e03", "e04"}
        assert top[0] == "e01"

    def test_eviction_is_deterministic(self):
        sketch = SpaceSavingSketch(2)
        sketch.update("b")
        sketch.update("a")
        # Tie on count=1: lexicographically smaller key is evicted.
        assert sketch.update("c") == "a"
        # The newcomer inherits the victim's count as its error bound.
        assert sketch.items() == [("c", 2, 1), ("b", 1, 0)]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(0)


class TestDemandTracker:
    def test_locality_and_starvation_split(self):
        tracker = DemandTracker()
        tracker.serve("s1", "vm", "granted")
        tracker.serve("s1", "vm", "granted", waited=True)
        tracker.serve("s1", "vm", "rejected", waited=True)
        tracker.serve("s1", "vm", "rejected")
        tracker.serve("s1", "vm", "granted", kind="release")
        site = tracker.sites["s1"]
        assert (site.local, site.waited, site.rejected) == (1, 1, 2)
        assert site.starved == 1  # waited through a round, still rejected
        assert site.released == 1
        assert site.locality_ratio == pytest.approx(0.5)
        assert tracker.locality_ratio == pytest.approx(0.5)
        assert tracker.requests == 5

    def test_scorecard_joins_forecast_and_skips_zero_observed(self):
        tracker = DemandTracker()
        tracker.epoch("s1", observed=10.0, predicted=None)  # no forecast yet
        tracker.epoch("s1", observed=8.0, predicted=10.0, epoch=2)
        tracker.epoch("s1", observed=0.0, predicted=3.0, epoch=3)  # no APE
        site = tracker.sites["s1"]
        assert site.epochs == 3
        assert site.ape_count == 1
        assert site.mape_pct == pytest.approx(25.0)
        assert site.error_sum == pytest.approx(2.0 + 3.0)
        assert list(site.scorecard) == [(2, 10.0, 8.0), (3, 3.0, 0.0)]

    def test_entity_aux_stays_bounded_by_sketch(self, monkeypatch):
        monkeypatch.setattr(demand_module, "TOP_K", 2)
        tracker = DemandTracker()
        for entity in ("a", "b", "c", "d"):
            tracker.serve("s1", entity, "granted", tokens_left=5)
        assert len(tracker.entity_aux) <= 2
        assert set(tracker.entity_aux) == {row[0] for row in tracker.hot.items()}

    def test_snapshot_is_json_safe_and_sorted(self):
        tracker = DemandTracker()
        tracker.serve("s2", "vm", "granted", tokens_left=7)
        tracker.serve("s1", "vm", "granted", waited=True)
        tracker.epoch("s1", observed=4.0, predicted=6.0, epoch=1)
        snapshot = tracker.snapshot()
        json.dumps(snapshot)  # must round-trip into BENCH_*.json
        assert list(snapshot["sites"]) == ["s1", "s2"]
        assert snapshot["locality_ratio"] == pytest.approx(0.5)
        assert snapshot["sites"]["s1"]["mape_pct"] == pytest.approx(50.0)
        assert snapshot["sites"]["s2"]["tokens_left"] == 7
        assert snapshot["hot"][0]["entity"] == "vm"


SERVE_EVENTS = [
    {"type": "site.serve", "node": "s1", "entity": "vm", "status": "granted",
     "kind": "acquire", "waited": False, "tokens_left": 9, "ts": 1.0},
    {"type": "site.serve", "node": "s1", "entity": "vm", "status": "granted",
     "kind": "acquire", "waited": True, "tokens_left": 8, "ts": 2.0},
    {"type": "site.serve", "node": "s2", "entity": "vm", "status": "rejected",
     "kind": "acquire", "waited": True, "ts": 3.0},
    {"type": "epoch.close", "node": "s1", "demand": 4.0, "predicted": 6.0,
     "epoch": 1, "ts": 5.0},
    {"type": "realloc.trigger", "node": "s2", "reason": "reactive", "ts": 6.0},
]


class TestDemandTap:
    def test_replay_matches_live_tap(self):
        live = DemandTracker()
        tap = DemandTap(live)
        for event in SERVE_EVENTS:
            tap(event)
        replayed = track_demand(iter(SERVE_EVENTS))
        assert live.snapshot() == replayed.snapshot()
        assert live.sites["s2"].starved == 1
        assert live.sites["s2"].triggers == 1

    def test_bool_predicted_is_not_a_forecast(self):
        # epoch.close from sites without a forecast may carry
        # predicted=True/False flags from other schema users; a bool is
        # never a demand forecast.
        tracker = DemandTracker()
        DemandTap(tracker)(
            {"type": "epoch.close", "node": "s1", "demand": 4.0,
             "predicted": True, "ts": 1.0}
        )
        assert tracker.sites["s1"].ape_count == 0

    def test_emitted_rollup_events_validate(self):
        tracker = track_demand(iter(SERVE_EVENTS))
        kernel = Kernel(seed=1)
        sink = RingSink()
        bus = EventBus(kernel, sink)
        kernel.schedule(10.0, lambda: tracker.rollup(bus))
        kernel.run(until=11.0)
        events = sink.events()
        assert validate_events(events) == []
        by_type = Counter(event["type"] for event in events)
        assert by_type["demand.site"] == 2
        assert by_type["demand.entity"] == 1
        assert by_type["demand.scorecard"] == 1
        scorecard = next(e for e in events if e["type"] == "demand.scorecard")
        assert scorecard["ape_pct"] == pytest.approx(50.0)


def quick_config(**overrides):
    defaults = dict(
        duration=20.0,
        seed=5,
        trace=TraceConfig(days=2.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def traced_events(config):
    sink = RingSink()
    experiment = Experiment(config, trace_sink=sink)
    experiment.run()
    return sink.events()


class TestEndToEnd:
    def test_same_seed_report_is_byte_identical(self):
        reports = [
            format_demand_report(track_demand(iter(traced_events(quick_config()))))
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert "token locality" in reports[0]

    def test_traced_run_scores_every_site(self):
        tracker = track_demand(iter(traced_events(quick_config())))
        assert tracker.requests > 0
        assert tracker.locality_ratio is not None
        for name, site in tracker.sites.items():
            # Acceptance bar: a MAPE figure per site, not just totals.
            assert site.ape_count > 0, name
            assert site.mape_pct is not None, name

    def test_render_top_frame(self, monkeypatch, capsys):
        # A frame is a header line, then the --demand report of the
        # in-flight tracker, then (flow plane on) the --flow report.
        frames = []
        top_frame = cli.top_frame

        def recording_frame(mode, instruments, clock):
            frames.append((instruments, clock))
            return top_frame(mode, instruments, clock)

        monkeypatch.setattr(cli, "top_frame", recording_frame)
        modes = {
            "sim": ["--duration", "5"],
            "scale": ["--duration", "2", "--entities", "200", "--rate", "200"],
        }
        for mode, args in modes.items():
            for flow in (False, True):
                frames.clear()
                argv = ["top", "--once", "--mode", mode, *args]
                assert cli.main(argv + ["--flow"] if flow else argv) == 0
                [(instruments, clock)] = frames
                tracker = instruments.demand
                assert tracker.requests > 0 and tracker.sites, mode
                assert (instruments.flow is not None) is flow
                sections = [
                    f"repro top — {mode}  t={clock:.1f}s  "
                    f"requests={tracker.requests}",
                    format_demand_report(tracker),
                ]
                if flow:
                    sections.append(format_flow_report(instruments.flow.snapshot()))
                assert capsys.readouterr().out == "\n\n".join(sections) + "\n"


class TestFlashSaleExample:
    @pytest.fixture(scope="class")
    def flash_sale(self):
        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "inventory_flash_sale.py"
        )
        spec = importlib.util.spec_from_file_location("flash_sale_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, module.run_flash_sale()

    def test_sale_keeps_tokens_local(self, flash_sale):
        module, (cluster, metrics, demand, rows) = flash_sale
        # The paper's claim, measured: even with a 10x regional spike,
        # the vast majority of checkouts are served from local stock.
        assert demand.locality_ratio is not None
        assert demand.locality_ratio > 0.9
        assert demand.requests > 0
        assert set(demand.sites) == {
            f"site-{site.region.value}" for site in cluster.sites
        }
        # The spike region is where the contention shows up.
        sale = demand.sites[f"site-{module.SALE_REGION.value}"]
        assert sale.rejected > 0
        assert sale.triggers > 0
        report = module.format_table  # example imports stay usable
        assert report is not None

    def test_demand_report_renders(self, flash_sale):
        _, (_, _, demand, _) = flash_sale
        text = format_demand_report(demand, source="flash sale")
        assert "flash sale" in text
        assert "prediction scorecard" in text
