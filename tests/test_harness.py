"""Tests for the experiment harness: configs, builds, fault resolution."""

import pytest

from repro.core.cluster import split_initial_allocation
from repro.harness.experiment import (
    ExperimentConfig,
    build_experiment,
    run_experiment,
)
from repro.harness.report import (
    format_series,
    format_table,
    ratio,
    write_bench_json,
)
from repro.faults.schedule import RegionFault, resolve_faults
from repro.harness.scenarios import partition_3_2, progressive_region_crashes
from repro.net.regions import PAPER_REGIONS, Region
from repro.workload.trace import TraceConfig


# quick_config runs load from trace interval 0 and audit every 5 s.
pytestmark = pytest.mark.usefixtures("quick_window")


def quick_config(**overrides):
    defaults = dict(
        duration=20.0,
        seed=2,
        trace=TraceConfig(days=2.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(system="spanner")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(predictor="crystal-ball")

    def test_unknown_reallocator_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(reallocator="coin-flip")


class TestBuilds:
    @pytest.mark.parametrize(
        "system", ["samya-majority", "samya-star", "multipaxsys", "crdb", "demarcation"]
    )
    def test_every_system_builds_and_runs(self, system):
        result = run_experiment(quick_config(system=system))
        assert result.system == system
        assert result.committed >= 0
        assert result.duration == 20.0

    def test_samya_run_commits_and_conserves(self):
        result = run_experiment(quick_config(system="samya-majority"))
        assert result.committed > 0
        assert result.invariant_checks > 0
        assert result.tokens_left_total is not None

    def test_predictors_wire_into_sites(self):
        experiment = build_experiment(quick_config(predictor="seasonal"))
        assert all(site.predictor is not None for site in experiment.cluster.sites)
        experiment = build_experiment(quick_config(predictor="none"))
        assert all(site.predictor is None for site in experiment.cluster.sites)

    def test_oracle_predictor_reads_future(self):
        experiment = build_experiment(quick_config(predictor="oracle"))
        site = experiment.cluster.sites[0]
        assert site.predictor.forecast() >= 0.0

    def test_sites_per_region(self):
        experiment = build_experiment(quick_config(sites_per_region=2))
        assert len(experiment.cluster.sites) == 10

    def test_initial_allocation_sums_to_maximum(self):
        experiment = build_experiment(quick_config(maximum=5003))
        assert experiment.cluster.total_tokens_left() == 5003

    def test_read_ratio_produces_reads(self):
        result = run_experiment(quick_config(read_ratio=0.5))
        assert result.committed_reads > 0

    def test_paper_literal_reactive_flag(self):
        experiment = build_experiment(
            quick_config(predictor="none", paper_literal_reactive=True)
        )
        config = experiment.cluster.sites[0].config
        assert config.paper_literal_reactive


class TestAllocationSplit:
    def test_even_split(self):
        assert split_initial_allocation(100, 4) == [25, 25, 25, 25]

    def test_remainder_to_first_sites(self):
        assert split_initial_allocation(10, 3) == [4, 3, 3]

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError):
            split_initial_allocation(10, 0)


class TestScenarios:
    def test_progressive_crashes_leave_one_region(self):
        faults = progressive_region_crashes(list(PAPER_REGIONS), 100.0, 50.0)
        assert len(faults) == 4
        crashed = {fault.regions[0] for fault in faults}
        assert PAPER_REGIONS[-1] not in crashed

    def test_partition_3_2_groups(self):
        faults = partition_3_2(list(PAPER_REGIONS), at=10.0, heal_at=20.0)
        assert faults[0].groups[0] == tuple(PAPER_REGIONS[:3])
        assert faults[1].action == "heal"

    def test_partition_needs_five_regions(self):
        with pytest.raises(ValueError):
            partition_3_2(list(PAPER_REGIONS[:3]), at=10.0)

    def test_resolution_maps_regions_to_names(self):
        faults = [RegionFault(1.0, "crash", (Region.US_WEST1,))]
        schedule = resolve_faults(
            faults,
            servers_by_region={Region.US_WEST1: ["site-x"]},
            clients_by_region={Region.US_WEST1: ["client-x"]},
            extra_by_region={Region.US_WEST1: ["am-x"]},
        )
        event = schedule.events[0]
        assert set(event.targets) == {"site-x", "client-x", "am-x"}

    def test_resolution_can_exclude_clients(self):
        faults = [RegionFault(1.0, "crash", (Region.US_WEST1,), include_clients=False)]
        schedule = resolve_faults(
            faults,
            servers_by_region={Region.US_WEST1: ["site-x"]},
            clients_by_region={Region.US_WEST1: ["client-x"]},
        )
        assert schedule.events[0].targets == ("site-x",)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            resolve_faults([RegionFault(1.0, "melt", ())], {}, {})

    def test_faulted_run_executes(self):
        faults = tuple(
            progressive_region_crashes(list(PAPER_REGIONS), first_at=5.0, every=5.0)
        )
        result = run_experiment(quick_config(faults=faults, duration=30.0))
        assert result.committed > 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["long-name", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in lines[-1]

    def test_format_series(self):
        text = format_series([(0.0, 1.0), (1.0, 2.0)], title="S")
        assert "#" in text

    def test_format_series_empty(self):
        assert "(no data)" in format_series([], title="S")

    def test_ratio_guard(self):
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(4.0, 2.0) == 2.0

    def test_format_series_always_shows_last_point(self):
        # 10 points at max_points=4 -> stride 2 samples indices 0..8;
        # the final point (t=9) must still be appended.
        points = [(float(t), 1.0) for t in range(9)] + [(9.0, 42.0)]
        text = format_series(points, max_points=4)
        assert "42.0" in text
        assert text.splitlines()[-1].strip().startswith("9.0")

    def test_format_series_no_duplicate_last_point(self):
        points = [(0.0, 1.0), (1.0, 2.0)]
        text = format_series(points, max_points=40)
        assert text.count("2.0") == 1

    def test_write_bench_json(self, tmp_path):
        config = quick_config()
        path = write_bench_json(
            "demo", {"committed": 7}, config=config, seed=2, out_dir=tmp_path
        )
        assert path == tmp_path / "BENCH_demo.json"
        import json

        payload = json.loads(path.read_text())
        assert payload["bench"] == "demo"
        assert payload["headline"] == {"committed": 7}
        assert payload["seed"] == 2
        assert payload["config"]["duration"] == 20.0
