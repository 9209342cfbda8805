"""The row-addressed scale request path.

The driver and ``ScaleSiteHost`` exchange table rows, workload draws go
to ``getrandbits`` directly, and entities are registered in bulk.  None
of that may move a simulated number: the pins below were recorded at
the parent commit (string-keyed path, ``Random.randrange`` draws) and
the stream test fails first if a CPython ever changes ``_randbelow``.
"""

import dataclasses
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

import repro
from repro.core.entity import TokenError
from repro.scale import harness as scale_harness
from repro.scale.entity_table import COLUMNS, EntityTable
from repro.scale.harness import (
    ScaleConfig,
    build_scale_deployment,
    randbelow,
    run_scale,
)
from repro.scale.shards import EntityDirectory, RouteTable


# -- config validation ------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate", -5.0),
        ("hot_weight", 1.5),
        ("hot_weight", -0.1),
        ("entities", 0),
        ("maximum", 0),
    ],
)
def test_config_rejects_out_of_range_fields(field, value):
    # These used to be accepted silently.
    with pytest.raises(ValueError) as error:
        ScaleConfig(**{field: value})
    assert field in str(error.value) and repr(value) in str(error.value)


def test_config_accepts_the_boundaries():
    ScaleConfig(rate=0.0, hot_weight=0.0)
    ScaleConfig(hot_weight=1.0)


# -- the stream is the same stream ------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_randbelow_consumes_the_stream_randrange_consumes(seed):
    for n in (1, 2, 3, 4, 5, 255, 256, 257, 10_000, 100_000, 2**20, 2**33):
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = randbelow(ours, n)
        for index in range(2_000):
            if index % 2:
                assert draw() == theirs.randrange(n)
            else:
                assert 1 + draw() == theirs.randint(1, n)
            assert ours.random() == theirs.random()
        # Consumption, not just values: the generators are in one state.
        assert ours.getstate() == theirs.getstate()


# -- same simulated run as the parent commit --------------------------------

HOT = ScaleConfig(entities=10_000, regions=3, maximum=30, duration=2.0,
                  rate=4000, batching=True, seed=11)
COUNTS = ("submitted", "committed", "rejected", "failed", "skipped",
          "queued_unresolved", "rounds_triggered", "rounds_applied",
          "protocol_instances", "wire_sent", "events_fired")
DRIVER = ("submitted", "immediate", "queued", "rejected_now", "failed",
          "skipped")
LEDGER = ("tokens_left", "acquired", "released", "committed", "rejected")
# ``events_fired`` alone moved since these pins were recorded: the
# batcher used to schedule one zero-delay flush per link and now
# schedules one per instant.  Every wire send is one per-link flush, so
# the count drops by (per-link flushes) - (flush instants): hot
# 14,730 - 8,482 = 6,248 (32,098 -> 25,850), budgeted 3,740 - 2,422 =
# 1,318 (8,651 -> 7,333).  Nothing else may move.
HOT_COUNTS = (23400, 20547, 2853, 0, 0, 0, 3184, 4318, 783, 14730, 25850)
HOT_DRIVERS = [(7800, 6020, 1780, 0, 0, 0), (7800, 6062, 1738, 0, 0, 0),
               (7800, 6001, 1799, 0, 0, 0)]
HOT_LEDGER = "3dff5d5463b9d22dbee8cee78639137cb3509dc42b9570e4c43de5a96be230c0"

#: name -> (config, module constants patched in, counts, drivers, ledger).
PARENT_RUNS = {
    "cold": (
        ScaleConfig(entities=100_000, regions=3, maximum=3000, hot_weight=0.0,
                    duration=2.0, rate=4000, seed=11),
        {},
        (23400, 23400, 0, 0, 0, 0, 0, 0, 0, 0, 120),
        [(7800, 7800, 0, 0, 0, 0)] * 3,
        "9f3f1a7839b76513684303d2be718e0ab46bb6742d7e3d19b14ba853d24efe2c",
    ),
    "hot": (HOT, {}, HOT_COUNTS, HOT_DRIVERS, HOT_LEDGER),
    "budgeted": (
        HOT,
        {"PER_ENTITY_BUDGET": 10, "PLACEMENT": "first"},
        (15684, 15456, 228, 0, 7716, 0, 7970, 15336, 16725, 3740, 7333),
        [(5491, 4474, 1017, 0, 0, 2309), (4998, 515, 4483, 0, 0, 2802),
         (5195, 958, 4237, 0, 0, 2605)],
        "0cc9bf8d8fe18f521371601acc1c9dea8b457315435f374172b9474fb346eb71",
    ),
    "demand": (
        dataclasses.replace(HOT, demand=True), {}, HOT_COUNTS, HOT_DRIVERS,
        HOT_LEDGER,
    ),
}
#: sha256 of ``json.dumps(result.demand, sort_keys=True)`` at the parent.
PARENT_DEMAND = "b13addef10ba9af761932d889bf3b0ac0c6b8fe40a96b99e6ba815c33b7d1341"


@pytest.mark.parametrize("name", PARENT_RUNS)
def test_same_simulated_run_as_the_parent(name, monkeypatch):
    config, constants, counts, drivers, ledger = PARENT_RUNS[name]
    for constant, value in constants.items():
        monkeypatch.setattr(scale_harness, constant, value)
    result, deployment = run_scale(config, keep_deployment=True)
    assert result.violations == []
    assert tuple(getattr(result, field) for field in COUNTS) == counts
    assert [
        tuple(getattr(driver, field) for field in DRIVER)
        for driver in deployment.drivers
    ] == drivers
    digest = hashlib.sha256()
    for host in deployment.hosts:
        for column in LEDGER:
            digest.update(getattr(host.table, column).tobytes())
    assert digest.hexdigest() == ledger
    if config.demand:
        snapshot = json.dumps(result.demand, sort_keys=True).encode()
        assert hashlib.sha256(snapshot).hexdigest() == PARENT_DEMAND
        # Labels are still entity ids, not rows.
        assert result.demand["requests"] == 23400
        assert result.demand["hot"][0]["entity"] == "e41"


# -- the route table and the row keys do what the strings did ---------------


@pytest.fixture
def small_config(monkeypatch):
    """A 50-entity config builder, with an 8-entity hot set."""
    monkeypatch.setattr(scale_harness, "HOT_ENTITIES", 8)

    def build(**overrides) -> ScaleConfig:
        defaults = dict(entities=50, regions=3, maximum=30, duration=2.0,
                        rate=100.0, seed=5)
        defaults.update(overrides)
        return ScaleConfig(**defaults)

    return build


def test_directory_change_mid_run_is_seen_from_the_next_tick(small_config):
    config = small_config()
    deployment = build_scale_deployment(config)
    kernel = deployment.kernel
    failed_before = []
    kernel.schedule(
        1.0 - scale_harness.TICK / 2,
        lambda: failed_before.append(sum(d.failed for d in deployment.drivers)),
    )
    kernel.schedule(1.0, deployment.directory.unregister, "e1")
    result = run_scale(config, deployment=deployment)
    assert failed_before == [0]
    assert result.failed > 0
    assert result.violations == []


def test_no_directory_call_per_request(small_config):
    config = small_config(rate=400.0)
    result = run_scale(config)
    assert result.submitted > 10 * config.entities
    # directory_lookups counts resolutions (one per entity per directory
    # change), not requests.
    assert result.directory_lookups == config.entities

    deployment = build_scale_deployment(config)
    deployment.directory.unregister("e1")
    deployment.directory.unregister("e2")
    run_scale(config, deployment=deployment)
    assert deployment.directory.lookups <= config.entities * (1 + 2)


def test_route_table_follows_the_directory_version():
    directory = EntityDirectory()
    ids = ["a", "b", "c"]
    for entity_id in ids:
        directory.register(entity_id, entity_id.upper())
    assert directory.version == 3
    routes = RouteTable(directory, ids)
    assert routes.records() == ["A", "B", "C"]
    assert routes.records() is routes.records()  # no re-resolution
    assert directory.lookups == 3
    directory.unregister("b")
    assert routes.records() == ["A", None, "C"]
    directory.register("b", "B2")
    assert routes.records() == ["A", "B2", "C"]
    assert directory.lookups == 9


def test_by_id_entries_delegate_to_the_row_path(small_config, monkeypatch):
    monkeypatch.setattr(scale_harness, "PLACEMENT", "first")
    deployment = build_scale_deployment(small_config())
    host = deployment.hosts[0]
    assert host.submit("ghost", acquire=True, amount=1) == "unknown"
    assert host.unknown_entity == 1
    assert host.submit("e3", acquire=True, amount=2) == "committed"
    assert host.submit_row(3, False, 1) == "committed"
    assert (host.table.acquired[3], host.table.released[3]) == (2, 1)
    adapter = host.protocol_for("e3")
    assert adapter is host.protocol_for("e3")
    assert (adapter.entity_id, adapter.row) == ("e3", 3)
    assert host.protocol_count() == 1
    # A dry host parks the acquire under the row and reports the round
    # by entity id.
    dry = deployment.hosts[1]
    assert dry.submit("e7", acquire=True, amount=1) == "queued"
    assert dry.queued_requests() == 1
    assert dry.active_rounds() == ["e7"]
    assert dry.queued_deficit(7) == 1


class TestExtend:
    def test_extend_continues_row_numbering(self):
        table = EntityTable()
        assert table.add("e0", 4) == 0
        assert table.extend(["e1", "e2"], [5, 6]) == range(1, 3)
        assert table.add("e3") == 3
        assert table.ids == ["e0", "e1", "e2", "e3"]
        assert list(table.tokens_left) == [4, 5, 6, 0]
        assert [table.get(entity_id) for entity_id in table.ids] == [0, 1, 2, 3]
        for column in COLUMNS:
            assert len(getattr(table, column)) == 4

    @pytest.mark.parametrize(
        "ids, tokens, error",
        [
            (["e9", "e0"], [1, 1], ValueError),  # already in the table
            (["e8", "e8"], [1, 1], ValueError),  # repeated within the batch
            (["e8", "e9"], [1, -1], TokenError),
            (["e8", "e9"], [1], ValueError),
        ],
    )
    def test_refused_batch_changes_nothing(self, ids, tokens, error):
        table = EntityTable()
        table.extend(["e0", "e1"], [1, 2])
        with pytest.raises(error):
            table.extend(ids, tokens)
        assert len(table) == 2 and table.ids == ["e0", "e1"]
        assert "e8" not in table and "e9" not in table
        for column in COLUMNS:
            assert len(getattr(table, column)) == 2


# -- structural pins: one path, not two --------------------------------------

SRC = Path(repro.__file__).parent


def test_the_string_keyed_path_is_gone():
    for path in SRC.rglob("*.py"):
        assert "def _one_request" not in path.read_text(), path
    site = (SRC / "scale" / "site.py").read_text()
    # Only the adapter's constructor still takes the pair: it needs the
    # id for the EntityScoped wrapper.
    assert len(re.findall(r"entity_id: str, row: int", site)) == 1
    harness = (SRC / "scale" / "harness.py").read_text()
    assert ".randrange(" not in harness and ".randint(" not in harness
    driver = harness[harness.index("class ScaleLoadDriver"):]
    driver = driver[: driver.index("\n@dataclass")]
    assert 'f"e{' not in driver
