"""The entity directory: write-once registration, counted lookup, versions."""

import pytest

from repro.core.directory import EntityDirectory as CoreEntityDirectory
from repro.scale.shards import EntityDirectory


class TestShardedDirectory:
    """The one dict-backed directory behind every deployment."""

    def test_register_and_lookup(self):
        directory = EntityDirectory()
        directory.register("VM", ("a", "b"))
        assert directory.lookup("VM") == ("a", "b")
        assert "VM" in directory
        assert len(directory) == 1

    def test_duplicate_registration_rejected(self):
        directory = EntityDirectory()
        directory.register("VM", 1)
        with pytest.raises(ValueError):
            directory.register("VM", 2)

    def test_lookup_miss_returns_none_and_counts(self):
        directory = EntityDirectory()
        assert directory.lookup("ghost") is None
        directory.register("VM", 1)
        directory.lookup("VM")
        assert directory.lookups == 2

    def test_unregister_is_idempotent(self):
        directory = EntityDirectory()
        directory.register("VM", 1)
        directory.unregister("VM")
        assert directory.version == 2
        directory.unregister("VM")
        assert directory.version == 2  # bumped only when effective
        assert "VM" not in directory
        assert len(directory) == 0
        # The id can be reused after unregistration.
        directory.register("VM", 2)
        assert directory.lookup("VM") == 2

    def test_entities_sorted_and_items_complete(self):
        directory = EntityDirectory()
        ids = [f"e{index}" for index in range(50)]
        for entity_id in reversed(ids):
            directory.register(entity_id, entity_id.upper())
        assert directory.entities() == sorted(ids)
        assert {i: directory.lookup(i) for i in ids} == {i: i.upper() for i in ids}


class TestCoreDirectoryDelegation:
    """The multi-entity deployment uses the same directory, no wrapper."""

    def test_register_lookup_entities(self):
        assert CoreEntityDirectory is EntityDirectory
        directory = CoreEntityDirectory()
        directory.register("VM", "routing-a")
        directory.register("disk-gb", "routing-b")
        assert directory.lookup("VM") == "routing-a"
        assert directory.lookup("nope") is None
        assert directory.entities() == ["VM", "disk-gb"]

    def test_lookup_counter_delegates(self):
        directory = CoreEntityDirectory()
        directory.register("VM", "r")
        directory.lookup("VM")
        directory.lookup("VM")
        assert directory.lookups == 2
