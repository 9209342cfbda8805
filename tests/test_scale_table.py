"""Columnar entity table and its EntityState-compatible row views."""

import numpy
import pytest

from repro.core.entity import TokenError
from repro.scale.entity_table import COLUMNS, EntityTable, EntityView


class TestEntityTable:
    def test_add_returns_dense_row_indices(self):
        table = EntityTable()
        assert table.add("e0", 10) == 0
        assert table.add("e1") == 1
        assert len(table) == 2
        assert table.ids == ["e0", "e1"]
        assert table.tokens_left[0] == 10
        assert table.tokens_left[1] == 0

    def test_duplicate_and_negative_rejected(self):
        table = EntityTable()
        table.add("e0", 1)
        with pytest.raises(ValueError):
            table.add("e0", 2)
        with pytest.raises(TokenError):
            table.add("e1", -1)

    def test_lookup_paths(self):
        table = EntityTable()
        table.add("e0", 5)
        assert "e0" in table and "e1" not in table
        assert table.index_of("e0") == 0
        assert table.get("e0") == 0
        assert table.get("e1") is None
        with pytest.raises(KeyError):
            table.index_of("e1")

    def test_all_columns_grow_together(self):
        table = EntityTable()
        for index in range(10):
            table.add(f"e{index}")
        for column in COLUMNS:
            assert len(getattr(table, column)) == 10

    def test_total(self):
        table = EntityTable()
        for index in range(100):
            table.add(f"e{index}", index)
        assert table.total("tokens_left") == sum(range(100))
        assert table.total("acquired") == 0

    def test_as_numpy_is_zero_copy(self):
        table = EntityTable()
        table.add("e0", 7)
        view = table.as_numpy("tokens_left")
        assert view.dtype == numpy.int64
        assert view[0] == 7
        # Mutations through the array API are visible in the view: the
        # audit reads live columns, not snapshots.
        table.tokens_left[0] = 42
        assert view[0] == 42

    def test_as_numpy_empty_table(self):
        table = EntityTable()
        empty = table.as_numpy("tokens_left")
        assert empty.shape == (0,)


class TestEntityView:
    def test_view_reads_and_writes_the_row(self):
        table = EntityTable()
        row = table.add("e0", 10)
        view = table.view(row)
        assert isinstance(view, EntityView)
        assert view.entity_id == "e0"
        assert view.tokens_left == 10
        view.tokens_left = 4
        assert table.tokens_left[row] == 4

    def test_two_views_of_one_row_are_coherent(self):
        table = EntityTable()
        row = table.add("e0", 10)
        a, b = table.view(row), table.view(row)
        a.acquire(3)
        assert b.tokens_left == 7

    def test_inherited_state_machine_operates_on_columns(self):
        # The point of the subclass: EntityState.acquire/release/
        # can_acquire/snapshot run unchanged over columnar storage.
        table = EntityTable()
        row = table.add("e0", 5)
        view = table.view(row)
        assert view.can_acquire(5)
        assert not view.can_acquire(6)
        view.acquire(5)
        assert table.tokens_left[row] == 0
        with pytest.raises(TokenError):
            view.acquire(1)
        view.release(2)
        assert table.tokens_left[row] == 2
        snap = view.snapshot("site-a")
        assert (snap.site_id, snap.entity_id, snap.tokens_left) == ("site-a", "e0", 2)

    def test_validation_matches_entity_state(self):
        table = EntityTable()
        view = table.view(table.add("e0", 3))
        with pytest.raises(TokenError):
            view.tokens_left = -1
        with pytest.raises(TokenError):
            view.tokens_wanted = -1
        with pytest.raises(TokenError):
            view.acquire(0)
        with pytest.raises(TokenError):
            view.release(0)
        assert view.tokens_left == 3
