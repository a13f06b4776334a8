"""Tests for the update/delta model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch, UpdateKind


@pytest.fixture
def schema():
    return Schema("R", ["k", "a", "b"], key="k")


def row(tid, a="x", b="y"):
    return Tuple(tid, {"k": tid, "a": a, "b": b})


class TestUpdate:
    def test_insert_constructor(self):
        u = Update.insert(row(1))
        assert u.is_insert() and not u.is_delete()
        assert u.kind is UpdateKind.INSERT
        assert u.tid == 1

    def test_delete_constructor(self):
        u = Update.delete(row(2))
        assert u.is_delete()
        assert u.tuple["a"] == "x"


class TestUpdateBatchBasics:
    def test_of_and_len(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert len(batch) == 2
        assert batch[0].is_insert()

    def test_inserts_and_deletes_factories(self):
        ins = UpdateBatch.inserts([row(1), row(2)])
        assert len(ins.insertions) == 2 and not ins.deletions
        dels = UpdateBatch.deletes([row(3)])
        assert len(dels.deletions) == 1 and not dels.insertions

    def test_modification_is_delete_then_insert(self):
        batch = UpdateBatch.modification(row(1, a="old"), row(1, a="new"))
        assert [u.kind for u in batch] == [UpdateKind.DELETE, UpdateKind.INSERT]

    def test_sublists_preserve_order(self):
        batch = UpdateBatch.of(
            Update.insert(row(1)), Update.delete(row(2)), Update.insert(row(3))
        )
        assert [u.tid for u in batch.insertions] == [1, 3]
        assert [u.tid for u in batch.deletions] == [2]

    def test_inserted_and_deleted_tuples(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert [t.tid for t in batch.inserted_tuples()] == [1]
        assert [t.tid for t in batch.deleted_tuples()] == [2]

    def test_tids(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert batch.tids() == {1, 2}

    def test_append_and_extend(self):
        batch = UpdateBatch()
        batch.append(Update.insert(row(1)))
        batch.extend([Update.delete(row(2))])
        assert len(batch) == 2


class TestNormalization:
    def test_insert_then_delete_cancels(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(1)))
        assert len(batch.normalized()) == 0

    def test_delete_then_insert_is_preserved(self):
        batch = UpdateBatch.of(Update.delete(row(1, a="old")), Update.insert(row(1, a="new")))
        normalized = batch.normalized()
        assert [u.kind for u in normalized] == [UpdateKind.DELETE, UpdateKind.INSERT]

    def test_repeated_same_kind_collapsed(self):
        batch = UpdateBatch.of(Update.insert(row(1, a="v1")), Update.insert(row(1, a="v2")))
        normalized = batch.normalized()
        assert len(normalized) == 1
        assert normalized[0].tuple["a"] == "v2"

    def test_unrelated_updates_untouched(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert len(batch.normalized()) == 2

    def test_insert_delete_insert_keeps_last_insert(self):
        batch = UpdateBatch.of(
            Update.insert(row(1, a="v1")),
            Update.delete(row(1, a="v1")),
            Update.insert(row(1, a="v2")),
        )
        normalized = batch.normalized()
        assert len(normalized) == 1
        assert normalized[0].is_insert()
        assert normalized[0].tuple["a"] == "v2"


def quadratic_normalized(updates):
    """The original backward-scan normalization, kept verbatim as the oracle."""
    surviving = []
    for update in updates:
        cancelled = False
        if update.is_delete():
            for i in range(len(surviving) - 1, -1, -1):
                prior = surviving[i]
                if prior.tid == update.tid:
                    if prior.is_insert():
                        del surviving[i]
                        cancelled = True
                    break
        if not cancelled:
            for i in range(len(surviving) - 1, -1, -1):
                prior = surviving[i]
                if prior.tid == update.tid and prior.kind == update.kind:
                    del surviving[i]
                    break
            surviving.append(update)
    return surviving


#: ``1``, ``1.0`` and ``True`` are one tid under ``==``; normalization must
#: keep treating them as one.
_TID_POOL = st.sampled_from([1, 1.0, True, 2, 0, False, "a", "b", (1, 2)])

_UPDATE = st.builds(
    lambda is_insert, tid, value: (Update.insert if is_insert else Update.delete)(
        row(tid, a=value)
    ),
    st.booleans(),
    _TID_POOL,
    st.integers(0, 3),
)


class TestNormalizationDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_UPDATE, max_size=40))
    def test_matches_quadratic_oracle(self, updates):
        normalized = list(UpdateBatch(updates).normalized())
        expected = quadratic_normalized(updates)
        # Same Update objects, in the same order.
        assert [id(u) for u in normalized] == [id(u) for u in expected]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_UPDATE, max_size=30))
    def test_normalization_is_idempotent(self, updates):
        once = list(UpdateBatch(updates).normalized())
        twice = list(UpdateBatch(once).normalized())
        assert [id(u) for u in twice] == [id(u) for u in once]


class TestApplication:
    def test_apply_to_inserts_and_deletes(self, schema):
        base = Relation(schema, [row(1), row(2)])
        batch = UpdateBatch.of(Update.delete(row(2)), Update.insert(row(3)))
        updated = batch.apply_to(base)
        assert updated.tids() == {1, 3}
        assert base.tids() == {1, 2}

    def test_project_for_vertical_fragment(self):
        batch = UpdateBatch.of(Update.insert(row(1)))
        projected = batch.project(["k", "a"])
        assert set(projected[0].tuple) == {"k", "a"}

    def test_select_for_horizontal_fragment(self):
        batch = UpdateBatch.of(Update.insert(row(1, a="x")), Update.insert(row(2, a="y")))
        selected = batch.select(lambda t: t["a"] == "y")
        assert [u.tid for u in selected] == [2]

    def test_repr_counts(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert "+1" in repr(batch) and "-1" in repr(batch)
