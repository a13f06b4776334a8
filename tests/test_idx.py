"""Tests for the IDX group index."""

import pytest

from repro.core.cfd import CFD
from repro.core.tuples import Tuple
from repro.indexes.idx import CFDIndex, IndexError_

from oracle import index_classes, index_snapshot


def t(tid, cc=44, zip_="EH4", street="Mayfield"):
    return Tuple(tid, {"CC": cc, "zip": zip_, "street": street})


@pytest.fixture
def phi1() -> CFD:
    return CFD(["CC", "zip"], "street", {"CC": 44}, name="phi1")


@pytest.fixture
def index(phi1) -> CFDIndex:
    return CFDIndex(phi1)


class TestConstruction:
    def test_constant_cfd_rejected(self):
        constant = CFD(["CC"], "city", {"CC": 44, "city": "EDI"})
        with pytest.raises(ValueError):
            CFDIndex(constant)

    def test_exposes_cfd(self, index, phi1):
        assert index.cfd is phi1


class TestKeyingAndApplicability:
    def test_lhs_key(self, index):
        assert index.lhs_key(t(1)) == (44, "EH4")

    def test_applies_to_respects_pattern(self, index):
        assert index.applies_to(t(1, cc=44))
        assert not index.applies_to(t(1, cc=1))


class TestMaintenance:
    def test_add_tuple_groups_by_lhs_and_rhs(self, index):
        index.add_tuple(t(1, street="Mayfield"))
        index.add_tuple(t(2, street="Mayfield"))
        index.add_tuple(t(3, street="Crichton"))
        group = index.group((44, "EH4"))
        assert index_classes(index, (44, "EH4")) == {"Mayfield": {1, 2}, "Crichton": {3}}
        assert len(group) == 2
        assert sum(len(tids) for tids in group.values()) == 3

    def test_add_tuple_ignores_non_matching(self, index):
        assert not index.add_tuple(t(1, cc=99))
        assert len(index) == 0

    def test_class_of(self, index):
        index.add_tuple(t(1))
        assert index.group((44, "EH4")).get("Mayfield") == {1}
        assert index.group((44, "EH4")).get("Crichton") is None
        assert index.group((44, "ZZZ")).get("Mayfield") is None

    def test_remove_tuple(self, index):
        index.add_tuple(t(1))
        index.add_tuple(t(2, street="Crichton"))
        assert index.remove_tuple(t(1))
        assert index_classes(index, (44, "EH4")) == {"Crichton": {2}}

    def test_remove_last_tuple_drops_group(self, index):
        index.add_tuple(t(1))
        index.remove_tuple(t(1))
        assert len(index) == 0
        assert len(index.group((44, "EH4"))) == 0

    def test_remove_unknown_raises(self, index):
        with pytest.raises(IndexError_):
            index.remove((44, "EH4"), "Mayfield", 123)

    def test_remove_non_matching_tuple_is_noop(self, index):
        assert not index.remove_tuple(t(1, cc=99))

    def test_group_is_live_and_read_only(self, index):
        # group() hands out the index's own mapping: no copy, and later
        # maintenance shows through it.
        index.add_tuple(t(1))
        group = index.group((44, "EH4"))
        assert group is index.group((44, "EH4"))
        index.add_tuple(t(2, street="Crichton"))
        assert dict(group) == {"Mayfield": {1}, "Crichton": {2}}
        # A key with no tuples gets a shared empty mapping that refuses
        # writes; callers that need a mutable copy make one.
        missing = index.group((44, "ZZZ"))
        with pytest.raises(TypeError):
            missing["Mayfield"] = {3}
        snapshot = index_classes(index, (44, "EH4"))
        snapshot["Mayfield"].add(999)
        assert index.group((44, "EH4"))["Mayfield"] == {1}

    def test_build_from(self, index):
        index.build_from([t(1), t(2, street="Crichton"), t(3, cc=99)])
        assert index.total_tuples() == 2

    def test_groups_iteration(self, index):
        index.add_tuple(t(1))
        index.add_tuple(t(2, zip_="EH2"))
        keys = {key for key, _ in index.groups()}
        assert keys == {(44, "EH4"), (44, "EH2")}
        # The iteration yields the same live mappings as group().
        for key, group in index.groups():
            assert group is index.group(key)

    def test_mixed_groups_are_independent(self, index):
        index.add_tuple(t(1, zip_="EH4"))
        index.add_tuple(t(2, zip_="EH2", street="Crichton"))
        assert index_snapshot(index) == {
            (44, "EH4"): {"Mayfield": {1}},
            (44, "EH2"): {"Crichton": {2}},
        }
