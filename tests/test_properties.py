"""Property-based tests (hypothesis) for the core invariants.

The central invariant of the whole system is DESIGN.md #1: for any
database, any set of CFDs, any partitioning and any update batch, the
incremental detectors produce exactly the same violation set as the
centralized reference detector run on the updated database.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cfd import CFD
from repro.core.detector import detect_violations
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import diff_violations
from repro.distributed.cluster import Cluster
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.partition.horizontal import hash_horizontal_scheme
from repro.partition.vertical import even_vertical_scheme
from repro.vertical.incver import VerticalIncrementalDetector

from oracle import index_snapshot

SCHEMA = Schema("R", ["k", "a", "b", "c", "d"], key="k")

#: Small value domains make collisions (and therefore violations) likely.
_VALUES = st.sampled_from(["u", "v", "w"])

CFDS = [
    CFD(["a"], "b", name="fd_ab"),
    CFD(["a", "c"], "d", name="fd_acd"),
    CFD(["c"], "d", {"c": "u"}, name="cfd_cd_cond"),
    CFD(["a"], "c", {"a": "u", "c": "v"}, name="const_ac"),
]


@st.composite
def relations(draw, min_size=0, max_size=12):
    n = draw(st.integers(min_size, max_size))
    tuples = []
    for tid in range(1, n + 1):
        tuples.append(
            Tuple(
                tid,
                {
                    "k": tid,
                    "a": draw(_VALUES),
                    "b": draw(_VALUES),
                    "c": draw(_VALUES),
                    "d": draw(_VALUES),
                },
            )
        )
    return Relation(SCHEMA, tuples)


@st.composite
def update_batches(draw, base: Relation, max_ops=8):
    """A mix of deletions of existing tuples and insertions of fresh ones."""
    ops = draw(st.integers(0, max_ops))
    updates = []
    deletable = sorted(base.tids())
    next_tid = (max(deletable) if deletable else 0) + 1
    for _ in range(ops):
        do_delete = deletable and draw(st.booleans())
        if do_delete:
            tid = draw(st.sampled_from(deletable))
            deletable.remove(tid)
            updates.append(Update.delete(base[tid]))
        else:
            updates.append(
                Update.insert(
                    Tuple(
                        next_tid,
                        {
                            "k": next_tid,
                            "a": draw(_VALUES),
                            "b": draw(_VALUES),
                            "c": draw(_VALUES),
                            "d": draw(_VALUES),
                        },
                    )
                )
            )
            next_tid += 1
    return UpdateBatch(updates)


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPartitionReconstruction:
    @given(data=st.data())
    @_SETTINGS
    def test_vertical_join_reconstructs_relation(self, data):
        relation = data.draw(relations())
        n = data.draw(st.integers(1, 4))
        partition = even_vertical_scheme(SCHEMA, n).fragment(relation)
        rebuilt = partition.reconstruct()
        assert rebuilt.tids() == relation.tids()
        for t in relation:
            assert dict(rebuilt[t.tid]) == dict(t)

    @given(data=st.data())
    @_SETTINGS
    def test_horizontal_union_reconstructs_relation(self, data):
        relation = data.draw(relations())
        n = data.draw(st.integers(1, 4))
        partition = hash_horizontal_scheme(SCHEMA, n).fragment(relation)
        rebuilt = partition.reconstruct()
        assert rebuilt.tids() == relation.tids()


class TestIncrementalEqualsCentralized:
    @given(data=st.data())
    @_SETTINGS
    def test_vertical_incremental_matches_centralized(self, data):
        base = data.draw(relations())
        updates = data.draw(update_batches(base))
        n = data.draw(st.integers(1, 4))
        cluster = Cluster.from_vertical(even_vertical_scheme(SCHEMA, n), base)
        detector = VerticalIncrementalDetector(cluster, CFDS)
        delta = detector.apply(updates)
        expected = detect_violations(CFDS, updates.apply_to(base))
        assert detector.violations == expected
        # The returned delta is exactly the difference between old and new output.
        reference = diff_violations(detect_violations(CFDS, base), expected)
        assert delta == reference

    @given(data=st.data())
    @_SETTINGS
    def test_horizontal_incremental_matches_centralized(self, data):
        base = data.draw(relations())
        updates = data.draw(update_batches(base))
        n = data.draw(st.integers(1, 4))
        use_md5 = data.draw(st.booleans())
        cluster = Cluster.from_horizontal(hash_horizontal_scheme(SCHEMA, n), base)
        detector = HorizontalIncrementalDetector(cluster, CFDS, use_md5=use_md5)
        delta = detector.apply(updates)
        expected = detect_violations(CFDS, updates.apply_to(base))
        assert detector.violations == expected
        reference = diff_violations(detect_violations(CFDS, base), expected)
        assert delta == reference

    @given(data=st.data())
    @_SETTINGS
    def test_incremental_from_empty_equals_batch(self, data):
        """DESIGN.md invariant #3: inserting D into an empty database gives V(Sigma, D)."""
        relation = data.draw(relations(min_size=0, max_size=10))
        cluster = Cluster.from_vertical(
            even_vertical_scheme(SCHEMA, 3), Relation(SCHEMA)
        )
        detector = VerticalIncrementalDetector(cluster, CFDS)
        detector.apply(UpdateBatch.inserts(list(relation)))
        assert detector.violations == detect_violations(CFDS, relation)


class TestIndexConsistency:
    @given(data=st.data())
    @_SETTINGS
    def test_vertical_indices_match_rebuild_from_scratch(self, data):
        """DESIGN.md invariant #5: maintained indices equal freshly built ones."""
        base = data.draw(relations())
        updates = data.draw(update_batches(base))
        cluster = Cluster.from_vertical(even_vertical_scheme(SCHEMA, 3), base)
        detector = VerticalIncrementalDetector(cluster, CFDS)
        detector.apply(updates)
        final = updates.apply_to(base)
        for cfd in CFDS:
            if cfd.is_constant():
                continue
            from repro.indexes.idx import CFDIndex

            fresh = CFDIndex(cfd)
            fresh.build_from(final)
            maintained = detector.index_for(cfd.name)
            assert index_snapshot(maintained) == index_snapshot(fresh)

    @given(data=st.data())
    @_SETTINGS
    def test_fragments_stay_consistent_with_logical_database(self, data):
        base = data.draw(relations())
        updates = data.draw(update_batches(base))
        cluster = Cluster.from_horizontal(hash_horizontal_scheme(SCHEMA, 3), base)
        detector = HorizontalIncrementalDetector(cluster, CFDS)
        detector.apply(updates)
        final = updates.apply_to(base)
        rebuilt = cluster.reconstruct()
        assert rebuilt.tids() == final.tids()


class TestUpdateNormalization:
    @given(data=st.data())
    @_SETTINGS
    def test_normalized_batch_has_same_effect(self, data):
        base = data.draw(relations())
        updates = data.draw(update_batches(base))
        assert updates.apply_to(base).tids() == updates.normalized().apply_to(base).tids()
