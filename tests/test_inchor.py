"""Tests for incHor: incremental detection over horizontal partitions."""

import random

import pytest

from repro.core.cfd import CFD
from repro.core.detector import detect_violations
from repro.core.updates import Update, UpdateBatch
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.engine.session import session
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates


@pytest.fixture
def emp_horizontal(emp, emp_relation):
    return Cluster.from_horizontal(emp.horizontal_partitioner(), emp_relation)


class TestSetup:
    def test_requires_horizontal_cluster(self, emp, emp_relation, emp_cfds):
        vertical = Cluster.from_vertical(emp.vertical_partitioner(), emp_relation)
        with pytest.raises(ValueError):
            HorizontalIncrementalDetector(vertical, emp_cfds)

    def test_initial_violations(self, emp_horizontal, emp_cfds):
        detector = HorizontalIncrementalDetector(emp_horizontal, emp_cfds)
        assert detector.violations.tids_for("phi1") == {1, 3, 4, 5}
        assert detector.violations.tids_for("phi2") == {1}

    def test_local_index_per_site(self, emp_horizontal, emp_cfds):
        detector = HorizontalIncrementalDetector(emp_horizontal, emp_cfds)
        # Site 1 hosts DH2 = {t3, t4}; both share CC=44, zip=EH4 8LE, street=Mayfield.
        index = detector.index_for("phi1", 1)
        assert index.class_of((44, "EH4 8LE"), "Mayfield") == {3, 4}


class TestPaperExample:
    def test_insert_t6_then_delete_t4(self, emp, emp_horizontal, emp_cfds):
        detector = HorizontalIncrementalDetector(emp_horizontal, emp_cfds)
        tuples = emp.tuples()
        network = emp_horizontal.network
        delta = detector.apply(UpdateBatch.of(Update.insert(tuples["t6"])))
        assert delta.added == {6: {"phi1"}}
        # Example 2/9: no data needs to be shipped for this insertion.
        assert network.total_messages == 0
        delta = detector.apply(UpdateBatch.of(Update.delete(tuples["t4"])))
        assert delta.removed == {4: {"phi1"}}
        assert network.total_messages == 0

    def test_fragments_are_maintained(self, emp, emp_horizontal, emp_cfds):
        detector = HorizontalIncrementalDetector(emp_horizontal, emp_cfds)
        tuples = emp.tuples()
        detector.apply(UpdateBatch.of(Update.insert(tuples["t6"]), Update.delete(tuples["t1"])))
        assert emp_horizontal.reconstruct().tids() == {2, 3, 4, 5, 6}
        # t6 has grade C and must live on DH3 (site 2).
        assert 6 in emp_horizontal.site(2).fragment

    def test_constant_cfd_checked_locally(self, emp, emp_relation):
        cluster = Cluster.from_horizontal(emp.horizontal_partitioner(), emp_relation)
        detector = HorizontalIncrementalDetector(cluster, [emp.phi2()])
        bad = emp.tuples()["t6"].with_values(city="NYC")
        delta = detector.apply(UpdateBatch.of(Update.insert(bad)))
        assert "phi2" in delta.added[6]
        # Constant CFDs are violated by single tuples; nothing is ever shipped.
        assert cluster.network.total_messages == 0

    def test_locally_checkable_cfd_never_broadcasts(self, emp, emp_relation):
        """A variable CFD whose LHS contains the fragmentation attribute."""
        cfd = CFD(["grade", "salary"], "hd", name="local_rule")
        cluster = Cluster.from_horizontal(emp.horizontal_partitioner(), emp_relation)
        detector = HorizontalIncrementalDetector(cluster, [cfd])
        new = emp.tuples()["t6"].with_values(salary="65k")
        detector.apply(UpdateBatch.of(Update.insert(new)))
        assert cluster.network.total_messages == 0


class TestEquivalenceWithCentralized:
    @pytest.mark.parametrize("n_partitions", [2, 5, 8])
    def test_matches_centralized_on_tpch(self, n_partitions):
        generator = TPCHGenerator(seed=5, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 8, seed=2)
        base = generator.relation(120)
        updates = generate_updates(base, generator, 60, seed=9)
        cluster = Cluster.from_horizontal(generator.horizontal_partitioner(n_partitions), base)
        detector = HorizontalIncrementalDetector(cluster, cfds)
        detector.apply(updates)
        assert detector.violations == detect_violations(cfds, updates.apply_to(base))

    @pytest.mark.parametrize("use_md5", [True, False])
    def test_md5_mode_does_not_change_the_result(self, use_md5):
        generator = TPCHGenerator(seed=6, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=3)
        base = generator.relation(100)
        updates = generate_updates(base, generator, 60, seed=4)
        cluster = Cluster.from_horizontal(generator.horizontal_partitioner(5), base)
        detector = HorizontalIncrementalDetector(cluster, cfds, use_md5=use_md5)
        detector.apply(updates)
        assert detector.violations == detect_violations(cfds, updates.apply_to(base))

    def test_md5_ships_fewer_bytes_than_full_tuples(self):
        generator = TPCHGenerator(seed=6, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=3)
        base = generator.relation(150)
        updates = generate_updates(base, generator, 80, seed=4)
        partitioner = generator.horizontal_partitioner(5)
        totals = {}
        for use_md5 in (True, False):
            network = Network()
            cluster = Cluster.from_horizontal(partitioner, base, network)
            HorizontalIncrementalDetector(cluster, cfds, use_md5=use_md5).apply(updates)
            totals[use_md5] = network.total_bytes
        assert totals[True] < totals[False]

    def test_deletions_only_remove_and_insertions_only_add(self):
        generator = TPCHGenerator(seed=6, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=2)
        base = generator.relation(100)
        cluster = Cluster.from_horizontal(generator.horizontal_partitioner(5), base)
        detector = HorizontalIncrementalDetector(cluster, cfds)
        delta = detector.apply(UpdateBatch.inserts(generator.tuples(1000, 40)))
        assert not delta.removed
        delta = detector.apply(UpdateBatch.deletes([t for t in base][:30]))
        assert not delta.added

    def test_delta_applied_to_old_violations_gives_new_violations(self):
        generator = TPCHGenerator(seed=8, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=3)
        base = generator.relation(80)
        updates = generate_updates(base, generator, 50, seed=4)
        old = detect_violations(cfds, base)
        cluster = Cluster.from_horizontal(generator.horizontal_partitioner(4), base)
        detector = HorizontalIncrementalDetector(cluster, cfds, violations=old)
        delta = detector.apply(updates)
        patched = old.copy()
        patched.apply(delta)
        assert patched == detect_violations(cfds, updates.apply_to(base))


def _stream_with_pairs(generator, base, n_waves, seed):
    """Generated waves plus same-tid modifications and cancelling insert/delete pairs.

    Each pair's two halves land at random positions of the wave, in order.
    """
    rng = random.Random(seed)
    current = base
    next_fresh = 1_000_000
    waves = []
    for i in range(n_waves):
        updates = list(generate_updates(current, generator, 40, seed=seed * 10 + i, skew=1.2))
        touched = {u.tid for u in updates}
        untouched = sorted(t.tid for t in current if t.tid not in touched)
        donors = list(current)
        pairs = []
        for tid in rng.sample(untouched, 6):
            old = current[tid]
            attribute = rng.choice(["cregion", "taxcode", "shipband", "ptype"])
            new = old.with_values(**{attribute: rng.choice(donors)[attribute]})
            pairs.append((Update.delete(old), Update.insert(new)))
        for fresh in generator.tuples(next_fresh, 4):
            pairs.append((Update.insert(fresh), Update.delete(fresh)))
        next_fresh += 4
        for first, second in pairs:
            at = rng.randrange(len(updates) + 1)
            updates.insert(at, first)
            updates.insert(rng.randrange(at + 1, len(updates) + 1), second)
        wave = UpdateBatch(updates)
        waves.append(wave)
        current = wave.apply_to(current)
    return waves


class TestGroupStatusInvariant:
    """Every member of an LHS group shares one violation status per variable CFD.

    The protocol reads one member's mark in place of the whole group's,
    so this must hold after every wave: per site (each IDX group) and
    across sites (the global group, which violates iff it holds two RHS
    values).
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_holds_after_every_wave(self, storage, seed):
        generator = TPCHGenerator(seed=seed, error_rate=0.15)
        cfds = generate_cfds(generator.fd_specs(), 8, seed=seed)
        variable = [cfd for cfd in cfds if cfd.is_variable()]
        base = generator.relation(200)
        waves = _stream_with_pairs(generator, base, 4, seed)
        with (
            session(base)
            .partition(generator.horizontal_partitioner(4))
            .rules(cfds)
            .strategy("incHor")
            .storage(storage)
            .build()
        ) as sess:
            current = base
            for i, wave in enumerate(waves):
                if i == 2:
                    sess.rebalance()
                sess.apply(wave)
                current = wave.apply_to(current)
                assert sess.violations == detect_violations(cfds, current)
                detector = sess.detector._detector  # the strategy's HorizontalIncrementalDetector
                for cfd in variable:
                    statuses = {}
                    for site in sess.deployment.site_ids():
                        for key, group in detector.index_for(cfd.name, site).groups():
                            site_status = {
                                sess.violations.violates(tid, cfd.name)
                                for tids in group.values()
                                for tid in tids
                            }
                            assert len(site_status) == 1, (cfd.name, site, key)
                            statuses.setdefault(key, set()).update(site_status)
                    for key, status in statuses.items():
                        assert len(status) == 1, (cfd.name, key)
