"""Compute boundedness of the incremental path (Fig. 4, Proposition 8).

``tests/test_boundedness.py`` checks that incVer/incHor *ship* an amount
independent of |D|.  These tests check the same of the *work*: one
normalize pass costs O(1) tid operations per update whatever |delta-D|,
one IDX update or protocol step costs the same whatever the size of the
group it lands in, and the apply time per unit of |delta-D| + |delta-V|
does not grow with |D|.  Operation counts are exact; the time checks
compare best-of-several runs against generous ratios, taking the two
sides in turn where they share a host's drift, so that a loaded host
cannot fail them, while a per-update cost linear in the group size
(1000x between the sizes below) or in |D| (4x) would.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from repro.core.cfd import CFD
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import ViolationSet
from repro.distributed.network import Network
from repro.engine.session import session
from repro.horizontal.single import GeneralCFDProtocol
from repro.indexes.idx import CFDIndex
from repro.vertical.single import incremental_delete, incremental_insert
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates


# -- normalize: O(1) tid operations per update -------------------------------------------


class CountingTid:
    """A tid that counts every hash and equality test made on it."""

    ops = 0

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        CountingTid.ops += 1
        return hash(self.value)

    def __eq__(self, other: object) -> bool:
        CountingTid.ops += 1
        return isinstance(other, CountingTid) and self.value == other.value


def _stream(n_updates: int, seed: int = 5) -> list[Update]:
    """Inserts, deletes, modifications and cancelling pairs over a wide tid range."""
    rng = random.Random(seed)
    updates: list[Update] = []
    while len(updates) < n_updates:
        t = Tuple(CountingTid(rng.randrange(n_updates)), {"a": rng.randrange(4)})
        shape = rng.random()
        if shape < 0.6:
            updates.append(Update.insert(t))
        elif shape < 0.8:
            updates.append(Update.delete(t))
        elif shape < 0.9:
            updates += [Update.delete(t), Update.insert(t)]
        else:
            updates += [Update.insert(t), Update.delete(t)]
    return updates[:n_updates]


def _normalize_ops_per_update(n_updates: int) -> float:
    batch = UpdateBatch(_stream(n_updates))
    CountingTid.ops = 0
    batch.normalized()
    return CountingTid.ops / n_updates


def test_normalize_does_constant_tid_work_per_update():
    small = _normalize_ops_per_update(500)
    large = _normalize_ops_per_update(8000)
    # A dict-keyed pass hashes each tid a bounded number of times; the old
    # backward scan compared every update against the surviving list.
    assert small <= 4 and large <= 4
    assert large <= 1.2 * small


# -- IDX and protocol steps: flat in the group size ----------------------------------------------

#: Group sizes compared; a per-step cost linear in the group would differ 1000x.
SMALL_GROUP, LARGE_GROUP = 10, 10_000
STEPS = 400
REPEATS = 5
FLAT_RATIO = 3.0

PHI = CFD(["a"], "b", name="phi_ab")


def _row(tid: int, b: int) -> Tuple:
    return Tuple(tid, {"a": 0, "b": b})


def _best_per_step(run) -> float:
    """Best-of-``REPEATS`` seconds per step of ``run(steps)``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run(STEPS)
        best = min(best, (time.perf_counter() - start) / STEPS)
    return best


def _vertical_cost(group_size: int) -> float:
    """incVIns + incVDel of a third RHS value into a violating two-class group."""
    index = CFDIndex(PHI)
    for tid in range(group_size):
        index.add_tuple(_row(tid, tid % 2))
    probes = itertools.count(group_size)

    def run(steps: int) -> None:
        for _ in range(steps):
            t = _row(next(probes), 2)
            assert incremental_insert(index, t) == {t.tid}
            assert incremental_delete(index, t) == {t.tid}

    return _best_per_step(run)


class _TwoSites:
    """One LHS group of ``group_size`` tuples on site 0, protocol on sites 0 and 1."""

    def __init__(self, group_size: int, violating: bool):
        self.violations = ViolationSet()
        self.indices = {0: CFDIndex(PHI), 1: CFDIndex(PHI)}
        for tid in range(group_size):
            self.indices[0].add_tuple(_row(tid, tid % 2 if violating else 0))
            if violating:
                self.violations.add(tid, PHI.name)
        self.protocol = GeneralCFDProtocol(
            PHI, self.indices, self.violations, Network(), [0, 1]
        )
        self.probes = itertools.count(group_size)

    def mark(self, tid) -> None:
        self.violations.add(tid, PHI.name)

    def unmark(self, tid) -> None:
        self.violations.remove(tid, PHI.name)

    def step(self, b: int) -> None:
        t = _row(next(self.probes), b)
        self.protocol.insert(0, t, self.mark, self.unmark)
        self.protocol.delete(0, t, self.mark, self.unmark)


def _protocol_cost(group_size: int, violating: bool, b: int) -> float:
    world = _TwoSites(group_size, violating)

    def run(steps: int) -> None:
        for _ in range(steps):
            world.step(b)

    cost = _best_per_step(run)
    # Each probe left again and changed no other tuple's status.
    assert len(world.violations) == (group_size if violating else 0)
    return cost


@pytest.mark.parametrize(
    "label,cost",
    [
        ("incVIns/incVDel, violating group", _vertical_cost),
        # t joins an existing class of a violating group: its status is read
        # from one member (the copy of the group used to dominate).
        ("protocol, same class of a violating group",
         lambda n: _protocol_cost(n, violating=True, b=0)),
        # t brings a new RHS value to a violating group: the local conflict
        # is known from one member, no broadcast.
        ("protocol, new class of a violating group",
         lambda n: _protocol_cost(n, violating=True, b=2)),
        # t joins a clean single-class group: the old scan asked every member.
        ("protocol, same class of a clean group",
         lambda n: _protocol_cost(n, violating=False, b=0)),
    ],
)
def test_per_update_cost_is_flat_in_group_size(label, cost):
    small = cost(SMALL_GROUP)
    large = cost(LARGE_GROUP)
    assert large <= FLAT_RATIO * small, (
        f"{label}: {large * 1e6:.1f} us/step at a group of {LARGE_GROUP} vs "
        f"{small * 1e6:.1f} us/step at {SMALL_GROUP}"
    )


# -- whole waves: apply time per unit of |delta-D| + |delta-V| flat in |D| ---------------------

SMALL_D, LARGE_D = 5_000, 20_000
WAVE = 300
WAVES = 4
D_RATIO = 1.5


@pytest.fixture(scope="module")
def tpch():
    return TPCHGenerator(seed=7)


@pytest.fixture(scope="module")
def tpch_cfds(tpch):
    return list(generate_cfds(tpch.fd_specs(), 8, seed=3))


class _Stream:
    """A session over ``n_base`` TPC-H tuples fed its own generated waves."""

    def __init__(self, tpch, cfds, strategy: str, n_base: int):
        self.tpch = tpch
        self.current = tpch.relation(n_base)
        partitioner = (
            tpch.horizontal_partitioner(4)
            if strategy == "incHor"
            else tpch.vertical_partitioner(4)
        )
        self.session = (
            session(self.current).partition(partitioner).rules(cfds).strategy(strategy).build()
        )
        self.best = float("inf")

    def wave(self, seed: int) -> None:
        """Apply one wave; keep the best seconds per unit of |delta-D| + |delta-V|."""
        wave = generate_updates(self.current, self.tpch, WAVE, insert_fraction=0.8, seed=seed)
        start = time.perf_counter()
        delta = self.session.apply(wave)
        elapsed = time.perf_counter() - start
        self.best = min(self.best, elapsed / (len(wave) + delta.size()))
        self.current = wave.apply_to(self.current)


@pytest.mark.parametrize("strategy", ["incHor", "incVer"])
def test_apply_time_per_change_is_flat_in_database_size(tpch, tpch_cfds, strategy):
    # Prop. 8 bounds the work by |delta-D| + |delta-V|, and an insert that
    # makes a clean group violate marks the whole group, so the time is
    # normalized by both.  The two sizes take turns, wave by wave, so a
    # host that slows down or speeds up slows both sides alike.
    small = _Stream(tpch, tpch_cfds, strategy, SMALL_D)
    large = _Stream(tpch, tpch_cfds, strategy, LARGE_D)
    try:
        for seed in range(WAVES):
            small.wave(seed)
            large.wave(seed)
    finally:
        small.session.close()
        large.session.close()
    assert large.best <= D_RATIO * small.best, (
        f"{strategy}: {large.best * 1e6:.0f} us per changed update or mark at "
        f"|D|={LARGE_D} vs {small.best * 1e6:.0f} us at |D|={SMALL_D}"
    )
