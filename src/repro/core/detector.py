"""Centralized (single-site) CFD violation detection.

For a centralized database the paper notes that two SQL queries suffice
to find ``V(Sigma, D)`` (one for the constant part, one for the variable
part of each tableau).  A tableau is one embedded FD with many pattern
rows, which is exactly a fused same-LHS rule group
(:func:`repro.rulefuse.compile_rule_set`), so
:class:`CentralizedDetector` checks one fused group per pass on every
storage backend.  It serves two roles in this repository:

* the *correctness reference* against which both distributed incremental
  detectors are checked (property tests compare their results tuple for
  tuple), and
* the building block of the distributed batch baselines, which ship data
  to a coordinator and then run centralized detection there.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet


def _fused_group_task(cfds: list[CFD], tuples: list[Tuple]) -> list[set[Any]]:
    """``V(phi, D)`` for every member of one fused rule group (pure).

    The members share an LHS attribute list, so the fused kernels sweep
    the data once for the whole group instead of once per CFD.
    """
    from repro.rulefuse import fused_violations

    return fused_violations(cfds, tuples)


class CentralizedDetector:
    """Batch detector for a set of CFDs over an in-memory relation.

    With a :class:`~repro.runtime.scheduler.SiteScheduler`, ``detect``
    fans the checks out as independent tasks, one per fused same-LHS
    rule group; without one it makes a single
    :func:`~repro.rulefuse.fused_violations` call (the default, used by
    the many setup paths that just need the reference violation set).
    """

    def __init__(self, cfds: Iterable[CFD], scheduler: Any = None):
        self._cfds = list(cfds)
        self._scheduler = scheduler

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    def detect(self, relation: Relation | Iterable[Tuple]) -> ViolationSet:
        """Compute ``V(Sigma, D)`` with per-CFD marks."""
        from repro.columnar.store import column_store_of
        from repro.rulefuse import compile_rule_set, fused_violations
        from repro.sqlstore.store import sql_store_of

        # Columnar and SQL-backed relations are handed to the kernels
        # whole: the columnar sweep shares one grouped-LHS pass per
        # group, and the SQL check runs as one pushed-down query per
        # group instead of a fetched-row loop.
        if column_store_of(relation) is not None or sql_store_of(relation) is not None:
            tuples: Any = relation
        else:
            tuples = list(relation)
        violations = ViolationSet()
        if self._scheduler is None:
            for cfd, tids in zip(self._cfds, fused_violations(self._cfds, tuples)):
                for tid in tids:
                    violations.add(tid, cfd.name)
            return violations
        from repro.runtime.executor import SiteTask

        groups = compile_rule_set(self._cfds)
        tasks = [
            SiteTask(
                i,
                _fused_group_task,
                (list(group.members), tuples),
                label="fused:" + ",".join(group.lhs),
            )
            for i, group in enumerate(groups)
        ]
        for group, result in zip(groups, self._scheduler.run(tasks)):
            for cfd, tids in zip(group.members, result.value):
                for tid in tids:
                    violations.add(tid, cfd.name)
        return violations


def detect_violations(cfds: Iterable[CFD], relation: Relation | Iterable[Tuple]) -> ViolationSet:
    """Convenience wrapper: ``V(Sigma, D)`` for a set of CFDs over ``relation``."""
    return CentralizedDetector(cfds).detect(relation)
