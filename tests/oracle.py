"""An independent, deliberately naive CFD violation oracle for the tests.

The library validates a rule set one fused same-LHS group at a time on
every backend (:mod:`repro.rulefuse`).  Parity suites need a reference
that shares none of that machinery, so this module follows the paper's
definition of ``V(Sigma, D)`` literally, one rule at a time, over plain
Python tuples:

* a constant CFD ``(X -> B, tp)`` is violated by every tuple ``t`` with
  ``t[X] ~ tp[X]`` and ``t[B] != tp[B]``;
* a variable CFD is violated by every tuple ``t`` with ``t[X] ~ tp[X]``
  for which some other such tuple ``t'`` has ``t'[X] = t[X]`` and
  ``t'[B] != t[B]`` (found by a pairwise scan, no grouping).

It reads only a rule's ``lhs``, ``rhs``, pattern entries and ``name``,
and compares values with Python ``==``.  It also holds the copy helpers
for :class:`~repro.indexes.idx.CFDIndex`, whose read accessors hand out
live views.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import UNNAMED
from repro.core.violations import ViolationSet


def _applies(cfd: Any, t: Any) -> bool:
    for a in cfd.lhs:
        entry = cfd.pattern.entry(a)
        if entry is not UNNAMED and not (t[a] == entry):
            return False
    return True


def row_violations(cfd: Any, tuples: Iterable[Any]) -> set[Any]:
    """``V(phi, D)`` for one CFD as a set of tids, by definition."""
    applies = [t for t in tuples if _applies(cfd, t)]
    rhs = cfd.rhs
    constant = cfd.pattern.entry(rhs)
    if constant is not UNNAMED:
        return {t.tid for t in applies if not (t[rhs] == constant)}
    out: set[Any] = set()
    for t in applies:
        for other in applies:
            if all(t[a] == other[a] for a in cfd.lhs) and not (t[rhs] == other[rhs]):
                out.add(t.tid)
                break
    return out


def naive_detect(cfds: Iterable[Any], tuples: Iterable[Any]) -> ViolationSet:
    """``V(Sigma, D)`` with per-rule marks, one :func:`row_violations` per rule."""
    tuples = list(tuples)
    violations = ViolationSet()
    for cfd in cfds:
        for tid in row_violations(cfd, tuples):
            violations.add(tid, cfd.name)
    return violations


def index_classes(index: Any, lhs_key: tuple) -> dict[Any, set[Any]]:
    """A copy of one IDX group: ``{B value: tids}`` (``{}`` when absent)."""
    return {value: set(tids) for value, tids in index.group(lhs_key).items()}


def index_snapshot(index: Any) -> dict[tuple, dict[Any, set[Any]]]:
    """A copy of a whole IDX: ``{LHS key: {B value: tids}}``."""
    return {key: index_classes(index, key) for key, _ in index.groups()}
