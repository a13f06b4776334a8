"""Single-update incremental detection for one variable CFD.

These are the algorithms ``incVIns`` and ``incVDel`` of Fig. 4,
expressed over the :class:`~repro.indexes.idx.CFDIndex` group index
(``set(t[X])`` and ``[t]_{X ∪ {B}}`` in the paper's notation).  They
return the per-CFD change to the violation set and maintain the index in
the same pass.  Both take constant time per update beyond the size of
the change they return: they read ``t``'s group in place
(:meth:`~repro.indexes.idx.CFDIndex.group`, no copy), look at how many
RHS classes it has, and touch a class's tids only when those tids enter
or leave the violation set.

The routines are pure index/tuple logic: communication (which eqids are
shipped to compute the IDX key) is accounted for separately by the HEV
plan in :mod:`repro.vertical.incver`, because the number of eqids
shipped does not depend on the values involved (Section 5).
"""

from __future__ import annotations

from typing import Any

from repro.core.tuples import Tuple
from repro.indexes.idx import CFDIndex


def incremental_insert(index: CFDIndex, t: Tuple) -> set[Any]:
    """``incVIns``: tids that become violations of the CFD when ``t`` is inserted.

    Case analysis on ``set(t[X])`` before the insertion (Fig. 4):

    * more than one RHS class — every existing member of the group is
      already a violation, so ``t`` is the only new one;
    * exactly one class holding a different RHS value — ``t`` and the
      whole class become violations;
    * exactly one class holding the same RHS value, or no class at all —
      nothing changes.
    """
    cfd = index.cfd
    if not index.applies_to(t):
        return set()
    key = index.lhs_key(t)
    classes = index.group(key)
    added: set[Any] = set()
    if len(classes) > 1:
        added.add(t.tid)
    elif len(classes) == 1:
        ((existing_value, existing_tids),) = classes.items()
        if existing_value != t[cfd.rhs]:
            added.add(t.tid)
            added.update(existing_tids)
    index.add(key, t[cfd.rhs], t.tid)
    return added


def incremental_delete(index: CFDIndex, t: Tuple) -> set[Any]:
    """``incVDel``: tids that stop being violations of the CFD when ``t`` is deleted.

    Case analysis on ``[t]_{X ∪ {B}}`` and ``set(t[X])`` before the
    deletion (Fig. 4):

    * ``t``'s RHS class keeps other members — only ``t`` itself leaves
      the violation set (and only if the group had at least two classes,
      otherwise nobody was a violation);
    * ``t`` was alone in its class and the group had more than two
      classes — only ``t`` leaves;
    * ``t`` was alone in its class and the group had exactly two classes
      — ``t`` and the entire remaining class leave;
    * otherwise nothing was a violation and nothing changes.
    """
    cfd = index.cfd
    if not index.applies_to(t):
        return set()
    key = index.lhs_key(t)
    classes = index.group(key)
    own_class = classes.get(t[cfd.rhs], ())
    if t.tid not in own_class:
        raise ValueError(
            f"tuple {t.tid!r} is not indexed for CFD {cfd.name!r}; cannot delete"
        )
    removed: set[Any] = set()
    n_classes = len(classes)
    if len(own_class) > 1:
        if n_classes > 1:
            removed.add(t.tid)
    else:
        if n_classes > 2:
            removed.add(t.tid)
        elif n_classes == 2:
            removed.add(t.tid)
            for value, tids in classes.items():
                if value != t[cfd.rhs]:
                    removed.update(tids)
    index.remove(key, t[cfd.rhs], t.tid)
    return removed
