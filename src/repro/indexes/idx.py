"""The IDX index of Section 4.

For a variable CFD ``phi = (X -> B, tp)``, the IDX groups the tuples
that the CFD applies to (those whose ``X`` values match ``tp[X]``) by
their LHS equivalence class; inside each class it stores the distinct
``B`` values and, per value, the set of tuple ids: this is exactly
``set(t[X])`` of the paper — "for each ``[t]_X`` an IDX stores distinct
values of the B attribute and their associated tuple ids".

The same structure is used per site by the horizontal detector (keyed by
local tuples only) and globally by the vertical detector (stored at the
site the HEV plan assigns to the CFD).
"""

from __future__ import annotations

from time import perf_counter
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping

from repro.core.cfd import CFD, UNNAMED
from repro.core.tuples import Tuple
from repro.obs import profile as _prof


#: What :meth:`CFDIndex.group` returns for a key with no tuples.
_NO_GROUP: Mapping[Any, set[Any]] = MappingProxyType({})


class IndexError_(RuntimeError):
    """Raised when the index is asked to remove an unknown tuple."""


class CFDIndex:
    """Group index for one variable CFD: LHS key -> {RHS value -> {tids}}.

    The incremental hot paths (``incVIns``/``incVDel`` and the
    horizontal protocol) read a group through :meth:`group`, which hands
    out the live ``{B value: tids}`` mapping without copying, so one
    update costs the same whatever the size of its group.
    :meth:`classes`, :meth:`class_of` and :meth:`groups` return copies;
    they are the diagnostic API.
    """

    def __init__(self, cfd: CFD):
        if cfd.is_constant():
            raise ValueError(
                f"CFDIndex only applies to variable CFDs; {cfd.name!r} is constant"
            )
        self._cfd = cfd
        self._groups: dict[tuple[Hashable, ...], dict[Any, set[Any]]] = {}
        # Hot-path caches: the per-tuple methods below run once per tuple
        # per CFD, so resolve the attribute lists and the pattern's LHS
        # constants once here instead of walking the pattern entries
        # (a linear scan each) on every call.
        self._lhs: tuple[str, ...] = cfd.lhs
        self._rhs: str = cfd.rhs
        self._lhs_constants: tuple[tuple[str, Any], ...] = tuple(
            (a, cfd.pattern.entry(a))
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        )

    @property
    def cfd(self) -> CFD:
        return self._cfd

    # -- keying --------------------------------------------------------------------

    def lhs_key(self, t: Mapping[str, Any]) -> tuple[Hashable, ...]:
        """The grouping key ``t[X]`` (the semantic content of ``id[t_X]``)."""
        return tuple(t[a] for a in self._lhs)

    def applies_to(self, t: Mapping[str, Any]) -> bool:
        """Whether the CFD's pattern covers ``t`` (i.e. ``t[X] ~ tp[X]``)."""
        for a, constant in self._lhs_constants:
            if t[a] != constant:
                return False
        return True

    # -- queries -----------------------------------------------------------------------

    def group(self, lhs_key: tuple[Hashable, ...]) -> Mapping[Any, set[Any]]:
        """The live ``{B value: tids}`` group of ``lhs_key``, without copying.

        Constant time whatever the group's size.  The mapping and its tid
        sets are the index's own: read them before the next
        :meth:`add`/:meth:`remove` and never mutate them.
        """
        return self._groups.get(lhs_key, _NO_GROUP)

    def classes(self, lhs_key: tuple[Hashable, ...]) -> dict[Any, set[Any]]:
        """``set(t[X])``: distinct B values of the group, each with its tids.

        The returned mapping is a copy (diagnostics); mutating it does not
        affect the index.  Hot paths read :meth:`group` instead.
        """
        group = self._groups.get(lhs_key, {})
        return {value: set(tids) for value, tids in group.items()}

    def class_count(self, lhs_key: tuple[Hashable, ...]) -> int:
        """``|set(t[X])|``: how many distinct B values the group holds."""
        return len(self._groups.get(lhs_key, ()))

    def class_of(self, lhs_key: tuple[Hashable, ...], rhs_value: Any) -> set[Any]:
        """``[t]_{X ∪ {B}}``: the tids sharing both the LHS key and the B value."""
        return set(self._groups.get(lhs_key, {}).get(rhs_value, ()))

    def group_size(self, lhs_key: tuple[Hashable, ...]) -> int:
        """Total number of tuples in the LHS group."""
        return sum(len(tids) for tids in self._groups.get(lhs_key, {}).values())

    def groups(self) -> Iterable[tuple[tuple[Hashable, ...], dict[Any, set[Any]]]]:
        """Iterate over (lhs_key, {rhs_value: tids}) pairs (diagnostics/tests)."""
        for key, group in self._groups.items():
            yield key, {value: set(tids) for value, tids in group.items()}

    def __len__(self) -> int:
        """Number of LHS groups currently indexed."""
        return len(self._groups)

    def total_tuples(self) -> int:
        return sum(
            len(tids) for group in self._groups.values() for tids in group.values()
        )

    # -- maintenance ----------------------------------------------------------------------

    def add_tuple(self, t: Tuple) -> bool:
        """Index ``t`` if the CFD applies to it.  Returns True if indexed."""
        if not self.applies_to(t):
            return False
        self.add(self.lhs_key(t), t[self._rhs], t.tid)
        return True

    def add(self, lhs_key: tuple[Hashable, ...], rhs_value: Any, tid: Any) -> None:
        self._groups.setdefault(lhs_key, {}).setdefault(rhs_value, set()).add(tid)

    def remove_tuple(self, t: Tuple) -> bool:
        """Remove ``t`` if the CFD applies to it.  Returns True if removed."""
        if not self.applies_to(t):
            return False
        self.remove(self.lhs_key(t), t[self._rhs], t.tid)
        return True

    def remove(self, lhs_key: tuple[Hashable, ...], rhs_value: Any, tid: Any) -> None:
        group = self._groups.get(lhs_key)
        if not group or rhs_value not in group or tid not in group[rhs_value]:
            raise IndexError_(
                f"tuple {tid!r} not indexed under key {lhs_key!r} / value {rhs_value!r}"
            )
        group[rhs_value].discard(tid)
        if not group[rhs_value]:
            del group[rhs_value]
        if not group:
            del self._groups[lhs_key]

    def load_group(
        self, lhs_key: tuple[Hashable, ...], by_rhs: Mapping[Any, set[Any]]
    ) -> None:
        """Merge one pre-grouped equivalence class (bulk columnar builds)."""
        group = self._groups.setdefault(lhs_key, {})
        for rhs_value, tids in by_rhs.items():
            group.setdefault(rhs_value, set()).update(tids)

    def build_from(self, tuples: Iterable[Tuple]) -> None:
        """Index every applicable tuple of an iterable (initial build).

        Column-backed relations are bulk-loaded from their encoded
        columns: the grouped LHS keys are computed once per relation
        (and shared with every other index/kernel over the same
        attributes) instead of once per tuple.
        """
        from repro.columnar.store import column_store_of
        from repro.sqlstore.store import sql_store_of

        store = column_store_of(tuples)
        if store is not None:
            from repro.columnar import kernels

            kernels.build_cfd_index(self, store)
            return
        sql_store = sql_store_of(tuples)
        if sql_store is not None:
            # SQL-backed relations build from one pushed-down
            # pattern-filtered scan, grouped as it streams back.
            from repro.sqlstore import kernels as sql_kernels

            sql_kernels.build_cfd_index(self, sql_store)
            return
        if _prof.enabled:
            _t0 = perf_counter()
            count = 0
            for t in tuples:
                self.add_tuple(t)
                count += 1
            _prof.note("idx.build_rows", perf_counter() - _t0, count)
            return
        for t in tuples:
            self.add_tuple(t)
