"""Single-update protocol for a general variable CFD over horizontal partitions.

This implements the insert/delete case analysis of Section 6 for a
variable CFD that cannot be checked locally.  Each site keeps a
:class:`~repro.indexes.idx.CFDIndex` over its *local* tuples; the site
receiving an update decides from its local classes whether the change
can be resolved locally, and only otherwise broadcasts the updated tuple
(or, with the MD5 optimization, its 128-bit digest plus the values the
remote check needs) to the other sites.

The communication cost is at most one broadcast (``n - 1`` messages) per
update — independent of |D| — and many updates ship nothing at all:

* an inserted tuple whose (LHS, RHS) class already has local members
  never needs a broadcast;
* a deleted tuple that was not a violation, or whose class keeps local
  members, never needs a broadcast.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.cfd import CFD
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.distributed.message import MessageKind
from repro.distributed.network import Network
from repro.distributed.serialization import (
    MD5_BYTES,
    TID_BYTES,
    estimate_tuple_bytes,
    md5_digest,
)
from repro.indexes.idx import CFDIndex

MarkFn = Callable[[Any], None]


class GeneralCFDProtocol:
    """Insert/delete handling for one general variable CFD.

    Parameters
    ----------
    cfd:
        The variable CFD.
    site_indices:
        Per-site local IDX structures (site id -> :class:`CFDIndex`).
    violations:
        The live violation set (consulted for "is this tuple already a
        known violation of this CFD?").
    network:
        Shipments are charged here.
    eligible_sites:
        The sites that can possibly hold tuples matching the CFD's
        pattern (sites whose fragmentation predicate conflicts with the
        pattern constants are excluded up front — the ``Fi ∧ F_phi``
        optimization).
    use_md5:
        When True, broadcasts ship an MD5 digest of the tuple plus the
        LHS/RHS values needed by the remote check instead of the whole
        tuple (the optimization at the end of Section 6).
    """

    def __init__(
        self,
        cfd: CFD,
        site_indices: Mapping[int, CFDIndex],
        violations: ViolationSet,
        network: Network,
        eligible_sites: list[int],
        use_md5: bool = True,
    ):
        self._cfd = cfd
        self._indices = site_indices
        self._violations = violations
        self._network = network
        self._eligible_sites = list(eligible_sites)
        self._use_md5 = use_md5

    # -- shipment helpers ----------------------------------------------------------

    def _broadcast_cost(self, t: Tuple) -> int:
        if self._use_md5:
            # digest of the full tuple + the values the remote lookup needs
            needed = list(self._cfd.attributes)
            return MD5_BYTES + TID_BYTES + estimate_tuple_bytes(t, needed) - TID_BYTES
        return estimate_tuple_bytes(t)

    def _broadcast(self, home_site: int, t: Tuple, tag: str) -> list[int]:
        """Ship ``t`` (or its digest) to every other eligible site."""
        targets = [s for s in self._eligible_sites if s != home_site]
        kind = MessageKind.DIGEST if self._use_md5 else MessageKind.TUPLE
        payload: Any
        if self._use_md5:
            payload = {
                "tid": t.tid,
                "digest": md5_digest(t),
                "key": {a: t[a] for a in self._cfd.attributes},
            }
        else:
            payload = t
        cost = self._broadcast_cost(t)
        for target in targets:
            self._network.send(home_site, target, kind, payload, cost, units=1, tag=tag)
        return targets

    def _notify(self, home_site: int, target: int, payload: Any, tag: str) -> None:
        """A small control message (e.g. "unmark this class")."""
        self._network.send(
            home_site, target, MessageKind.CONTROL, payload, TID_BYTES, units=1, tag=tag
        )

    def _class_violates(self, tids: set[Any]) -> bool:
        """The violation status every member of a non-empty class shares."""
        return self._violations.violates(next(iter(tids)), self._cfd.name)

    # -- insertion -------------------------------------------------------------------

    def insert(
        self, home_site: int, t: Tuple, mark: MarkFn, unmark: MarkFn
    ) -> None:
        """Process the insertion of ``t`` at ``home_site``.

        Every member of an LHS group shares one violation status for a
        variable CFD (the group violates iff it holds two RHS values), so
        one member's mark stands for its whole local or remote group and
        no group is scanned unless its members change status.
        """
        cfd = self._cfd
        if not cfd.lhs_matches(t):
            return
        index = self._indices[home_site]
        key = index.lhs_key(t)
        local_classes = index.group(key)
        rhs_value = t[cfd.rhs]
        same_class = local_classes.get(rhs_value)
        has_diff = len(local_classes) > (1 if same_class else 0)

        if same_class:
            # Local tuples share t's (X, B): t's status equals theirs, and no tuple
            # anywhere changes status, so no shipment is needed.
            t_violates = has_diff or self._class_violates(same_class)
        else:
            # t's class is empty here, so every local member conflicts with t.
            local_conflict_known = has_diff and self._class_violates(
                next(iter(local_classes.values()))
            )
            t_violates = has_diff
            if has_diff and not local_conflict_known:
                # Existing local tuples that were not violations become ones now.
                for tids in local_classes.values():
                    for tid in tids:
                        mark(tid)
            if not local_conflict_known:
                # Either there is no local conflict at all (t's status must be
                # decided remotely) or the local conflict was not previously a
                # violation (so the whole group held a single RHS value and
                # remote members of it become violations now).  Only then is a
                # broadcast needed — when a conflicting local tuple is already
                # a known violation, every other tuple that could conflict with
                # t is a known violation too (Example 9 of the paper).
                for target in self._broadcast(home_site, t, f"{cfd.name}:ins"):
                    for value, tids in self._indices[target].group(key).items():
                        if value != rhs_value:
                            t_violates = True
                            if not self._class_violates(tids):
                                for tid in tids:
                                    mark(tid)
        if t_violates:
            mark(t.tid)
        index.add(key, rhs_value, t.tid)

    # -- deletion ----------------------------------------------------------------------

    def delete(
        self, home_site: int, t: Tuple, mark: MarkFn, unmark: MarkFn
    ) -> None:
        """Process the deletion of ``t`` from ``home_site``."""
        cfd = self._cfd
        if not cfd.lhs_matches(t):
            return
        index = self._indices[home_site]
        key = index.lhs_key(t)
        rhs_value = t[cfd.rhs]
        was_violation = self._violations.violates(t.tid, cfd.name)
        index.remove(key, rhs_value, t.tid)
        if not was_violation:
            # Deletions never create violations; a non-violating tuple leaves quietly.
            return
        unmark(t.tid)

        local_classes = index.group(key)
        if rhs_value in local_classes:
            # Other local tuples still carry t's (X, B) value: the global picture of
            # the group is unchanged, nothing else loses its violation status.
            return

        # t's class might now be empty globally; consult the other sites.
        values = set(local_classes)
        remote_groups: dict[int, Mapping[Any, set[Any]]] = {}
        for target in self._broadcast(home_site, t, f"{cfd.name}:del"):
            remote_groups[target] = self._indices[target].group(key)
            values.update(remote_groups[target])

        if rhs_value in values:
            # t's class survives at some other site: nothing else changes.
            return
        if len(values) == 1:
            # The group is left with a single RHS value: its members no longer
            # violate the CFD.  Unmark them wherever they live.
            for group in (local_classes, *remote_groups.values()):
                for tids in group.values():
                    for tid in tids:
                        unmark(tid)
            for target, group in remote_groups.items():
                if group:
                    self._notify(home_site, target, {"unmark": key}, f"{cfd.name}:unmark")
