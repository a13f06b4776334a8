"""Batch updates (deltas) to a database.

The paper considers a batch update ``delta-D`` that is a list of tuple
insertions and deletions; a modification is treated as a deletion
followed by an insertion of the same tid.  ``delta-D+`` denotes the
insertions and ``delta-D-`` the deletions.  Both incremental algorithms
begin by removing updates "with the same tuple id and canceling each
other" (line 1 of incVer / incHor); :meth:`UpdateBatch.normalized`
implements that step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core.relation import Relation
from repro.core.tuples import Tuple


class UpdateKind(enum.Enum):
    """The two primitive update kinds."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class Update:
    """A single tuple insertion or deletion.

    Deletions carry the full tuple (not just the tid) so that vertical
    fragments and indices can be maintained without consulting the base
    relation; this mirrors the paper's assumption that the update stream
    identifies the affected tuples.
    """

    kind: UpdateKind
    tuple: Tuple

    @property
    def tid(self) -> Any:
        return self.tuple.tid

    def is_insert(self) -> bool:
        return self.kind is UpdateKind.INSERT

    def is_delete(self) -> bool:
        return self.kind is UpdateKind.DELETE

    @staticmethod
    def insert(t: Tuple) -> "Update":
        return Update(UpdateKind.INSERT, t)

    @staticmethod
    def delete(t: Tuple) -> "Update":
        return Update(UpdateKind.DELETE, t)


class UpdateBatch:
    """An ordered list of insertions and deletions (``delta-D``)."""

    def __init__(self, updates: Iterable[Update] = ()):
        self._updates: list[Update] = list(updates)

    # -- construction ----------------------------------------------------------

    @classmethod
    def of(cls, *updates: Update) -> "UpdateBatch":
        return cls(updates)

    @classmethod
    def inserts(cls, tuples: Iterable[Tuple]) -> "UpdateBatch":
        return cls(Update.insert(t) for t in tuples)

    @classmethod
    def deletes(cls, tuples: Iterable[Tuple]) -> "UpdateBatch":
        return cls(Update.delete(t) for t in tuples)

    @classmethod
    def modification(cls, old: Tuple, new: Tuple) -> "UpdateBatch":
        """A modification, represented as a deletion followed by an insertion."""
        return cls([Update.delete(old), Update.insert(new)])

    def append(self, update: Update) -> None:
        self._updates.append(update)

    def extend(self, updates: Iterable[Update]) -> None:
        self._updates.extend(updates)

    # -- views -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __getitem__(self, index: int) -> Update:
        return self._updates[index]

    @property
    def insertions(self) -> list[Update]:
        """``delta-D+``: the sub-list of insertions, in order."""
        return [u for u in self._updates if u.is_insert()]

    @property
    def deletions(self) -> list[Update]:
        """``delta-D-``: the sub-list of deletions, in order."""
        return [u for u in self._updates if u.is_delete()]

    def inserted_tuples(self) -> list[Tuple]:
        return [u.tuple for u in self.insertions]

    def deleted_tuples(self) -> list[Tuple]:
        return [u.tuple for u in self.deletions]

    def tids(self) -> set[Any]:
        return {u.tid for u in self._updates}

    # -- normalization -------------------------------------------------------------

    def normalized(self) -> "UpdateBatch":
        """Remove updates that cancel each other (same tid, insert/delete pairs).

        An insertion followed by a deletion of the same tid cancels out
        entirely.  A deletion followed by an insertion of the same tid
        (a modification) is preserved as the ordered pair.  Repeated
        operations of the same kind on the same tid are collapsed to the
        last occurrence.

        One pass, keyed by tid: each tid ends as nothing, ``[I]``, ``[D]``
        or ``[D, I]``, each survivor at the position of the update that
        last produced it, so the work is ``O(|delta-D|)``.
        """
        updates = self._updates
        keep = [False] * len(updates)
        surviving_insert: dict[Any, int] = {}
        surviving_delete: dict[Any, int] = {}
        for i, update in enumerate(updates):
            tid = update.tid
            if update.is_delete():
                j = surviving_insert.pop(tid, None)
                if j is not None:
                    keep[j] = False
                    continue
                same_kind = surviving_delete
            else:
                same_kind = surviving_insert
            j = same_kind.get(tid)
            if j is not None:
                keep[j] = False
            same_kind[tid] = i
            keep[i] = True
        return UpdateBatch(u for u, kept in zip(updates, keep) if kept)

    # -- application ------------------------------------------------------------------

    def apply_to(self, relation: Relation) -> Relation:
        """Return ``D (+) delta-D``: a copy of ``relation`` with the batch applied."""
        updated = relation.copy()
        for update in self._updates:
            if update.is_insert():
                updated.insert(update.tuple)
            else:
                updated.discard(update.tid)
        return updated

    def validate_against(self, relation: Relation) -> None:
        """Reject the batch up front if it would double-insert a tid.

        Tracks tid existence through the batch in order, so an
        insert-after-delete is fine while a duplicate insert raises the
        same :class:`~repro.core.relation.RelationError` the relation
        itself would — before anything has mutated.
        """
        from repro.core.relation import RelationError

        seen: dict[Any, bool] = {}
        for update in self._updates:
            tid = update.tid
            exists = seen.get(tid)
            if exists is None:
                exists = tid in relation
            if update.is_insert():
                if exists:
                    raise RelationError(
                        f"duplicate tid {tid!r} in relation {relation.schema.name!r}"
                    )
                seen[tid] = True
            else:
                seen[tid] = False

    def apply_in_place(self, relation: Relation) -> Relation:
        """Apply the batch to ``relation`` itself — ``D (+) delta-D`` without
        the whole-database copy.

        Same outcome as :meth:`apply_to`, but mutating: duplicate-tid
        insertions are rejected up front (see :meth:`validate_against`),
        so a bad batch leaves the relation untouched.  Keeping the
        relation object (and its store) alive across batches is what
        lets warm executors ship deltas instead of fragments.
        """
        self.validate_against(relation)
        for update in self._updates:
            if update.is_insert():
                relation.insert(update.tuple)
            else:
                relation.discard(update.tid)
        return relation

    def project(self, attributes: Sequence[str]) -> "UpdateBatch":
        """``pi_Xi(delta-D)``: the batch restricted to a vertical fragment's attributes."""
        return UpdateBatch(
            Update(u.kind, u.tuple.project(attributes)) for u in self._updates
        )

    def select(self, predicate) -> "UpdateBatch":
        """``sigma_Fi(delta-D)``: the batch restricted to a horizontal fragment."""
        return UpdateBatch(u for u in self._updates if predicate(u.tuple))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_ins = len(self.insertions)
        n_del = len(self.deletions)
        return f"UpdateBatch(+{n_ins}, -{n_del})"
