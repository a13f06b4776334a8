"""Seeded ΔD-wave generator over an evolving TPC-H base relation.

The generator owns a mirror of the live database ``D`` (tid -> tuple)
and advances it as each wave is drawn, so wave ``k`` deletes and
modifies tuples that exist after waves ``0 .. k-1``.  Everything is a
deterministic function of the seed: the same seed gives the same waves.

A wave of ``size`` updates holds, in a shuffled order:

* single insertions of fresh tuples and single deletions of live tuples;
* modification pairs: delete a live tuple, then insert new values under
  the same tid (the paper's representation of a modification);
* cancelling pairs: insert a fresh tuple, then delete it in the same
  wave (normalization drops both).

The insert/delete split counts every update, pairs included.  Only the
public ``Update``/``UpdateBatch`` API of the program is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch

#: Share of a wave's updates that are insertions, pairs included.
INSERT_SHARE = 0.8


@dataclass(frozen=True)
class WaveShape:
    """What one generated wave contains."""

    size: int
    inserts: int
    deletes: int
    modification_pairs: int
    cancelling_pairs: int

    @property
    def same_tid_share(self) -> float:
        """Share of the wave's updates that belong to a same-tid pair."""
        paired = 2 * (self.modification_pairs + self.cancelling_pairs)
        return paired / self.size if self.size else 0.0


class WaveGenerator:
    """Draws ΔD waves from a seed and keeps the mirror of ``D`` current."""

    def __init__(self, generator, base, seed: int, same_tid_share: float = 0.1):
        self._gen = generator
        self._schema = base.schema
        self._rng = random.Random(f"perfbench-waves:{seed}")
        self._same_tid_share = same_tid_share
        self._live: dict = {}
        self._tids: list = []
        self._pos: dict = {}
        for t in base:
            self._add(t)
        self._next_tid = max(self._tids) + 1 if self._tids else 1

    # -- the live-set mirror ------------------------------------------------------

    def _add(self, t: Tuple) -> None:
        self._live[t.tid] = t
        self._pos[t.tid] = len(self._tids)
        self._tids.append(t.tid)

    def _remove(self, tid) -> None:
        del self._live[tid]
        i = self._pos.pop(tid)
        last = self._tids.pop()
        if last != tid:
            self._tids[i] = last
            self._pos[last] = i

    def live_tuples(self) -> list[Tuple]:
        """The current ``D``: every wave drawn so far applied to the base."""
        return list(self._live.values())

    def _fresh(self, count: int) -> list[Tuple]:
        out = self._gen.tuples(self._next_tid, count)
        self._next_tid += count
        return out

    # -- drawing ------------------------------------------------------------------

    def wave(self, size: int) -> tuple[UpdateBatch, WaveShape]:
        """The next wave of ``size`` updates, applied to the mirror."""
        rng = self._rng
        n_ins = round(size * INSERT_SHARE)
        n_del = size - n_ins
        expected_pairs = size * self._same_tid_share / 2
        n_pairs = int(expected_pairs) + (rng.random() < expected_pairs % 1)
        n_pairs = min(n_pairs, n_ins, n_del)
        n_cancel = n_pairs // 2
        n_mod = n_pairs - n_cancel
        n_single_ins = n_ins - n_pairs
        n_single_del = n_del - n_pairs

        victims = rng.sample(self._tids, n_single_del + n_mod)
        fresh = self._fresh(n_single_ins + n_cancel + n_mod)
        keyed: list[tuple[float, int, Update]] = []

        def place(*updates: Update) -> None:
            keys = sorted(rng.random() for _ in updates)
            for key, update in zip(keys, updates):
                keyed.append((key, len(keyed), update))

        for t in fresh[:n_single_ins]:
            place(Update.insert(t))
        for tid in victims[:n_single_del]:
            place(Update.delete(self._live[tid]))
        for t in fresh[n_single_ins:n_single_ins + n_cancel]:
            place(Update.insert(t), Update.delete(t))
        key = self._schema.key
        for tid, donor in zip(victims[n_single_del:], fresh[n_single_ins + n_cancel:]):
            place(Update.delete(self._live[tid]), Update.insert(Tuple(tid, {**donor, key: tid})))
        keyed.sort()
        updates = [update for _key, _n, update in keyed]

        for update in updates:
            if update.is_insert():
                self._add(update.tuple)
            else:
                self._remove(update.tid)
        shape = WaveShape(size, n_ins, n_del, n_mod, n_cancel)
        return UpdateBatch(updates), shape
