"""Vectorized IDX-build and shipment-scan kernels over a :class:`ColumnStore`.

Violation checks live in :mod:`repro.rulefuse.kernels` (one
grouped-LHS pass per fused rule group, reusing the compiled pattern
tests below).  Every kernel here is the column-sweep equivalent of a
tuple-at-a-time loop somewhere in the detectors, and produces
*bit-identical* results: the dictionary encoding preserves ``==``
semantics, so grouping rows by code keys partitions them exactly like
grouping tuples by value keys, and the cached per-code wire sizes
reproduce ``estimate_tuple_bytes`` byte for byte.  The shared primitive
is :meth:`ColumnStore.grouped_rows` — the LHS equivalence classes of a
relation are computed once per attribute list and reused by every CFD
over those attributes (IDX builds and shipment scans alike), instead of
once per tuple per CFD as in the row backend.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

from repro.core.cfd import CFD, UNNAMED
from repro.distributed.serialization import TID_BYTES
from repro.columnar.store import ColumnStore
from repro.obs import profile as _prof

#: Sentinel for "a pattern constant never occurs in this store".
_UNSATISFIABLE = object()

#: Per-store cache of compiled pattern tests: ``store -> {cfd: (tests,
#: generations)}``.  ``generations`` snapshots the constant attributes'
#: dictionary generations and is consulted only for
#: :data:`_UNSATISFIABLE` entries — a missing constant may gain a code
#: when its dictionary grows, while positive entries never invalidate
#: (dictionaries are append-only, so assigned codes are stable for the
#: lifetime of the store).
_PATTERN_TEST_CACHE: "WeakKeyDictionary[ColumnStore, dict[CFD, tuple[Any, tuple[tuple[str, int], ...]]]]" = (
    WeakKeyDictionary()
)


def _compile_pattern_tests(
    store: ColumnStore, cfd: CFD
) -> "list[tuple[int, int]] | object":
    pattern = cfd.pattern
    tests: list[tuple[int, int]] = []
    for i, a in enumerate(cfd.lhs):
        entry = pattern.entry(a)
        if entry is UNNAMED:
            continue
        code = store.dictionary(a).code_of(entry)
        if code is None:
            return _UNSATISFIABLE
        tests.append((i, code))
    return tests


def _pattern_tests(store: ColumnStore, cfd: CFD) -> "list[tuple[int, int]] | object":
    """The positional ``(index, code)`` tests a group key must pass to
    match the CFD's LHS pattern constants — :data:`_UNSATISFIABLE` when a
    constant value never occurs in the store (no row can match).

    Compiled once per (store, CFD) and cached: repeated waves stop
    re-encoding the tableau constants on every sweep.  Unsatisfiable
    results re-check when any constant attribute's dictionary generation
    changed (new codes may have made the constant reachable)."""
    per_store = _PATTERN_TEST_CACHE.get(store)
    if per_store is None:
        per_store = _PATTERN_TEST_CACHE[store] = {}
    cached = per_store.get(cfd)
    if cached is not None:
        tests, generations = cached
        if tests is not _UNSATISFIABLE or all(
            store.dictionary(a).generation == generation
            for a, generation in generations
        ):
            return tests
    tests = _compile_pattern_tests(store, cfd)
    if tests is _UNSATISFIABLE:
        generations = tuple(
            (a, store.dictionary(a).generation)
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        )
    else:
        generations = ()
    per_store[cfd] = (tests, generations)
    return tests


def _matching_group_items(
    store: ColumnStore, cfd: CFD
) -> Iterable[tuple[Any, list[int]]]:
    """The ``(code_key, rows)`` groups over ``cfd.lhs`` whose key matches
    the CFD's LHS pattern constants (all groups for an all-wildcard LHS)."""
    lhs = cfd.lhs
    groups = store.grouped_rows(lhs)
    tests = _pattern_tests(store, cfd)
    if tests is _UNSATISFIABLE:
        return ()
    if not tests:
        return groups.items()
    if len(lhs) == 1:
        code = tests[0][1]
        rows = groups.get(code)
        return ((code, rows),) if rows is not None else ()
    return (
        (key, rows)
        for key, rows in groups.items()
        if all(key[i] == code for i, code in tests)
    )


# -- bulk index construction -----------------------------------------------------------


def build_cfd_index(index: Any, store: ColumnStore) -> None:
    """Populate a :class:`~repro.indexes.idx.CFDIndex` from encoded columns.

    The grouped LHS keys are computed once for the whole relation (and
    shared with every other kernel over the same attributes), then each
    group is decoded once and loaded wholesale — instead of re-resolving
    pattern entries and building a key tuple per tuple.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    cfd = index.cfd
    rhs_col = store.codes(cfd.rhs)
    rhs_dict = store.dictionary(cfd.rhs)
    tid_at = store.tid_of_row
    for key, rows in _matching_group_items(store, cfd):
        by_rhs: dict[int, set[Any]] = {}
        for r in rows:
            code = rhs_col[r]
            bucket = by_rhs.get(code)
            if bucket is None:
                by_rhs[code] = {tid_at(r)}
            else:
                bucket.add(tid_at(r))
        index.load_group(
            store.decode_key(cfd.lhs, key),
            {rhs_dict.value(code): tids for code, tids in by_rhs.items()},
        )
    if _prof.enabled:
        _prof.note("idx.build_columnar", perf_counter() - _t0, len(store))


# -- shipment scans (batch baselines) ---------------------------------------------------


def horizontal_batch_scan(
    store: ColumnStore, cfd: CFD, want_ship: bool, compact: bool = False
) -> tuple[Any, Any]:
    """One site's scan for a general CFD in ``batHor``.

    Returns ``(shipments, groups)``: the ``(tid, bytes)`` of every
    pattern-matching tuple (when this site ships for the CFD) and the
    fragment's decoded partial LHS groups for the coordinator merge —
    the columnar twin of the per-tuple loop in ``_site_batch_task``.

    With ``compact=True`` nothing is decoded and *nothing leaves row
    space*: the shipment is one row bitset (the coordinator re-derives
    each row's tid and wire-size estimate from its own copy — values at
    row ``r`` are identical on both sides), and the groups flatten to
    one ``(LHS key, RHS value)`` bucket each, encoded as a bare row
    index for the common singleton bucket and a row bitset otherwise.
    That is the wire form a warm worker sends back: a replica built
    from the coordinator's full physical export plus its journal deltas
    assigns identical row indices (codes may drift — fragment
    dictionaries are shared across stores coordinator-side — which is
    why no code crosses the pipe), so the coordinator recovers each
    bucket's key and RHS value from any member row of its own copy of
    the fragment (see ``HorizontalBatchDetector.detect``).
    """
    if _prof.enabled:
        _t0 = perf_counter()
    rhs_col = store.codes(cfd.rhs)
    if compact:
        ship_mask = 0
        singles: list[int] = []
        multis: list[int] = []
        for _key, rows in _matching_group_items(store, cfd):
            by_code: dict[int, int] = {}
            for r in rows:
                bit = 1 << r
                if want_ship:
                    ship_mask |= bit
                code = rhs_col[r]
                by_code[code] = by_code.get(code, 0) | bit
            for mask in by_code.values():
                if mask & (mask - 1):
                    multis.append(mask)
                else:
                    singles.append(mask.bit_length() - 1)
        if _prof.enabled:
            _prof.note("shipment.batch_scan", perf_counter() - _t0, len(store))
        return ship_mask, (singles, multis)
    needed = cfd.attributes
    col_tables = [(store.codes(a), store.dictionary(a).byte_sizes()) for a in needed]
    ship: list[tuple[Any, int]] = []
    rhs_dict = store.dictionary(cfd.rhs)
    tids = store.tids_list()
    groups_out: dict[tuple[Any, ...], dict[Any, set[Any]]] = {}
    for key, rows in _matching_group_items(store, cfd):
        by_rhs: dict[int, set[Any]] = {}
        for r in rows:
            tid = tids[r]
            if want_ship:
                nbytes = TID_BYTES
                for col, table in col_tables:
                    nbytes += table[col[r]]
                ship.append((tid, nbytes))
            code = rhs_col[r]
            bucket = by_rhs.get(code)
            if bucket is None:
                by_rhs[code] = {tid}
            else:
                bucket.add(tid)
        groups_out[store.decode_key(cfd.lhs, key)] = {
            rhs_dict.value(code): tids for code, tids in by_rhs.items()
        }
    if _prof.enabled:
        _prof.note("shipment.batch_scan", perf_counter() - _t0, len(store))
    return ship, groups_out


def constant_ship_scan(
    store: ColumnStore, relevant: Sequence[str], constants: Mapping[str, Any]
) -> list[tuple[Any, int]]:
    """``batVer``: (tid, bytes) of tuples whose ``relevant`` projection
    matches the pattern constants (column sweep, cached byte sizes)."""
    tests: list[tuple[list[int], int]] = []
    for a in relevant:
        if a in constants:
            code = store.dictionary(a).code_of(constants[a])
            if code is None:
                return []
            tests.append((store.codes(a), code))
    if _prof.enabled:
        _t0 = perf_counter()
    byte_tables = [(store.codes(a), store.dictionary(a).byte_sizes()) for a in relevant]
    tid_at = store.tid_of_row
    out: list[tuple[Any, int]] = []
    for r in store.iter_rows():
        if all(col[r] == code for col, code in tests):
            nbytes = TID_BYTES
            for col, table in byte_tables:
                nbytes += table[col[r]]
            out.append((tid_at(r), nbytes))
    if _prof.enabled:
        _prof.note("shipment.constant_scan", perf_counter() - _t0, len(store))
    return out


def project_ship_scan(
    store: ColumnStore, supplied: Sequence[str]
) -> list[tuple[Any, int]]:
    """``batVer``: (tid, bytes) of every tuple's ``supplied`` projection."""
    if _prof.enabled:
        _t0 = perf_counter()
    byte_tables = [(store.codes(a), store.dictionary(a).byte_sizes()) for a in supplied]
    tid_at = store.tid_of_row
    out: list[tuple[Any, int]] = []
    for r in store.iter_rows():
        nbytes = TID_BYTES
        for col, table in byte_tables:
            nbytes += table[col[r]]
        out.append((tid_at(r), nbytes))
    if _prof.enabled:
        _prof.note("shipment.project_scan", perf_counter() - _t0, len(store))
    return out
