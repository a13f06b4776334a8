"""Pushed-down IDX-build and shipment-scan kernels over a :class:`SqlStore`.

Violation checks live in :mod:`repro.rulefuse.kernels` (one tagged
query per fused rule group).  Every kernel here is the SQL equivalent
of a tuple-at-a-time loop somewhere in the detectors and produces
*identical* results: the store's value
encoding preserves Python equality inside the engine, so filtering and
grouping rows in SQL partitions them exactly like the row backend's
dict grouping, and the decoded projections reproduce
``estimate_tuple_bytes`` byte for byte.  What moves into the engine is
the set-oriented part — pattern filters, LHS grouping, distinct-RHS
counting, semi-joins — which runs in C over data that never has to fit
on the Python heap; what stays in Python is the (much smaller) decoded
result: violating tids, shipment ``(tid, bytes)`` pairs and group
dictionaries the coordinators merge.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from repro.core.cfd import CFD
from repro.distributed.serialization import TID_BYTES, estimate_value_bytes
from repro.obs import profile as _prof
from repro.sqlstore import compiler
from repro.sqlstore.store import SqlStore, decode_value

# -- bulk index construction -----------------------------------------------------------


def build_cfd_index(index: Any, store: SqlStore) -> None:
    """Populate a :class:`~repro.indexes.idx.CFDIndex` from one scan.

    The pattern filter and projection run in the engine; the grouped
    loads happen on the decoded ``(tid, X..., B)`` rows — one query per
    rule instead of one pattern probe per tuple per rule.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    cfd = index.cfd
    n_lhs = len(cfd.lhs)
    sql, params = compiler.pattern_scan_query(store, cfd, (*cfd.lhs, cfd.rhs))
    groups: dict[tuple, dict[Any, set[Any]]] = {}
    for row in store.query_all(sql, params):
        key = tuple(decode_value(v) for v in row[1 : 1 + n_lhs])
        rhs_value = decode_value(row[1 + n_lhs])
        groups.setdefault(key, {}).setdefault(rhs_value, set()).add(
            decode_value(row[0])
        )
    for key, by_rhs in groups.items():
        index.load_group(key, by_rhs)
    if _prof.enabled:
        _prof.note("idx.build_sql", perf_counter() - _t0, len(store))


# -- shipment scans (batch baselines) ---------------------------------------------------


def horizontal_batch_scan(
    store: SqlStore, cfd: CFD, want_ship: bool
) -> tuple[list[tuple[Any, int]], dict[tuple, dict[Any, set[Any]]]]:
    """One site's scan for a general CFD in ``batHor``.

    Returns ``(shipments, groups)``: the ``(tid, bytes)`` of every
    pattern-matching tuple (when this site ships for the CFD) and the
    fragment's decoded partial LHS groups for the coordinator merge —
    the filter runs as one pushed-down query, only ``cfd.attributes``
    come back.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    needed = cfd.attributes
    n_lhs = len(cfd.lhs)
    sql, params = compiler.pattern_scan_query(store, cfd, needed)
    ship: list[tuple[Any, int]] = []
    groups: dict[tuple, dict[Any, set[Any]]] = {}
    for row in store.query_all(sql, params):
        tid = decode_value(row[0])
        values = [decode_value(v) for v in row[1:]]
        if want_ship:
            ship.append(
                (tid, TID_BYTES + sum(estimate_value_bytes(v) for v in values))
            )
        key = tuple(values[:n_lhs])
        groups.setdefault(key, {}).setdefault(values[n_lhs], set()).add(tid)
    if _prof.enabled:
        _prof.note("shipment.sql_scan", perf_counter() - _t0, len(store))
    return ship, groups


def constant_ship_scan(
    store: SqlStore, relevant: Sequence[str], constants: Mapping[str, Any]
) -> list[tuple[Any, int]]:
    """``batVer``: (tid, bytes) of tuples whose ``relevant`` projection
    matches the pattern constants (pushed-down WHERE filter)."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.constant_match_query(store, relevant, dict(constants))
    out = [
        (
            decode_value(row[0]),
            TID_BYTES + sum(estimate_value_bytes(decode_value(v)) for v in row[1:]),
        )
        for row in store.query_all(sql, params)
    ]
    if _prof.enabled:
        _prof.note("shipment.sql_constant_scan", perf_counter() - _t0, len(store))
    return out


def project_ship_scan(
    store: SqlStore, supplied: Sequence[str]
) -> list[tuple[Any, int]]:
    """``batVer``: (tid, bytes) of every tuple's ``supplied`` projection."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.projection_query(store, supplied)
    out = [
        (
            decode_value(row[0]),
            TID_BYTES + sum(estimate_value_bytes(decode_value(v)) for v in row[1:]),
        )
        for row in store.query_all(sql, params)
    ]
    if _prof.enabled:
        _prof.note("shipment.sql_project_scan", perf_counter() - _t0, len(store))
    return out


def semi_join_ship_scan(
    store: SqlStore, tids: Iterable[Any], attributes: Sequence[str] | None = None
) -> list[tuple[Any, int]]:
    """(tid, bytes) for exactly the given shipped tuples.

    Batch shipment re-scans with a known tuple set push down as a
    temp-table semi-join against the primary key (one ``executemany``
    in, one join out) instead of fetching every row to Python and
    filtering there.  Unknown tids are skipped, matching a scan that
    simply never sees them.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    out = [
        (
            decode_value(row[0]),
            TID_BYTES + sum(estimate_value_bytes(decode_value(v)) for v in row[1:]),
        )
        for row in store.select_tids(tids, attributes)
    ]
    if _prof.enabled:
        _prof.note("shipment.sql_semi_join", perf_counter() - _t0, len(store))
    return out
