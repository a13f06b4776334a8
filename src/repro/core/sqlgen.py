"""SQL-based centralized CFD detection.

Section 2.3 of the paper recalls that when ``D`` sits in a centralized
DBMS, *two SQL queries* per pattern tableau suffice to find
``V(Sigma, D)``, and that those queries can be generated automatically
(Fan et al., TODS 2008).  This module implements that technique against
SQLite (from the standard library):

* :func:`pattern_table_rows` materialises a tableau's pattern tuples as
  rows of a pattern table, encoding the unnamed variable as ``'_'``;
* :func:`constant_violation_query` / :func:`variable_violation_query`
  generate the two queries — the first catches single-tuple violations
  of constant pattern rows, the second catches pairs of tuples that
  agree on the LHS under a variable pattern row but differ on the RHS;
* :class:`SQLDetector` loads a relation and the pattern tables into an
  in-memory SQLite database, runs the generated queries and returns the
  same :class:`~repro.core.violations.ViolationSet` the in-memory
  centralized detector produces (the test-suite checks the equivalence).

It serves both as documentation of the SQL technique the paper builds on
and as an independent oracle for the other detectors.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable

from repro.core.cfd import CFD, Tableau, UNNAMED, merge_into_tableaux
from repro.core.relation import Relation
from repro.core.violations import ViolationSet

#: How the unnamed variable '_' is encoded inside pattern tables.
WILDCARD = "_"


def _quote_identifier(name: str) -> str:
    """Quote an identifier for SQLite (attribute names may collide with keywords)."""
    return '"' + name.replace('"', '""') + '"'


def _encode(value: Any) -> str:
    """Values are compared as text so that data and pattern columns align."""
    return str(value)


def create_data_table_sql(relation_name: str, attributes: Iterable[str], key: str) -> str:
    """``CREATE TABLE`` statement for the data relation (all columns as TEXT)."""
    columns = ", ".join(f"{_quote_identifier(a)} TEXT" for a in attributes)
    return (
        f"CREATE TABLE {_quote_identifier(relation_name)} "
        f"({columns}, PRIMARY KEY ({_quote_identifier(key)}))"
    )


def create_pattern_table_sql(table_name: str, attributes: Iterable[str]) -> str:
    """``CREATE TABLE`` statement for a tableau's pattern table."""
    columns = ", ".join(f"{_quote_identifier(a)} TEXT" for a in attributes)
    return f"CREATE TABLE {_quote_identifier(table_name)} ({columns})"


def pattern_table_rows(tableau: Tableau) -> list[tuple[str, ...]]:
    """The pattern tuples of a tableau as rows, wildcards encoded as ``'_'``."""
    rows = []
    for pattern in tableau.rows:
        row = []
        for attr in (*tableau.lhs, tableau.rhs):
            entry = pattern.entry(attr)
            row.append(WILDCARD if entry is UNNAMED else _encode(entry))
        rows.append(tuple(row))
    return rows


def _match_conditions(data_alias: str, pattern_alias: str, attributes: Iterable[str]) -> str:
    """The ``t[A] ~ tp[A]`` conjunction: equal or the pattern entry is '_'."""
    clauses = []
    for attr in attributes:
        column = _quote_identifier(attr)
        clauses.append(
            f"({pattern_alias}.{column} = '{WILDCARD}' "
            f"OR {data_alias}.{column} = {pattern_alias}.{column})"
        )
    return " AND ".join(clauses)


def constant_violation_query(relation_name: str, pattern_table: str, tableau: Tableau, key: str) -> str:
    """Single-tuple violations of the tableau's *constant* pattern rows.

    A tuple matching a pattern row on the LHS whose RHS value differs
    from the row's RHS constant violates the CFD on its own.
    """
    t, p = "t", "p"
    rhs = _quote_identifier(tableau.rhs)
    return (
        f"SELECT DISTINCT {t}.{_quote_identifier(key)} AS tid\n"
        f"FROM {_quote_identifier(relation_name)} {t}, {_quote_identifier(pattern_table)} {p}\n"
        f"WHERE {_match_conditions(t, p, tableau.lhs)}\n"
        f"  AND {p}.{rhs} <> '{WILDCARD}'\n"
        f"  AND {t}.{rhs} <> {p}.{rhs}"
    )


def variable_violation_query(relation_name: str, pattern_table: str, tableau: Tableau, key: str) -> str:
    """Pair violations of the tableau's *variable* pattern rows.

    A tuple matching a variable pattern row violates the CFD when some
    other tuple agrees with it on every LHS attribute but differs on the
    RHS.
    """
    t, t2, p = "t", "t2", "p"
    rhs = _quote_identifier(tableau.rhs)
    same_lhs = " AND ".join(
        f"{t2}.{_quote_identifier(a)} = {t}.{_quote_identifier(a)}" for a in tableau.lhs
    )
    return (
        f"SELECT DISTINCT {t}.{_quote_identifier(key)} AS tid\n"
        f"FROM {_quote_identifier(relation_name)} {t}, {_quote_identifier(pattern_table)} {p}\n"
        f"WHERE {_match_conditions(t, p, tableau.lhs)}\n"
        f"  AND {p}.{rhs} = '{WILDCARD}'\n"
        f"  AND EXISTS (\n"
        f"    SELECT 1 FROM {_quote_identifier(relation_name)} {t2}\n"
        f"    WHERE {same_lhs} AND {t2}.{rhs} <> {t}.{rhs}\n"
        f"  )"
    )


class SQLDetector:
    """Centralized CFD detection by running the two generated queries in SQLite."""

    def __init__(self, cfds: Iterable[CFD], relation_name: str = "data"):
        self._cfds = list(cfds)
        self._tableaux = merge_into_tableaux(self._cfds)
        self._relation_name = relation_name

    @property
    def tableaux(self) -> list[Tableau]:
        return list(self._tableaux)

    def queries_for(self, tableau: Tableau, key: str) -> tuple[str, str]:
        """The (constant, variable) query pair for one tableau."""
        pattern_table = self._pattern_table_name(tableau)
        return (
            constant_violation_query(self._relation_name, pattern_table, tableau, key),
            variable_violation_query(self._relation_name, pattern_table, tableau, key),
        )

    @staticmethod
    def _pattern_table_name(tableau: Tableau) -> str:
        return f"tp_{tableau.name}" if tableau.name else "tp"

    # -- loading ------------------------------------------------------------------------

    def _load(self, connection: sqlite3.Connection, relation: Relation) -> None:
        schema = relation.schema
        attributes = schema.attribute_names
        connection.execute(
            create_data_table_sql(self._relation_name, attributes, schema.key)
        )
        placeholders = ", ".join("?" for _ in attributes)
        connection.executemany(
            f"INSERT INTO {_quote_identifier(self._relation_name)} VALUES ({placeholders})",
            [tuple(_encode(t[a]) for a in attributes) for t in relation],
        )
        for tableau in self._tableaux:
            table = self._pattern_table_name(tableau)
            columns = (*tableau.lhs, tableau.rhs)
            connection.execute(create_pattern_table_sql(table, columns))
            row_placeholders = ", ".join("?" for _ in columns)
            connection.executemany(
                f"INSERT INTO {_quote_identifier(table)} VALUES ({row_placeholders})",
                pattern_table_rows(tableau),
            )

    # -- detection ------------------------------------------------------------------------------

    def detect(self, relation: Relation) -> ViolationSet:
        """Run the two queries per tableau and mark violations per original CFD.

        The queries report violating tids per tableau; marks for the
        individual CFDs of the tableau are recovered by re-checking which
        pattern rows the tuple actually falls under.  The tableau's CFDs
        share the embedded FD, so that re-check is one fused pass
        (:func:`~repro.rulefuse.fused_violations`).
        """
        schema = relation.schema
        violations = ViolationSet()
        with sqlite3.connect(":memory:") as connection:
            self._load(connection, relation)
            tid_by_text = {_encode(t.tid): t.tid for t in relation}
            for tableau in self._tableaux:
                constant_sql, variable_sql = self.queries_for(tableau, schema.key)
                flagged: set[Any] = set()
                for sql in (constant_sql, variable_sql):
                    for (text_tid,) in connection.execute(sql):
                        flagged.add(tid_by_text[text_tid])
                if not flagged:
                    continue
                cfds = [c for c in self._cfds if c.lhs == tableau.lhs and c.rhs == tableau.rhs]
                from repro.rulefuse import fused_violations

                for cfd, tids in zip(cfds, fused_violations(cfds, relation)):
                    for tid in tids:
                        if tid in flagged:
                            violations.add(tid, cfd.name)
        return violations


def detect_violations_sql(cfds: Iterable[CFD], relation: Relation) -> ViolationSet:
    """Convenience wrapper mirroring :func:`repro.core.detector.detect_violations`."""
    return SQLDetector(cfds).detect(relation)
