"""Rule fusion: one-pass multi-CFD validation vs per-rule sweeps.

A tableau-shaped rule set — 8 CFDs sharing 3 LHS attribute lists — is
validated fused (one sweep per same-LHS group, shared grouped masks and
verdict memos, one tagged SQL query per group) and per-rule, across the
storage backends.  Fusion is the only rule path, so the per-rule
baseline checks each rule as a fused group of size 1
(``fused_columnar_masks(store, [cfd])``, ``fused_sql_violations(store,
[cfd])``).  Three measurements, written to ``BENCH_rule_fusion.json``:

* **Columnar speedup** — validation-only wall-clock of the fused
  grouped-LHS pass vs one size-1 call per rule, per database size.
  Gate (a): fused >= 2x faster at the largest swept size.

* **SQL query count** — engine queries issued (``SqlStore.query_count``)
  by the fused tagged-UNION formulation vs one size-1 query per rule,
  plus their wall-clock alongside.  Gate (b): fused issues >= 2x fewer
  queries.

* **End-to-end wave parity** — an ``incHor`` session streams the same
  update batch on rows, columnar and sql; each backend's violation sets
  and ΔV must equal the naive per-rule oracle of ``tests/oracle.py``,
  and the backends' violations, ΔV and shipment counters must be
  identical to each other.  Gate (c): any divergence fails.

Run directly: ``python benchmarks/bench_rule_fusion.py`` (``--sizes``
and ``--rounds`` shrink or grow the sweep; ``--no-gate`` reports without
failing).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import bench_utils as bu
from repro.columnar.store import column_store_of
from repro.core.cfd import CFD
from repro.core.violations import diff_violations
from repro.engine.session import session
from repro.rulefuse import compile_rule_set, fused_columnar_masks, fused_sql_violations
from repro.sqlstore import sql_store_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import naive_detect  # noqa: E402

SIZES = (2000, 8000, 24000)
PARITY_BASE = 400
PARITY_UPDATES = 120
PARITY_SITES = 4
GATE_SPEEDUP = 2.0
GATE_QUERY_FACTOR = 2.0


def fusion_cfds() -> list[CFD]:
    """8 CFDs over 3 distinct LHS lists on the TPC-H-style schema.

    Each group mixes fully-variable rules with pattern-pinned variants,
    the tableau shape fused compilation exists for: k pattern rows over
    one LHS list cost one sweep instead of k.
    """
    return [
        # group 1: LHS (cname,) — 3 rules
        CFD(("cname",), "cnation", {}, name="cname_nation"),
        CFD(("cname",), "csegment", {}, name="cname_segment"),
        CFD(("cname",), "cnation", {"cname": "Customer#00005"}, name="cname_nation_p"),
        # group 2: LHS (cnation, csegment, shipmode) — 3 rules
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode", {},
            name="tax_all",
        ),
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode", {"shipmode": "AIR"},
            name="tax_air",
        ),
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode",
            {"cnation": "FRANCE", "csegment": "BUILDING"},
            name="tax_fr_building",
        ),
        # group 3: LHS (snation, shipmode, linestatus) — 2 rules
        CFD(
            ("snation", "shipmode", "linestatus"), "shipband", {},
            name="band_all",
        ),
        CFD(
            ("snation", "shipmode", "linestatus"), "shipband", {"snation": "GERMANY"},
            name="band_de",
        ),
    ]


# -- gate (a): columnar validation speedup ----------------------------------------------


def per_rule_masks(store, cfds: list[CFD]) -> list[int]:
    """The per-rule baseline: each rule checked as a fused group of size 1."""
    return [fused_columnar_masks(store, [cfd])[0] for cfd in cfds]


def per_rule_sql(store, cfds: list[CFD]) -> list[set]:
    """The per-rule baseline: one size-1 tagged query per rule."""
    return [fused_sql_violations(store, [cfd])[0] for cfd in cfds]


def measure_columnar(n: int, cfds: list[CFD], rounds: int) -> dict:
    """Best-of-``rounds`` validation seconds, fused vs one pass per rule."""
    relation = bu.tpch_relation(n).with_storage("columnar")
    store = column_store_of(relation)
    # Warm the shared pattern-test encodings so neither side pays the
    # one-off compilation inside the timed region.
    fused_masks = fused_columnar_masks(store, cfds)
    rule_masks = per_rule_masks(store, cfds)
    assert fused_masks == rule_masks, "fused columnar masks diverge from per-rule"

    best = {"fused": float("inf"), "per_rule": float("inf")}
    for _ in range(rounds):
        start = time.perf_counter()
        fused_masks = fused_columnar_masks(store, cfds)
        best["fused"] = min(best["fused"], time.perf_counter() - start)

        start = time.perf_counter()
        rule_masks = per_rule_masks(store, cfds)
        best["per_rule"] = min(best["per_rule"], time.perf_counter() - start)

        assert fused_masks == rule_masks
    return best


# -- gate (b): SQL query count ----------------------------------------------------------


def measure_sql(n: int, cfds: list[CFD], rounds: int) -> dict:
    """Queries issued and best-of-``rounds`` seconds, fused vs per-rule."""
    relation = bu.tpch_relation(n).with_storage("sql")
    store = sql_store_of(relation)
    # Warm the statement cache; count queries on a steady-state round.
    fused = fused_sql_violations(store, cfds)
    per_rule = per_rule_sql(store, cfds)
    assert fused == per_rule, "fused SQL violations diverge"

    before = store.query_count
    fused_sql_violations(store, cfds)
    fused_queries = store.query_count - before
    before = store.query_count
    per_rule_sql(store, cfds)
    per_rule_queries = store.query_count - before

    best = {"fused": float("inf"), "per_rule": float("inf")}
    for _ in range(rounds):
        start = time.perf_counter()
        fused_sql_violations(store, cfds)
        best["fused"] = min(best["fused"], time.perf_counter() - start)
        start = time.perf_counter()
        per_rule_sql(store, cfds)
        best["per_rule"] = min(best["per_rule"], time.perf_counter() - start)
    best["fused_queries"] = fused_queries
    best["per_rule_queries"] = per_rule_queries
    return best


# -- gate (c): end-to-end wave parity ---------------------------------------------------


def measure_parity(cfds: list[CFD]) -> tuple[list[dict], list[str]]:
    """Stream one update wave on every backend; compare to the oracle and
    across backends."""
    generator = bu.tpch()
    relation = bu.tpch_relation(PARITY_BASE)
    updates = bu.tpch_updates(PARITY_BASE, PARITY_UPDATES, insert_fraction=0.6)
    before = naive_detect(cfds, relation)
    after = naive_detect(cfds, updates.apply_to(relation))
    delta = diff_violations(before, after)
    expected = {
        "violations": after.as_dict(),
        "added": delta.added,
        "removed": delta.removed,
    }
    records, failures, outcomes = [], [], {}
    for storage in ("rows", "columnar", "sql"):
        sess = (
            session(relation)
            .partition(generator.horizontal_partitioner(PARITY_SITES))
            .rules(cfds)
            .strategy("incHor")
            .storage(storage)
            .build()
        )
        delta = sess.apply(updates)
        stats = sess.network.stats()
        outcome = outcomes[storage] = {
            "violations": sess.violations.as_dict(),
            "added": delta.added,
            "removed": delta.removed,
            "bytes": stats.bytes,
            "messages": stats.messages,
            "units_by_kind": {str(k): v for k, v in stats.units_by_kind.items()},
        }
        sess.close()
        identical = {key: outcome[key] for key in expected} == expected
        records.append({
            "kind": "parity", "storage": storage, "identical": identical,
            "violating_tuples": len(outcome["violations"]),
            "bytes": outcome["bytes"],
            "messages": outcome["messages"],
        })
        if not identical:
            failures.append(f"{storage}: wave outcome diverges from the oracle")
        if outcome != outcomes["rows"]:
            failures.append(f"{storage}: wave outcome or counters diverge from rows")
    return records, failures


# -- entry point ------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--no-gate", action="store_true")
    args = parser.parse_args(argv)

    cfds = fusion_cfds()
    groups = compile_rule_set(cfds)
    assert len(cfds) >= 8 and len(groups) <= 3
    print(f"rule set: {len(cfds)} CFDs in {len(groups)} fused groups "
          f"({[len(g) for g in groups]} rules per group)")

    failures, records = [], []

    print("columnar validation, fused vs per-rule:")
    speedups = {}
    for n in args.sizes:
        cell = measure_columnar(n, cfds, args.rounds)
        speedup = cell["per_rule"] / cell["fused"]
        speedups[n] = speedup
        print(f"  n={n:>6}  fused {cell['fused'] * 1e3:7.2f} ms  "
              f"per-rule {cell['per_rule'] * 1e3:7.2f} ms  {speedup:4.2f}x")
        records.append({
            "kind": "columnar", "n_tuples": n,
            "fused_seconds": cell["fused"],
            "per_rule_seconds": cell["per_rule"],
            "speedup": speedup,
        })
    largest = max(speedups)
    if speedups[largest] < GATE_SPEEDUP:
        failures.append(
            f"columnar fused only {speedups[largest]:.2f}x at n={largest}, "
            f"below the {GATE_SPEEDUP:.1f}x gate"
        )

    print("sql validation, fused vs per-rule:")
    query_factor = None
    for n in args.sizes:
        cell = measure_sql(n, cfds, args.rounds)
        query_factor = cell["per_rule_queries"] / cell["fused_queries"]
        print(f"  n={n:>6}  fused {cell['fused_queries']} queries "
              f"({cell['fused'] * 1e3:7.2f} ms)  per-rule {cell['per_rule_queries']} "
              f"queries ({cell['per_rule'] * 1e3:7.2f} ms)")
        records.append({
            "kind": "sql", "n_tuples": n,
            "fused_queries": cell["fused_queries"],
            "per_rule_queries": cell["per_rule_queries"],
            "query_factor": query_factor,
            "fused_seconds": cell["fused"],
            "per_rule_seconds": cell["per_rule"],
        })
    if query_factor is None or query_factor < GATE_QUERY_FACTOR:
        failures.append(
            f"fused SQL issues only {query_factor:.2f}x fewer queries, below "
            f"the {GATE_QUERY_FACTOR:.1f}x gate"
        )

    print("end-to-end wave parity (incHor, one wave per backend, vs oracle):")
    parity_records, parity_failures = measure_parity(cfds)
    records.extend(parity_records)
    failures.extend(parity_failures)
    for record in parity_records:
        status = "ok" if record["identical"] else "FAIL"
        print(f"  [{status}] {record['storage']}: "
              f"{record['violating_tuples']} violating tuples, "
              f"{record['bytes']}B / {record['messages']} messages")

    path = bu.write_bench_json("rule_fusion", records, extra={
        "n_cfds": len(cfds),
        "n_groups": len(groups),
        "sizes": list(args.sizes),
        "gates": {
            "columnar_speedup": {"target": GATE_SPEEDUP, "at_largest": speedups[largest]},
            "sql_query_factor": {"target": GATE_QUERY_FACTOR, "value": query_factor},
            "parity": {"results": parity_records},
        },
    })
    print(f"benchmark results written to {path}")
    for failure in failures:
        print(f"GATE FAILURE: {failure}")
    return 1 if failures and not args.no_gate else 0


if __name__ == "__main__":
    raise SystemExit(main())
