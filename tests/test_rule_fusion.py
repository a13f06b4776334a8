"""Rule-fusion parity: the fused rule path agrees with an independent oracle.

Fused rule-set compilation (one sweep per same-LHS group) is the only
rule path; a rule whose LHS list no other rule shares is a group of
size 1.  For every strategy — the full registry plus ``auto`` — on
every storage backend (rows, columnar, sql) the violation set after
setup, the violation set after each wave and each wave's ΔV must equal
the deliberately naive per-rule oracle of ``tests/oracle.py``, including
across mid-stream scale and rebalance events.  Matching dependencies
have no fused path; their reference is the exhaustive pairwise MD
detector.  Shipment-counter identity across backends is covered by
``test_storage_parity`` and ``test_sql_parity``.

The grouping itself is exercised by an 8-rule tableau sharing 3 LHS
lists, the SQL backend must issue one query per group instead of one
per rule, and a hypothesis suite checks the fused kernels of every
backend group by group on generated rule sets that mix singleton and
shared-LHS groups, constant and variable members, wildcards and pattern
constants absent from the data.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cfd import CFD, split_local_general
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import diff_violations
from repro.engine.session import session
from repro.rulefuse import (
    compile_rule_set,
    fused_sql_violations,
    fused_violations,
    n_fused_groups,
)
from repro.similarity.detector import detect_md_violations
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch
from repro.sqlstore.store import sql_store_of
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

from oracle import naive_detect, row_violations

SEED = 17
N_BASE = 100
N_UPDATES = 50
N_CFDS = 6
N_SITES = 3

#: Every registered strategy (the MD detectors have no fused path and
#: are checked against the exhaustive MD detector) plus ``auto`` on both
#: partitionings.
STRATEGIES = [
    ("incVer", "vertical"),
    ("batVer", "vertical"),
    ("ibatVer", "vertical"),
    ("optVer", "vertical"),
    ("incHor", "horizontal"),
    ("batHor", "horizontal"),
    ("ibatHor", "horizontal"),
    ("centralized", "single"),
    ("md", "single"),
    ("incMD", "single"),
    ("auto", "vertical"),
    ("auto", "horizontal"),
]

STORAGES = ["rows", "columnar", "sql"]


@pytest.fixture(scope="module")
def generator():
    return TPCHGenerator(seed=SEED)


@pytest.fixture(scope="module")
def relation(generator):
    return generator.relation(N_BASE)


@pytest.fixture(scope="module")
def cfds(generator):
    return list(generate_cfds(generator.fd_specs(), N_CFDS, seed=SEED))


@pytest.fixture(scope="module")
def updates(generator, relation):
    return generate_updates(relation, generator, N_UPDATES, seed=SEED)


@pytest.fixture(scope="module")
def mds():
    return [
        MatchingDependency(
            [("pname", NormalizedStringMatch())], ["sname"], name="md_name"
        )
    ]


def reference(rules, tuples):
    """The independent reference: the naive CFD oracle, or the exhaustive
    (unblocked) pairwise detector for matching dependencies."""
    if rules and isinstance(rules[0], MatchingDependency):
        return detect_md_violations(rules, tuples, use_blocking=False)
    return naive_detect(rules, tuples)


def run_strategy(strategy, partitioning, storage, generator, relation, cfds, mds, updates):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    sess = builder.rules(rules).strategy(strategy).storage(storage).build()
    delta = sess.apply(updates)
    sess.close()
    return {
        "initial": sess.initial_violations.as_dict(),
        "violations": sess.violations.as_dict(),
        "added": delta.added,
        "removed": delta.removed,
    }


@pytest.fixture(scope="module")
def oracle_outcomes(relation, cfds, mds, updates):
    """The reference outcome per rule language (CFDs, MDs)."""
    final = updates.apply_to(relation)
    out = {}
    for kind, rules in (("cfd", cfds), ("md", mds)):
        before = reference(rules, relation)
        after = reference(rules, final)
        delta = diff_violations(before, after)
        out[kind] = {
            "initial": before.as_dict(),
            "violations": after.as_dict(),
            "added": delta.added,
            "removed": delta.removed,
        }
    return out


class TestFusionParity:
    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    def test_fused_matches_per_rule(
        self, strategy, partitioning, storage, oracle_outcomes,
        generator, relation, cfds, mds, updates,
    ):
        outcome = run_strategy(
            strategy, partitioning, storage, generator, relation, cfds, mds, updates,
        )
        kind = "md" if strategy in ("md", "incMD") else "cfd"
        assert outcome == oracle_outcomes[kind]

    def test_reference_outcomes_are_not_vacuous(self, oracle_outcomes):
        for outcome in oracle_outcomes.values():
            assert outcome["violations"]
        assert oracle_outcomes["cfd"]["added"] or oracle_outcomes["cfd"]["removed"]


# -- mid-stream elasticity ----------------------------------------------------------------

WAVE_SIZES = [(18, 41), (24, 42), (16, 43)]
SCALE_OUT = 5
SCALE_IN = 2

WAVE_STRATEGIES = [
    ("incVer", "vertical"),
    ("incHor", "horizontal"),
    ("auto", "horizontal"),
]


@pytest.fixture(scope="module")
def waves(generator, relation):
    batches = []
    current = relation
    for size, seed in WAVE_SIZES:
        batch = generate_updates(
            current, generator, size, insert_fraction=0.6, seed=seed, skew=1.2
        )
        batches.append(batch)
        current = batch.apply_to(current)
    return batches


def _viol_key(violations):
    return {tid: frozenset(violations.cfds_of(tid)) for tid in violations.tids()}


def _delta_key(delta):
    return (
        {tid: frozenset(names) for tid, names in delta.added.items()},
        {tid: frozenset(names) for tid, names in delta.removed.items()},
    )


def run_waves(strategy, partitioning, storage, generator, relation, cfds, waves):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    else:
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    sess = builder.rules(cfds).strategy(strategy).storage(storage).build()
    records = []
    with sess:
        for i, wave in enumerate(waves):
            if i == 1:
                sess.scale(sites=SCALE_OUT)
            if i == 2:
                if partitioning == "horizontal":
                    sess.rebalance()
                sess.scale(sites=SCALE_IN)
            delta = sess.apply(wave)
            records.append((_delta_key(delta), _viol_key(sess.violations)))
    return records


@pytest.fixture(scope="module")
def oracle_waves(relation, cfds, waves):
    """Per wave: the oracle's ΔV and violation set."""
    records = []
    current = relation
    before = naive_detect(cfds, current)
    for wave in waves:
        current = wave.apply_to(current)
        after = naive_detect(cfds, current)
        records.append((_delta_key(diff_violations(before, after)), _viol_key(after)))
        before = after
    return records


class TestFusionElasticityParity:
    @pytest.mark.parametrize("storage", ["rows", "columnar", "sql"])
    @pytest.mark.parametrize("strategy,partitioning", WAVE_STRATEGIES)
    def test_scaled_streams_stay_identical(
        self, strategy, partitioning, storage, generator, relation, cfds, waves,
        oracle_waves,
    ):
        records = run_waves(strategy, partitioning, storage, generator, relation, cfds, waves)
        assert records == oracle_waves


# -- shared-LHS tableau -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tableau_schema():
    return Schema("t", ["tid", "a", "b", "c", "d", "e"], key="tid")


@pytest.fixture(scope="module")
def tableau_cfds():
    """8 rules over 3 distinct LHS lists: a tableau-shaped rule set."""
    return [
        CFD(("a", "b"), "c", {}, name="ab_c"),
        CFD(("a", "b"), "d", {}, name="ab_d"),
        CFD(("a", "b"), "e", {"a": "a1"}, name="ab_e_pinned"),
        CFD(("a",), "d", {}, name="a_d"),
        CFD(("a",), "e", {"a": "a2", "e": "e0"}, name="a_e_const"),
        CFD(("a",), "c", {}, name="a_c"),
        CFD(("b", "c"), "e", {}, name="bc_e"),
        CFD(("b", "c"), "d", {"b": "b3"}, name="bc_d_pinned"),
    ]


@pytest.fixture(scope="module")
def tableau_relation(tableau_schema):
    rows = [
        Tuple(
            i,
            {
                "tid": i,
                "a": f"a{i % 7}",
                "b": f"b{i % 5}",
                "c": f"c{(i // 2) % 6}",
                "d": f"d{(i // 3) % 4}",
                "e": f"e{i % 3}",
            },
        )
        for i in range(240)
    ]
    return Relation(tableau_schema, rows)


@pytest.fixture(scope="module")
def tableau_updates():
    return UpdateBatch(
        [
            Update.insert(
                Tuple(
                    1000 + i,
                    {
                        "tid": 1000 + i,
                        "a": f"a{i % 7}",
                        "b": f"b{i % 5}",
                        "c": "conflict-c",
                        "d": "conflict-d",
                        "e": "e0",
                    },
                )
            )
            for i in range(30)
        ]
    )


class TestSharedLhsTableau:
    def test_compiler_groups_by_lhs(self, tableau_cfds):
        groups = compile_rule_set(tableau_cfds)
        assert len(groups) == 3
        assert n_fused_groups(tableau_cfds) == 3
        # First-seen order, members in rule order.
        assert [g.lhs for g in groups] == [("a", "b"), ("a",), ("b", "c")]
        assert [len(g) for g in groups] == [3, 3, 2]
        assert [m.name for m in groups[0].members] == ["ab_c", "ab_d", "ab_e_pinned"]

    @pytest.mark.parametrize("storage", STORAGES)
    def test_tableau_parity_all_backends(
        self, storage, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("incHor")
            .storage(storage)
            .build()
        )
        delta = sess.apply(tableau_updates)
        sess.close()
        before = naive_detect(tableau_cfds, tableau_relation)
        after = naive_detect(tableau_cfds, tableau_updates.apply_to(tableau_relation))
        assert sess.initial_violations.as_dict() == before.as_dict()
        assert sess.violations.as_dict() == after.as_dict()
        assert _delta_key(delta) == _delta_key(diff_violations(before, after))
        assert after.as_dict()

    def test_explain_reports_group_structure(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("auto")
            .build()
        )
        sess.apply(tableau_updates)
        info = sess.explain()
        sess.close()
        fusion = info["rule_fusion"]
        assert set(fusion) == {"n_groups", "groups"}
        assert fusion["n_groups"] == 3
        assert [g["lhs"] for g in fusion["groups"]] == [["a", "b"], ["a"], ["b", "c"]]
        assert sum(len(g["rules"]) for g in fusion["groups"]) == len(tableau_cfds)
        # The planner priced the fused shape and recorded it per batch.
        assert info["last_plan"]["rule_groups"] == {"n_rules": 8, "n_groups": 3}

    def test_fused_sql_issues_fewer_queries(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .rules(tableau_cfds)
            .strategy("centralized")
            .storage("sql")
            .build()
        )
        sess.apply(tableau_updates)
        store = sql_store_of(sess.deployment.relation)
        assert store is not None, "sql session must expose a SqlStore"
        violations = sess.violations.as_dict()
        # One tagged query per fused group, against one query per rule
        # when every rule is checked as a group of size 1.
        before = store.query_count
        fused = fused_sql_violations(store, tableau_cfds)
        fused_queries = store.query_count - before
        before = store.query_count
        per_rule = [fused_sql_violations(store, [cfd])[0] for cfd in tableau_cfds]
        per_rule_queries = store.query_count - before
        sess.close()
        assert violations
        assert fused == per_rule
        assert fused_queries == n_fused_groups(tableau_cfds) == 3
        assert per_rule_queries == len(tableau_cfds)

    def test_stmt_cache_counters_in_explain(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("batHor")
            .storage("sql")
            .build()
        )
        first = sess.explain()["storage"]
        assert first["backend"] == "sql"
        assert set(first["stmt_cache"]) == {"hits", "misses", "size"}
        cache_before = dict(first["stmt_cache"])
        assert cache_before["misses"] > 0  # setup compiled the fused queries
        sess.apply(tableau_updates)
        after = sess.explain()["storage"]["stmt_cache"]
        sess.close()
        # Re-detection reuses the prepared statements: hits must grow,
        # the cache itself must not (same keys, same plans).
        assert after["hits"] > cache_before["hits"]
        assert after["size"] == cache_before["size"]


# -- unit coverage ------------------------------------------------------------------------


class TestCompilerUnits:
    def test_single_rules_are_singleton_groups(self):
        cfds = [CFD(("a",), "b", {}, name="r1"), CFD(("b",), "c", {}, name="r2")]
        groups = compile_rule_set(cfds)
        assert [len(g) for g in groups] == [1, 1]
        assert n_fused_groups(cfds) == 2

    def test_n_fused_groups_counts_non_cfds_individually(self, mds):
        cfds = [CFD(("a",), "b", {}, name="r1"), CFD(("a",), "c", {}, name="r2")]
        assert n_fused_groups(cfds) == 1
        assert n_fused_groups(list(cfds) + list(mds)) == 1 + len(mds)

    def test_group_as_dict_is_json_ready(self):
        import json

        cfds = [
            CFD(("a", "b"), "c", {}, name="v"),
            CFD(("a", "b"), "d", {"a": "x", "b": "y", "d": "z"}, name="k"),
        ]
        (group,) = compile_rule_set(cfds)
        rendered = group.as_dict()
        json.dumps(rendered)
        assert rendered["rules"] == ["v", "k"]
        assert rendered["n_constant"] == 1
        assert rendered["n_variable"] == 1

    def test_split_local_general_preserves_order_and_duplicates(self):
        a = CFD(("a",), "b", {}, name="x")
        b = CFD(("b",), "c", {}, name="y")
        c = CFD(("c",), "d", {}, name="z")
        local, general = split_local_general([a, b, c], lambda cfd: cfd is not b)
        assert local == [a, c]
        assert general == [b]
        # Equal-but-distinct rules are classified by identity, not value.
        twin = CFD(("a",), "b", {}, name="x")
        local, general = split_local_general([a, twin], lambda cfd: cfd is a)
        assert local == [a]
        assert general == [twin]


class TestPlannerGroupAwareness:
    def test_local_work_scales_with_groups_not_rules(
        self, tableau_relation, tableau_cfds
    ):
        from repro.planner.estimators import _n_scans
        from repro.stats.collector import StatsCatalog

        catalog = StatsCatalog.collect(
            tableau_relation, tableau_cfds, n_sites=N_SITES,
            partitioning="horizontal",
        )
        assert _n_scans(catalog) == 3
        assert catalog.rules.n_rules == 8
        # A hand-built profile without a group count prices one sweep
        # per rule.
        assert _n_scans(SimpleNamespace(rules=replace(catalog.rules, n_groups=0))) == 8


# -- fused kernels vs the oracle, group by group ---------------------------------------------

#: Schema and value domain of the generated cases.  The domain holds the
#: value classes every backend already agrees on (strings, ints, None);
#: bool and NaN equality is not yet one contract across backends
#: (ROADMAP item 4) and is left to its own differential suite.
GEN_SCHEMA = Schema("g", ["tid", "a", "b", "c", "d"], key="tid")
GEN_VALUES = ["x", "y", 1, 2, None]
#: A pattern constant no generated tuple carries: its rule can match
#: nothing (the columnar "unsatisfiable" leg).
ABSENT = "never-in-data"
#: Few LHS lists, so generated rule sets mix singleton and shared groups.
GEN_LHS = [("a",), ("a", "b"), ("b",), ("c", "d")]


@st.composite
def generated_rules(draw):
    rules = []
    for i in range(draw(st.integers(1, 6))):
        lhs = draw(st.sampled_from(GEN_LHS))
        rhs = draw(st.sampled_from([a for a in ("a", "b", "c", "d") if a not in lhs]))
        constants = st.sampled_from([*GEN_VALUES, ABSENT])
        pattern = {}
        for a in lhs:
            if draw(st.booleans()):
                pattern[a] = draw(constants)
        if draw(st.booleans()):
            pattern[rhs] = draw(constants)
        rules.append(CFD(lhs, rhs, pattern, name=f"r{i}"))
    return rules


@st.composite
def generated_relations(draw):
    rows = draw(
        st.lists(
            st.fixed_dictionaries({a: st.sampled_from(GEN_VALUES) for a in "abcd"}),
            max_size=24,
        )
    )
    return Relation(
        GEN_SCHEMA, [Tuple(i, {"tid": i, **row}) for i, row in enumerate(rows)]
    )


def assert_fused_matches_oracle(cfds, relation):
    """Every backend, whole set and group by group, equals the oracle."""
    expected = [row_violations(cfd, relation) for cfd in cfds]
    for storage in STORAGES:
        backend = relation if storage == "rows" else relation.with_storage(storage)
        try:
            assert fused_violations(cfds, backend) == expected, storage
            for group in compile_rule_set(cfds):
                got = fused_violations(list(group.members), backend)
                assert got == [expected[i] for i in group.indexes], (storage, group.lhs)
        finally:
            store = sql_store_of(backend)
            if store is not None:
                store.close()


#: A fixed case covering every leg at once: two singleton groups (one
#: variable, one constant), a shared-LHS group mixing a wildcard variable
#: member, a constant member and a ``None`` pattern constant, and a
#: singleton whose pattern constant never occurs.
MIXED_CFDS = [
    CFD(("c",), "d", {}, name="singleton_variable"),
    CFD(("d",), "a", {"d": 2, "a": "x"}, name="singleton_constant"),
    CFD(("a",), "c", {}, name="shared_wildcard"),
    CFD(("a",), "b", {"a": "x", "b": "y"}, name="shared_constant"),
    CFD(("a",), "d", {"a": None}, name="shared_none_pattern"),
    CFD(("a", "b"), "c", {"a": ABSENT}, name="singleton_absent_constant"),
]
MIXED_RELATION = Relation(
    GEN_SCHEMA,
    [
        Tuple(i, {"tid": i, "a": a, "b": b, "c": c, "d": d})
        for i, (a, b, c, d) in enumerate(
            [
                ("x", "y", 1, 2),
                ("x", "y", 2, 2),
                ("x", 1, 1, None),
                ("y", 1, None, None),
                (None, "x", 1, 2),
                (None, "x", 1, 1),
            ]
        )
    ],
)


class TestFusedKernelsAgainstOracle:
    @given(cfds=generated_rules(), relation=generated_relations())
    @example(cfds=MIXED_CFDS, relation=MIXED_RELATION)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_generated_rule_sets_match_oracle(self, cfds, relation):
        assert_fused_matches_oracle(cfds, relation)
