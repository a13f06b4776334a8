"""Rule-set compilation: fused multi-CFD validation plans.

Validating CFDs one rule at a time pays one grouped-LHS sweep
(columnar), one pushed-down query (SQL) or one tuple scan (rows) *per
rule* — even when rules share their LHS attribute list, which real
tableaux overwhelmingly do (a tableau is by definition many pattern
rows over one embedded FD).  This package compiles a session's rule set
into **fused groups keyed by the LHS attribute list** and emits one
execution plan per group, so a fragment is swept once per *group*
instead of once per *rule*.  It is the only rule path: a rule whose LHS
list no other rule shares is a group of size 1.
"""

from repro.rulefuse.compiler import FusedGroup, compile_rule_set, n_fused_groups
from repro.rulefuse.kernels import (
    build_indexes,
    fused_columnar_masks,
    fused_rows_violations,
    fused_sql_violations,
    fused_violations,
)

__all__ = [
    "FusedGroup",
    "compile_rule_set",
    "n_fused_groups",
    "build_indexes",
    "fused_columnar_masks",
    "fused_rows_violations",
    "fused_sql_violations",
    "fused_violations",
]
