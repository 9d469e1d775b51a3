"""Mini in-memory relational engine — the substrate under every SSJoin plan.

The ICDE'06 paper implements SSJoin as trees of standard relational
operators over SQL Server. This subpackage supplies those operators in pure
Python: relations over row tuples, scalar expressions, equi-joins (hash,
sort-merge and left outer), GROUP BY/HAVING, the groupwise-processing
operator, a table catalog with statistics, and explainable logical plans
executed morsel by morsel over columnar batches.
"""

from repro.relational.aggregates import (
    Aggregate,
    agg_avg,
    agg_collect,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    group_by,
)
from repro.relational.catalog import Catalog
from repro.relational.context import ExecutionContext
from repro.relational.expressions import col, const, maximum, minimum
from repro.relational.groupwise import groupwise_apply, scan_groups
from repro.relational.joins import hash_join
from repro.relational.plan import (
    Distinct,
    Extend,
    GroupBy,
    HashJoin,
    LeftOuterJoin,
    Limit,
    MaterializedInput,
    MergeJoin,
    OrderBy,
    PlanNode,
    PreparedInput,
    Project,
    Select,
    SSJoinNode,
    TableScan,
    explain,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.stats import (
    ColumnStats,
    TableStats,
    estimate_equijoin_size,
    estimate_self_equijoin_size,
)

__all__ = [
    "Aggregate",
    "agg_avg",
    "agg_collect",
    "agg_count",
    "agg_max",
    "agg_min",
    "agg_sum",
    "group_by",
    "Catalog",
    "ExecutionContext",
    "PlanNode",
    "TableScan",
    "MaterializedInput",
    "PreparedInput",
    "SSJoinNode",
    "Select",
    "Project",
    "Extend",
    "Distinct",
    "OrderBy",
    "Limit",
    "HashJoin",
    "MergeJoin",
    "LeftOuterJoin",
    "GroupBy",
    "explain",
    "col",
    "const",
    "maximum",
    "minimum",
    "groupwise_apply",
    "scan_groups",
    "hash_join",
    "Relation",
    "Column",
    "Schema",
    "ColumnStats",
    "TableStats",
    "estimate_equijoin_size",
    "estimate_self_equijoin_size",
]
