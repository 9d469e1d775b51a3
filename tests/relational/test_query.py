"""Query shapes composed directly from plan nodes.

Each case builds a small relational query — scan, filter, projection,
joins, grouping — as a plan tree and executes it against a bare catalog,
the way the SQL compiler and the paper plans compose operators.
"""

import pytest

from repro.errors import UnknownTableError
from repro.relational.aggregates import agg_count, agg_sum
from repro.relational.catalog import Catalog
from repro.relational.expressions import col
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
    Project,
    Select,
    TableScan,
    explain,
)
from repro.relational.relation import Relation


@pytest.fixture
def catalog():
    c = Catalog()
    c.register(
        "emp",
        Relation.from_rows(
            ["dept", "name", "salary"],
            [("eng", "ann", 120), ("eng", "bob", 100), ("ops", "cid", 90),
             ("ops", "dee", 95)],
        ),
    )
    c.register("sites", Relation.from_rows(["d", "city"], [("eng", "sea"), ("ops", "pdx")]))
    return c


class TestConstruction:
    def test_table(self, catalog):
        assert TableScan("emp").execute(catalog).num_rows == 4

    def test_unknown_table_fails_fast(self, catalog):
        with pytest.raises(UnknownTableError):
            TableScan("nope").execute(catalog)

    def test_relation(self, catalog):
        rel = Relation.from_rows(["x"], [(1,)])
        assert MaterializedInput(rel).execute(catalog) is rel

    def test_repr(self, catalog):
        assert "Scan(emp)" in explain(TableScan("emp"))


class TestUnaryVerbs:
    def test_where_select_order(self, catalog):
        plan = OrderBy(
            Project(Select(TableScan("emp"), col("salary") >= 95), ["name", "salary"]),
            [("salary", "desc")],
        )
        out = plan.execute(catalog)
        assert out.column_values("name") == ("ann", "bob", "dee")

    def test_derived_select(self, catalog):
        out = Project(TableScan("emp"), [("bump", col("salary") + 5)]).execute(catalog)
        assert max(out.column_values("bump")) == 125

    def test_extend_distinct_limit(self, catalog):
        plan = Limit(
            Distinct(
                Project(
                    Extend(TableScan("emp"), "flag", col("salary") >= 100),
                    ["dept", "flag"],
                )
            ),
            3,
        )
        # eng rows both flag True, ops rows both flag False -> 2 distinct.
        assert plan.execute(catalog).num_rows == 2


class TestJoins:
    def test_hash_join_to_table_name(self, catalog):
        out = HashJoin(TableScan("emp"), TableScan("sites"), keys=[("dept", "d")]).execute(
            catalog
        )
        assert out.num_rows == 4
        assert "city" in out.column_names

    def test_merge_join_same_result(self, catalog):
        keys = [("dept", "d")]
        h = HashJoin(TableScan("emp"), TableScan("sites"), keys=keys).execute(catalog)
        m = MergeJoin(TableScan("emp"), TableScan("sites"), keys=keys).execute(catalog)
        assert sorted(h.rows) == sorted(m.rows)

    def test_join_to_query(self, catalog):
        rich = Select(TableScan("emp"), col("salary") > 95)
        out = HashJoin(TableScan("sites"), rich, keys=[("d", "dept")]).execute(catalog)
        assert out.num_rows == 2

    def test_join_to_relation(self, catalog):
        extra = MaterializedInput(Relation.from_rows(["d2", "budget"], [("eng", 10)]))
        out = HashJoin(TableScan("emp"), extra, keys=[("dept", "d2")]).execute(catalog)
        assert out.num_rows == 2

    def test_join_prefixes(self, catalog):
        out = HashJoin(
            TableScan("emp"), TableScan("sites"), keys=[("dept", "d")], prefixes=("E", "S")
        ).execute(catalog)
        assert "E.dept" in out.column_names and "S.city" in out.column_names

    def test_theta_join(self, catalog):
        # The equality part of the theta predicate joins; the rest filters.
        plan = Select(
            HashJoin(TableScan("emp"), TableScan("sites"), keys=[("dept", "d")]),
            col("salary") > 100,
        )
        assert plan.execute(catalog).num_rows == 1


class TestAggregation:
    def test_group_by_having(self, catalog):
        plan = GroupBy(
            TableScan("emp"),
            ["dept"],
            [agg_sum("payroll", col("salary"))],
            having=col("payroll") >= 200,
        )
        assert plan.execute(catalog).rows == (("eng", 220),)

    def test_chained_aggregation(self, catalog):
        """Count departments whose payroll exceeds 180."""
        payroll = GroupBy(TableScan("emp"), ["dept"], [agg_sum("payroll", col("salary"))])
        plan = GroupBy(Select(payroll, col("payroll") > 180), [], [agg_count("n")])
        assert plan.execute(catalog).rows == ((2,),)


class TestImmutability:
    def test_verbs_do_not_mutate(self, catalog):
        base = TableScan("emp")
        filtered = Select(base, col("salary") > 100)
        assert base.execute(catalog).num_rows == 4
        assert filtered.execute(catalog).num_rows == 1
        assert base.execute(catalog).num_rows == 4

    def test_explain(self, catalog):
        text = explain(Select(TableScan("emp"), col("salary") > 0))
        assert text.splitlines()[0].startswith("Select")
        assert "Scan(emp)" in text

    def test_plan_property_composable(self, catalog):
        node = Select(TableScan("emp"), col("salary") > 0)
        assert Limit(node, 10).execute(catalog).num_rows == 4


class TestLeftJoin:
    def test_left_join_keeps_unmatched(self, catalog):
        extra = MaterializedInput(Relation.from_rows(["d2", "budget"], [("eng", 10)]))
        out = LeftOuterJoin(TableScan("emp"), extra, keys=[("dept", "d2")]).execute(catalog)
        assert out.num_rows == 4
        ops_rows = [r for r in out.rows if r[0] == "ops"]
        assert all(r[-1] is None for r in ops_rows)

    def test_left_join_explain(self, catalog):
        extra = MaterializedInput(Relation.from_rows(["d2", "budget"], [("eng", 10)]))
        node = LeftOuterJoin(TableScan("emp"), extra, keys=[("dept", "d2")])
        assert "LeftOuterJoin" in explain(node)
