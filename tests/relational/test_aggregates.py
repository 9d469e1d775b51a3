"""Unit tests for GROUP BY / HAVING.

Each case runs the stream kernel over two-row morsels, so accumulator
state must carry across batch boundaries.
"""

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import (
    agg_avg,
    agg_collect,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    group_by_stream,
)
from repro.relational.batch import columnar_relation_from_batches, stream_relation
from repro.relational.expressions import col
from repro.relational.relation import Relation


def group_by(relation, keys, aggregates, having=None):
    return columnar_relation_from_batches(
        group_by_stream(
            stream_relation(relation, 2), keys, aggregates, having=having, batch_size=2
        )
    )


@pytest.fixture
def sales():
    return Relation.from_rows(
        ["region", "item", "amount"],
        [
            ("west", "a", 10),
            ("west", "b", 5),
            ("east", "a", 7),
            ("east", "b", None),
            ("east", "c", 3),
        ],
    )


class TestAggregates:
    def test_sum(self, sales):
        out = group_by(sales.select(lambda r: r[2] is not None),
                       ["region"], [agg_sum("total", col("amount"))])
        assert dict(out.rows) == {"west": 15, "east": 10}

    def test_count_star(self, sales):
        out = group_by(sales, ["region"], [agg_count("n")])
        assert dict(out.rows) == {"west": 2, "east": 3}

    def test_count_expr_skips_none(self, sales):
        out = group_by(sales, ["region"], [agg_count("n", col("amount"))])
        assert dict(out.rows) == {"west": 2, "east": 2}

    def test_min_max(self, sales):
        nn = sales.select(lambda r: r[2] is not None)
        out = group_by(nn, ["region"], [agg_min("lo", col("amount")), agg_max("hi", col("amount"))])
        assert sorted(out.rows) == [("east", 3, 7), ("west", 5, 10)]

    def test_avg(self, sales):
        nn = sales.select(lambda r: r[2] is not None)
        out = group_by(nn, ["region"], [agg_avg("mean", col("amount"))])
        assert dict(out.rows)["west"] == pytest.approx(7.5)

    def test_collect(self, sales):
        out = group_by(sales, ["region"], [agg_collect("items", col("item"))])
        assert dict(out.rows)["east"] == ("a", "b", "c")


class TestGrouping:
    def test_multi_key(self, sales):
        out = group_by(sales, ["region", "item"], [agg_count("n")])
        assert out.num_rows == 5

    def test_no_keys_global_aggregate(self, sales):
        out = group_by(sales, [], [agg_count("n")])
        assert out.rows == ((5,),)

    def test_empty_input_no_groups(self):
        out = group_by(Relation.empty(["a", "w"]), ["a"], [agg_count("n")])
        assert out.num_rows == 0

    def test_no_keys_no_aggs_rejected(self, sales):
        with pytest.raises(PlanError):
            group_by(sales, [], [])

    def test_output_schema(self, sales):
        out = group_by(sales, ["region"], [agg_count("n")])
        assert out.column_names == ("region", "n")


class TestHaving:
    def test_having_on_aggregate(self, sales):
        out = group_by(sales, ["region"], [agg_count("n")], having=col("n") >= 3)
        assert out.column_values("region") == ("east",)

    def test_having_on_key(self, sales):
        out = group_by(sales, ["region"], [agg_count("n")], having=col("region").eq("west"))
        assert out.column_values("region") == ("west",)

    def test_having_mixed(self, sales):
        nn = sales.select(lambda r: r[2] is not None)
        out = group_by(
            nn,
            ["region"],
            [agg_sum("total", col("amount"))],
            having=(col("total") >= 10).and_(col("region").ne("east")),
        )
        assert out.column_values("region") == ("west",)


class TestNullSemantics:
    """SQL NULL handling: aggregates skip NULLs; all-NULL gives NULL."""

    def test_sum_skips_nulls(self, sales):
        out = group_by(sales, ["region"], [agg_sum("total", col("amount"))])
        assert dict(out.rows) == {"west": 15, "east": 10}

    def test_all_null_group_gives_null(self):
        r = Relation.from_rows(["a", "w"], [("x", None), ("x", None)])
        out = group_by(r, ["a"], [agg_sum("s", col("w")),
                                  agg_min("lo", col("w")),
                                  agg_max("hi", col("w")),
                                  agg_avg("mean", col("w"))])
        assert out.rows == (("x", None, None, None, None),)

    def test_min_max_avg_skip_nulls(self, sales):
        out = group_by(sales, ["region"],
                       [agg_min("lo", col("amount")),
                        agg_max("hi", col("amount")),
                        agg_avg("mean", col("amount"))])
        east = dict((r[0], r[1:]) for r in out.rows)["east"]
        assert east == (3, 7, 5.0)

    def test_global_aggregate_over_empty_input_yields_one_row(self):
        out = group_by(Relation.empty(["w"]), [],
                       [agg_count("n"), agg_sum("s", col("w"))])
        assert out.rows == ((0, None),)

    def test_keyed_aggregate_over_empty_input_yields_no_rows(self):
        out = group_by(Relation.empty(["a", "w"]), ["a"], [agg_count("n")])
        assert out.num_rows == 0
