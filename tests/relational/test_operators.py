"""Unit tests for the expression-driven unary stream kernels."""

import pytest

from repro.errors import PlanError
from repro.relational import operators
from repro.relational.aggregates import agg_count, group_by_stream
from repro.relational.batch import columnar_relation_from_batches, stream_relation
from repro.relational.expressions import col
from repro.relational.relation import Relation


@pytest.fixture
def table():
    return Relation.from_rows(
        ["name", "score"],
        [("ann", 3), ("bob", 9), ("cid", 3), ("dee", 7)],
    )


def stream(relation, size=3):
    """Stream *relation* in morsels smaller than the fixture, so every
    kernel sees more than one batch."""
    return stream_relation(relation, size)


def fold(batch_stream):
    return columnar_relation_from_batches(batch_stream)


class TestSelect:
    def test_select(self, table):
        out = fold(operators.select_stream(stream(table), col("score") >= 7))
        assert out.column_values("name") == ("bob", "dee")

    def test_select_none(self, table):
        assert len(fold(operators.select_stream(stream(table), col("score") > 100))) == 0


class TestProject:
    def test_passthrough(self, table):
        out = fold(operators.project_stream(stream(table), ["score"]))
        assert out.column_names == ("score",)
        assert out.num_rows == 4

    def test_derived(self, table):
        out = fold(
            operators.project_stream(stream(table), ["name", ("double", col("score") * 2)])
        )
        assert out.column_values("double") == (6, 18, 6, 14)

    def test_bad_item(self, table):
        with pytest.raises(PlanError):
            operators.project_stream(stream(table), [42])


class TestExtend:
    def test_extend(self, table):
        out = fold(operators.extend_stream(stream(table), "bonus", col("score") + 1))
        assert out.column_names[-1] == "bonus"
        assert out.column_values("bonus") == (4, 10, 4, 8)


class TestDistinct:
    def test_distinct_projected(self, table):
        scores = operators.project_stream(stream(table), ["score"])
        out = fold(operators.distinct_stream(scores))
        assert out.column_values("score") == (3, 9, 7)

    def test_distinct_full(self, table):
        assert len(fold(operators.distinct_stream(stream(table)))) == 4


class TestOrderBy:
    def test_single_key(self, table):
        out = fold(operators.order_by_stream(stream(table), ["score"], batch_size=3))
        assert out.column_values("score") == (3, 3, 7, 9)

    def test_descending(self, table):
        out = fold(
            operators.order_by_stream(stream(table), [("score", "desc")], batch_size=3)
        )
        assert out.column_values("score") == (9, 7, 3, 3)

    def test_mixed_direction(self, table):
        out = fold(
            operators.order_by_stream(
                stream(table), [("score", "asc"), ("name", "desc")], batch_size=3
            )
        )
        assert out.column_values("name") == ("cid", "ann", "dee", "bob")


class TestLimitUnion:
    def test_limit(self, table):
        assert fold(operators.limit_stream(stream(table), 2)).num_rows == 2

    def test_limit_negative(self, table):
        with pytest.raises(PlanError):
            operators.limit_stream(stream(table), -1)

    def test_union_all_multi(self, table):
        out = table.union_all(table).union_all(table)
        assert out.num_rows == 12


class TestValueCounts:
    def test_counts(self, table):
        counts = fold(group_by_stream(stream(table), ["score"], [agg_count("n")]))
        assert dict(counts.rows) == {3: 2, 9: 1, 7: 1}
