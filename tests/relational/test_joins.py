"""Unit + property tests for the equi-join kernels.

The load-bearing invariant: the hash join, the merge join and a naive
nested loop with an equality predicate must produce identical bags on any
input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.relational.batch import columnar_relation_from_batches, stream_relation
from repro.relational.joins import (
    hash_join,
    hash_join_stream,
    left_outer_join_stream,
    merge_join_stream,
)
from repro.relational.relation import Relation

from tests.core import naive_plans as naive


def _naive(relation):
    return naive.relation(relation.column_names, relation.rows)


def _streamed(kernel, left, right, keys, prefixes=None):
    """Run a stream kernel over two relations in two-row morsels."""
    return columnar_relation_from_batches(
        kernel(
            stream_relation(left, 2),
            stream_relation(right, 2),
            keys,
            prefixes=prefixes,
            batch_size=2,
        )
    )


def merge_join(left, right, keys, prefixes=None):
    return _streamed(merge_join_stream, left, right, keys, prefixes)


def left_outer_join(left, right, keys, prefixes=None):
    return _streamed(left_outer_join_stream, left, right, keys, prefixes)


@pytest.fixture
def left():
    return Relation.from_rows(
        ["a", "b"], [("x", 1), ("y", 2), ("z", 2), ("w", None)]
    )


@pytest.fixture
def right():
    return Relation.from_rows(
        ["b", "c"], [(2, "p"), (2, "q"), (3, "r"), (None, "s")]
    )


class TestHashJoin:
    def test_basic(self, left, right):
        out = hash_join(left, right, keys=[("b", "b")])
        assert sorted(out.rows) == [
            ("y", 2, 2, "p"),
            ("y", 2, 2, "q"),
            ("z", 2, 2, "p"),
            ("z", 2, 2, "q"),
        ]

    def test_null_never_matches(self, left, right):
        out = hash_join(left, right, keys=[("b", "b")])
        assert all(None not in row for row in out.rows)

    def test_single_string_key(self):
        a = Relation.from_rows(["k", "v"], [("a", 1)])
        b = Relation.from_rows(["k", "w"], [("a", 2)])
        out = hash_join(a.rename({"v": "v1"}), b.rename({"w": "v2"}), keys="k")
        assert out.num_rows == 1

    def test_prefixes_qualify_columns(self, left, right):
        out = hash_join(left, right, keys=[("b", "b")], prefixes=("L", "R"))
        assert out.column_names == ("L.a", "L.b", "R.b", "R.c")

    def test_output_order_is_left_then_right_regardless_of_build_side(self):
        small = Relation.from_rows(["a"], [(1,)])
        big = Relation.from_rows(["a2", "pad"], [(1, i) for i in range(5)])
        out = hash_join(big, small, keys=[("a2", "a")])
        assert out.column_names == ("a2", "pad", "a")
        out = hash_join(small, big, keys=[("a", "a2")])
        assert out.column_names == ("a", "a2", "pad")

    def test_multi_key(self):
        a = Relation.from_rows(["x", "y"], [(1, 1), (1, 2)])
        b = Relation.from_rows(["x2", "y2"], [(1, 1), (1, 3)])
        out = hash_join(a, b, keys=[("x", "x2"), ("y", "y2")])
        assert out.rows == ((1, 1, 1, 1),)

    def test_empty_key_spec_rejected(self, left, right):
        with pytest.raises(PlanError):
            hash_join(left, right, keys=[])


class TestMergeJoin:
    def test_matches_hash_join(self, left, right):
        h = hash_join(left, right, keys=[("b", "b")])
        m = merge_join(left, right, keys=[("b", "b")])
        assert sorted(h.rows) == sorted(m.rows)

    def test_prefixes(self, left, right):
        out = merge_join(left, right, keys=[("b", "b")], prefixes=("L", "R"))
        assert out.column_names == ("L.a", "L.b", "R.b", "R.c")


class TestNestedLoop:
    """The naive nested loop the equivalence oracle is built on."""

    def test_theta_join(self, left, right):
        _names, rows = naive.nested_loop_join(
            _naive(left),
            _naive(right),
            lambda l, r: l[1] is not None and r[0] is not None and l[1] < r[0],
        )
        # b=1 < {2,2,3} -> 3 rows; b=2 < 3 -> 2 rows
        assert len(rows) == 5

    def test_counter_counts_all_pairs(self, left, right):
        calls = []
        naive.nested_loop_join(
            _naive(left), _naive(right), lambda l, r: calls.append(1) and False
        )
        assert len(calls) == 16

    def test_cross_product(self, left, right):
        names, rows = naive.nested_loop_join(_naive(left), _naive(right), lambda l, r: True)
        assert len(rows) == 16
        assert names == ["a", "b", "b", "c"]


@st.composite
def join_inputs(draw):
    keys = st.integers(min_value=0, max_value=5)
    lrows = draw(st.lists(st.tuples(keys, st.integers(0, 9)), max_size=12))
    rrows = draw(st.lists(st.tuples(keys, st.integers(0, 9)), max_size=12))
    left = Relation.from_rows(["k", "v"], lrows)
    right = Relation.from_rows(["k2", "w"], rrows)
    return left, right


class TestJoinEquivalenceProperties:
    @given(join_inputs())
    @settings(max_examples=80, deadline=None)
    def test_hash_merge_nested_agree(self, inputs):
        left, right = inputs
        h = hash_join(left, right, keys=[("k", "k2")])
        hs = _streamed(hash_join_stream, left, right, keys=[("k", "k2")])
        m = merge_join(left, right, keys=[("k", "k2")])
        _names, n = naive.nested_loop_join(
            _naive(left), _naive(right), lambda l, r: l[0] == r[0]
        )
        assert sorted(h.rows) == sorted(m.rows) == sorted(n)
        assert hs.rows == h.rows

    @given(join_inputs())
    @settings(max_examples=40, deadline=None)
    def test_join_size_formula(self, inputs):
        left, right = inputs
        h = hash_join(left, right, keys=[("k", "k2")])
        from collections import Counter

        lc = Counter(left.column_values("k"))
        rc = Counter(right.column_values("k2"))
        expected = sum(lc[k] * rc[k] for k in lc)
        assert h.num_rows == expected


class TestLeftOuterJoin:
    def test_unmatched_left_rows_padded(self, left, right):
        out = left_outer_join(left, right, keys=[("b", "b")])
        # x(b=1) and w(b=None) have no match: padded rows survive.
        padded = [r for r in out.rows if r[2] is None]
        assert sorted(r[0] for r in padded) == ["w", "x"]
        # matched rows identical to the inner join
        inner = hash_join(left, right, keys=[("b", "b")])
        matched = [r for r in out.rows if r[2] is not None]
        assert sorted(matched) == sorted(inner.rows)

    def test_null_left_key_still_survives(self, left, right):
        out = left_outer_join(left, right, keys=[("b", "b")])
        assert ("w", None, None, None) in out.rows

    def test_prefixes(self, left, right):
        out = left_outer_join(left, right, keys=[("b", "b")], prefixes=("L", "R"))
        assert out.column_names == ("L.a", "L.b", "R.b", "R.c")
