"""Oracle: the cost model's estimates equal the tuple-prefix reference.

:meth:`CostModel.estimate_all` reads every statistic off the
dictionary-encoded pair; :mod:`tests.core.estimator_reference` computes
the same statistics from tuple prefix relations and ``ColumnStats``
histograms. Every ``CostEstimate`` — implementation, cost and details —
must agree exactly, and so must the ``auto`` pick, across orderings,
self- and two-relation joins, one- and two-sided weight-norm predicates,
the length-norm edit predicate, empty sides and generated relations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoded import EncodingCache, global_encoding_cache
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import CostModel
from repro.core.ordering import random_ordering, reverse_frequency_ordering
from repro.core.physical import resolve_encoding
from repro.core.predicate import MaxNormBound, OverlapPredicate
from repro.core.prepared import NORM_LENGTH, PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.data.customers import CustomerConfig, generate_addresses
from repro.joins.jaccard_join import resolve_weights
from repro.tokenize.qgrams import qgrams
from repro.tokenize.words import words

from tests.core.estimator_reference import reference_estimates, reference_tier
from tests.core.test_implementations import predicates, prepared_relations

ROWS = 160
ORDERINGS = ("default", "random", "reverse")


def rows_of(estimates):
    """Estimates as plain tuples, so a mismatch prints a readable diff."""
    return [(e.implementation, e.cost, dict(e.details)) for e in estimates]


def make_ordering(kind, left, right):
    if kind == "default":
        return None
    if kind == "random":
        return random_ordering(7, left, right)
    return reverse_frequency_ordering(left, right)


def jaccard_sides(self_join):
    values = generate_addresses(CustomerConfig(num_rows=ROWS, seed=11))
    left_values = values if self_join else values[: ROWS * 2 // 3]
    right_values = values if self_join else values[ROWS // 3 :]
    table = resolve_weights("idf", words, left_values, right_values)
    left = PreparedRelation.from_strings(left_values, words, weights=table, name="r")
    if self_join:
        return left, left
    right = PreparedRelation.from_strings(right_values, words, weights=table, name="s")
    return left, right


def edit_sides(self_join):
    values = generate_addresses(CustomerConfig(num_rows=ROWS, seed=12))

    def prepare(vals, name):
        return PreparedRelation.from_strings(
            vals, lambda s: qgrams(s, 3), norm=NORM_LENGTH, name=name
        )

    left = prepare(values if self_join else values[: ROWS // 2], "r")
    right = left if self_join else prepare(values[ROWS // 4 :], "s")
    return left, right


def edit_predicate(threshold, q=3):
    # The edit-similarity reduction: Overlap >= max(len_r, len_s) - (q-1) - eps*q.
    epsilon = 1.0 - threshold
    return OverlapPredicate([MaxNormBound(1.0, float(1 - q - epsilon * q))])


JACCARD_PREDICATES = [
    pytest.param(OverlapPredicate.two_sided(t), id=f"two-sided-{t}") for t in (0.5, 0.8, 0.95)
] + [
    pytest.param(OverlapPredicate.one_sided(0.8, side), id=f"one-sided-{side}-0.8")
    for side in ("left", "right")
]


def assert_matches_reference(left, right, predicate, kind):
    """Bare call, planning-input call (cold then warm) and auto pick."""
    model = CostModel()
    ordering = make_ordering(kind, left, right)

    expected = reference_estimates(
        model, left, right, predicate, ordering, tier=reference_tier(left, right, ordering)
    )
    assert rows_of(model.estimate_all(left, right, predicate, ordering)) == rows_of(expected)

    cache = EncodingCache()
    for tier_expected in (None, "memory"):
        tier, encoding = resolve_encoding(
            left, right, ordering, None, cache, ExecutionMetrics()
        )
        assert tier == tier_expected
        got = model.estimate_all(
            left, right, predicate, ordering, encoding=encoding, tier=tier
        )
        want = reference_estimates(model, left, right, predicate, ordering, tier=tier)
        assert rows_of(got) == rows_of(want)

    chosen = SSJoin(left, right, predicate, ordering=ordering).execute(
        "auto", encoding_cache=EncodingCache()
    ).cost_estimate
    cold = reference_estimates(model, left, right, predicate, ordering, tier=None)
    assert rows_of([chosen]) == rows_of(cold[:1])


class TestCorpora:
    @pytest.mark.parametrize("kind", ORDERINGS)
    @pytest.mark.parametrize("self_join", [True, False], ids=["self", "two-relation"])
    @pytest.mark.parametrize("predicate", JACCARD_PREDICATES)
    def test_jaccard_weight_norm(self, predicate, self_join, kind):
        left, right = jaccard_sides(self_join)
        assert_matches_reference(left, right, predicate, kind)

    @pytest.mark.parametrize("kind", ORDERINGS)
    @pytest.mark.parametrize("self_join", [True, False], ids=["self", "two-relation"])
    def test_edit_length_norm(self, self_join, kind):
        left, right = edit_sides(self_join)
        assert_matches_reference(left, right, edit_predicate(0.85), kind)

    @pytest.mark.parametrize("kind", ORDERINGS)
    @pytest.mark.parametrize("empty", ["left", "right", "both"])
    def test_empty_side(self, empty, kind):
        full, _ = jaccard_sides(True)
        none = PreparedRelation.from_strings([], words, name="empty")
        left = none if empty in ("left", "both") else full
        right = none if empty in ("right", "both") else full
        assert_matches_reference(left, right, OverlapPredicate.two_sided(0.8), kind)


class TestGenerated:
    @given(
        prepared_relations("r"),
        prepared_relations("s"),
        predicates(),
        st.booleans(),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_relations(self, left, right, predicate, self_join, kind):
        if self_join:
            right = left
        assert_matches_reference(left, right, predicate, kind)


class TestPurity:
    def test_bare_estimate_leaves_the_cache_alone(self):
        values = [f"purity {i} lane unit{i % 4}" for i in range(40)]
        prepared = PreparedRelation.from_strings(values, words)
        predicate = OverlapPredicate.two_sided(0.8)
        model = CostModel()
        cache = global_encoding_cache()
        before = cache.stats()
        first = model.estimate_all(prepared, prepared, predicate)
        second = model.estimate_all(prepared, prepared, predicate)
        assert rows_of(first) == rows_of(second)
        assert cache.stats() == before
