"""The batch executor against a naive reference evaluator, bit for bit.

Hypothesis drives random prepared relations and all six predicate families
(reusing the strategies from the core implementation suite) through
composed plan trees — ``SSJoin → σ → π̂ → π`` and the seven
:data:`TAIL_PLANS` (hash aggregate, HAVING, global aggregate, distinct and
the three equi-joins) — executed at morsel capacities {1, 7, 4096}, for
every physical implementation and for workers ∈ {1, 2, 4} on the
in-process serial backend.

The oracle never touches the batch kernels: it takes the pairs of the
same SSJoin run through the :class:`~repro.core.ssjoin.SSJoin` facade
(``SSJoin(...).execute(impl).pairs.rows``) and evaluates the relational
tail with :mod:`tests.core.naive_plans` — plain lists, dicts and
``sorted``. Every configuration must produce that row list exactly (same
rows, same order, same float bits) and the facade run's deterministic
counters (``output_pairs``, ``candidate_pairs``, the verification-engine
stats). The worker sweep doubles as the regression for the serial
parallel backend: it funnels its merged columns through the same
canonical-order relation as the sequential path, so its metrics cannot
drift from the one-worker run.
"""

import os

import pytest
from hypothesis import given, settings

from repro.core.metrics import ExecutionMetrics
from repro.core.prepared import PreparedRelation
from repro.core.predicate import OverlapPredicate
from repro.core.ssjoin import SSJoin
from repro.parallel import BACKEND_SERIAL, canonical_sort_key, parallel_ssjoin
from repro.relational.aggregates import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.relational.batch import ColumnarRelation
from repro.relational.context import ExecutionContext
from repro.relational.expressions import col
from repro.relational.plan import (
    Distinct,
    Extend,
    GroupBy,
    HashJoin,
    LeftOuterJoin,
    MergeJoin,
    OrderBy,
    PreparedInput,
    Project,
    Select,
    SSJoinNode,
)
from repro.tokenize.sets import WeightedSet

from tests.core import naive_plans as naive
from tests.core.test_implementations import predicates, prepared_relations

IMPLEMENTATIONS = (
    "basic",
    "prefix",
    "inline",
    "probe",
    "encoded-prefix",
    "encoded-probe",
)

WORKERS = (1, 2, 4)

#: Morsel capacities the equivalence sweep exercises: degenerate
#: one-row batches, a small odd size that never divides the input
#: evenly, and the production default.
BATCH_SIZES = (1, 7, 4096)


@pytest.fixture(scope="module", autouse=True)
def _serial_backend():
    """Route ctx.workers plan executions through the in-process backend."""
    old = os.environ.get("REPRO_PARALLEL_BACKEND")
    os.environ["REPRO_PARALLEL_BACKEND"] = "serial"
    yield
    if old is None:
        del os.environ["REPRO_PARALLEL_BACKEND"]
    else:
        os.environ["REPRO_PARALLEL_BACKEND"] = old


def _build_plan(left, right, predicate, implementation):
    """``SSJoin → σ(norm_r ≤ norm_s) → π̂(weight) → π`` — one node per
    vectorized operator family, so every batch kernel is on the path."""
    node = SSJoinNode(
        PreparedInput(left),
        PreparedInput(right),
        predicate,
        implementation=implementation,
    )
    filtered = Select(node, col("norm_r") <= col("norm_s"))
    extended = Extend(filtered, "weight", col("overlap") * 2.0 + col("norm_r"))
    return Project(extended, ["a_r", "a_s", "overlap", "weight"])


def _naive_pipeline(pairs):
    """The :func:`_build_plan` tail over the facade's pair rows."""
    rel = naive.select(pairs, lambda r: r["norm_r"] <= r["norm_s"])
    rel = naive.extend(rel, "weight", lambda r: r["overlap"] * 2.0 + r["norm_r"])
    return naive.project(rel, ["a_r", "a_s", "overlap", "weight"])


def _oracle(
    left, right, predicate, implementation, tail, workers=None, ssjoin_runs=1
):
    """Rows and counters of the naive tail over the facade's SSJoin run.

    A plan whose inputs both reference one SSJoin node executes it once
    per reference; *ssjoin_runs* scales the expected counters to match.
    """
    run_metrics = ExecutionMetrics()
    result = SSJoin(left, right, predicate).execute(
        implementation, metrics=run_metrics, workers=workers
    )
    metrics = ExecutionMetrics()
    for _ in range(ssjoin_runs):
        metrics.merge(run_metrics)
    pairs = naive.relation(result.pairs.column_names, result.pairs.rows)
    return tail(pairs)[1], metrics


def _execute(left, right, predicate, implementation, batch_size, workers=None):
    plan = _build_plan(left, right, predicate, implementation)
    metrics = ExecutionMetrics()
    relation = plan.execute(
        ExecutionContext(metrics=metrics, batch_size=batch_size, workers=workers)
    )
    return list(relation.rows), metrics


def _assert_counters_equal(got, expected, label):
    assert got.output_pairs == expected.output_pairs, label
    assert got.candidate_pairs == expected.candidate_pairs, label
    assert got.verify_stats() == expected.verify_stats(), label


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestBatchMatchesRow:
    """The pipeline shape matches the naive row-list evaluator."""

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=25, deadline=None)
    def test_batch_sizes_identical(self, implementation, left, right, predicate):
        expected, oracle_metrics = _oracle(
            left, right, predicate, implementation, _naive_pipeline
        )
        for size in BATCH_SIZES:
            batch_rows, batch_metrics = _execute(
                left, right, predicate, implementation, batch_size=size
            )
            # Exact list equality: same rows, same order, same float bits.
            assert batch_rows == expected, f"batch_size={size}"
            _assert_counters_equal(
                batch_metrics, oracle_metrics, f"batch_size={size}"
            )

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=10, deadline=None)
    def test_workers_times_batch_sizes_identical(
        self, implementation, left, right, predicate
    ):
        for workers in WORKERS:
            # The facade run at the same worker count is the oracle's
            # source: the parallel merge emits canonical sorted order, the
            # one-worker path first-seen order, and the plan follows suit.
            expected, oracle_metrics = _oracle(
                left, right, predicate, implementation, _naive_pipeline,
                workers=workers,
            )
            for size in BATCH_SIZES:
                rows, metrics = _execute(
                    left,
                    right,
                    predicate,
                    implementation,
                    batch_size=size,
                    workers=workers,
                )
                label = f"workers={workers} batch_size={size}"
                assert rows == expected, label
                _assert_counters_equal(metrics, oracle_metrics, label)


#: Vectorized-tail plan shapes layered over the SSJoin source — one per
#: batch kernel family (hash aggregate, HAVING, global aggregate,
#: distinct, build/probe joins, sort-merge, outer join).
TAIL_PLANS = (
    "group-order",
    "having",
    "global-agg",
    "distinct",
    "hash-join",
    "merge-join",
    "left-join",
)


def _tail_plan(kind, left, right, predicate):
    base = SSJoinNode(
        PreparedInput(left),
        PreparedInput(right),
        predicate,
        implementation="prefix",
    )
    if kind == "group-order":
        grouped = GroupBy(
            base,
            ["a_r"],
            [
                agg_count("n"),
                agg_sum("s", col("overlap")),
                agg_min("lo", col("norm_s")),
                agg_max("hi", col("norm_s")),
                agg_avg("mean", col("overlap")),
            ],
        )
        return OrderBy(grouped, [("n", "desc"), "a_r"])
    if kind == "having":
        return GroupBy(base, ["a_s"], [agg_count("n")], having=col("n") >= 2)
    if kind == "global-agg":
        return GroupBy(
            base,
            [],
            [agg_count("n"), agg_sum("s", col("overlap")), agg_avg("mean", col("norm_r"))],
        )
    if kind == "distinct":
        return OrderBy(Distinct(Project(base, ["a_r"])), ["a_r"])
    # Join shapes: grouped match counts probed against the distinct set of
    # partners that won the norm comparison, so the outer join really sees
    # unmatched build rows.
    grouped = GroupBy(base, ["a_r"], [agg_count("n")])
    matched = Distinct(
        Project(Select(base, col("norm_s") <= col("norm_r")), ["a_s"])
    )
    if kind == "hash-join":
        return HashJoin(grouped, matched, keys=[("a_r", "a_s")])
    if kind == "merge-join":
        return MergeJoin(grouped, matched, keys=[("a_r", "a_s")])
    return LeftOuterJoin(grouped, matched, keys=[("a_r", "a_s")])


#: The join shapes read the SSJoin node from both inputs.
_SSJOIN_RUNS = {"hash-join": 2, "merge-join": 2, "left-join": 2}


def _naive_tail(kind):
    """The :func:`_tail_plan` shape *kind* as a naive evaluator."""

    def tail(pairs):
        if kind == "group-order":
            grouped = naive.group_by(
                pairs,
                ["a_r"],
                [
                    ("n", "count", None),
                    ("s", "sum", "overlap"),
                    ("lo", "min", "norm_s"),
                    ("hi", "max", "norm_s"),
                    ("mean", "avg", "overlap"),
                ],
            )
            return naive.order_by(grouped, [("n", True), ("a_r", False)])
        if kind == "having":
            return naive.group_by(
                pairs, ["a_s"], [("n", "count", None)], having=lambda g: g["n"] >= 2
            )
        if kind == "global-agg":
            return naive.group_by(
                pairs,
                [],
                [("n", "count", None), ("s", "sum", "overlap"), ("mean", "avg", "norm_r")],
            )
        if kind == "distinct":
            firsts = naive.distinct(naive.project(pairs, ["a_r"]))
            return naive.order_by(firsts, [("a_r", False)])
        grouped = naive.group_by(pairs, ["a_r"], [("n", "count", None)])
        won = naive.select(pairs, lambda r: r["norm_s"] <= r["norm_r"])
        matched = naive.distinct(naive.project(won, ["a_s"]))
        join = {
            "hash-join": naive.hash_join,
            "merge-join": naive.merge_join,
            "left-join": naive.left_outer_join,
        }[kind]
        return join(grouped, matched, "a_r", "a_s")

    return tail


def _execute_tail(kind, left, right, predicate, batch_size, workers=None):
    plan = _tail_plan(kind, left, right, predicate)
    metrics = ExecutionMetrics()
    relation = plan.execute(
        ExecutionContext(metrics=metrics, batch_size=batch_size, workers=workers)
    )
    return list(relation.rows), metrics


@pytest.mark.parametrize("kind", TAIL_PLANS)
class TestVectorizedTailMatchesRow:
    """Aggregation, sort, distinct and join batch kernels reproduce the
    naive row-list evaluator bit for bit at every morsel capacity."""

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=15, deadline=None)
    def test_batch_sizes_identical(self, kind, left, right, predicate):
        expected, oracle_metrics = _oracle(
            left, right, predicate, "prefix", _naive_tail(kind),
            ssjoin_runs=_SSJOIN_RUNS.get(kind, 1),
        )
        for size in BATCH_SIZES:
            batch_rows, batch_metrics = _execute_tail(
                kind, left, right, predicate, batch_size=size
            )
            assert batch_rows == expected, f"{kind} batch_size={size}"
            _assert_counters_equal(
                batch_metrics, oracle_metrics, f"{kind} batch_size={size}"
            )

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=5, deadline=None)
    def test_workers_fixed_batch_sizes_identical(
        self, kind, left, right, predicate
    ):
        # Parallel SSJoin merges shards in canonical order, which can
        # permute group discovery order relative to the sequential scan —
        # so the oracle is fed the facade's pairs at the same worker count.
        for workers in WORKERS:
            expected, oracle_metrics = _oracle(
                left, right, predicate, "prefix", _naive_tail(kind),
                workers=workers, ssjoin_runs=_SSJOIN_RUNS.get(kind, 1),
            )
            for size in BATCH_SIZES:
                rows, metrics = _execute_tail(
                    kind, left, right, predicate, batch_size=size, workers=workers
                )
                label = f"{kind} workers={workers} batch_size={size}"
                assert rows == expected, label
                _assert_counters_equal(metrics, oracle_metrics, label)


class TestSerialBackendBoundaryAdapter:
    """The serial backend and the sequential fallback share one
    canonical-order relation function."""

    LEFT = {
        "r0": WeightedSet({"a": 0.5, "b": 1.0, "c": 2.0}),
        "r1": WeightedSet({"b": 1.0, "c": 2.0, "d": 0.25}),
        "r2": WeightedSet({"a": 0.5, "e": 1.5}),
        "r3": WeightedSet({"c": 2.0, "e": 1.5, "f": 3.0}),
    }
    RIGHT = {
        "s0": WeightedSet({"a": 0.5, "b": 1.0}),
        "s1": WeightedSet({"c": 2.0, "d": 0.25, "e": 1.5}),
        "s2": WeightedSet({"e": 1.5, "f": 3.0, "g": 0.8}),
    }

    def _relations(self):
        left = PreparedRelation.from_sets(self.LEFT, name="r")
        right = PreparedRelation.from_sets(self.RIGHT, name="s")
        return left, right, OverlapPredicate.absolute(1.0)

    def test_columnar_pairs_and_metrics_match_sequential(self):
        left, right, predicate = self._relations()
        seq_metrics = ExecutionMetrics()
        seq = SSJoin(left, right, predicate).execute(
            "prefix", metrics=seq_metrics
        )
        expected = sorted(seq.pairs.rows, key=canonical_sort_key)
        for workers in WORKERS:
            metrics = ExecutionMetrics()
            result = parallel_ssjoin(
                left,
                right,
                predicate,
                workers=workers,
                implementation="prefix",
                metrics=metrics,
                backend=BACKEND_SERIAL,
            )
            # When shards actually ran, the canonical function hands back
            # a columnar relation — the workers shipped columns and no
            # path re-materialized rows (workers=1 short-circuits to the
            # sequential engine, whose output stays row-backed).
            if result.parallel.mode != "sequential":
                assert isinstance(result.pairs, ColumnarRelation), workers
            assert list(result.pairs.rows) == expected, workers
            _assert_counters_equal(metrics, seq_metrics, workers)

    def test_sequential_fallback_uses_same_adapter(self):
        # workers="auto" on a tiny input resolves to the in-process
        # sequential path, which flows through the same
        # _canonical_relation function as the merged parallel result.
        left, right, predicate = self._relations()
        result = parallel_ssjoin(
            left,
            right,
            predicate,
            workers="auto",
            implementation="prefix",
            backend=BACKEND_SERIAL,
        )
        rows = list(result.pairs.rows)
        assert rows == sorted(rows, key=canonical_sort_key)
