"""Unit tests for the cost model and implementation chooser."""

import pytest

from repro.core.optimizer import IMPLEMENTATIONS, CostModel, choose_implementation
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import ssjoin
from repro.tokenize.words import words


def skewed_relation(n: int = 60) -> PreparedRelation:
    """Every group shares the heavy token 'the'; tails are rare."""
    values = [f"the token{i} extra{i}" for i in range(n)]
    return PreparedRelation.from_strings(values, words)


class TestEstimates:
    def test_all_implementations_costed(self):
        rel = skewed_relation()
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        assert {e.implementation for e in estimates} == set(IMPLEMENTATIONS)
        assert all(e.cost > 0 for e in estimates)

    def test_sorted_cheapest_first(self):
        rel = skewed_relation()
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        costs = [e.cost for e in estimates]
        assert costs == sorted(costs)

    def test_basic_estimate_matches_histogram_join_size(self):
        rel = skewed_relation(20)
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        basic = next(e for e in estimates if e.implementation == "basic")
        # Self equi-join: 'the' occurs in all 20 groups -> >= 400 rows.
        assert basic.details["equijoin_rows"] >= 400

    def test_prefix_details_present(self):
        rel = skewed_relation(20)
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        prefix = next(e for e in estimates if e.implementation == "prefix")
        assert "prefix_rows" in prefix.details
        assert prefix.details["prefix_join_rows"] <= basic_join_rows(estimates)

    def test_repr(self):
        rel = skewed_relation(5)
        est = choose_implementation(rel, rel, OverlapPredicate.two_sided(0.9))
        assert est.implementation in repr(est)


def basic_join_rows(estimates):
    return next(e for e in estimates if e.implementation == "basic").details[
        "equijoin_rows"
    ]


class TestChoice:
    def test_high_threshold_on_skew_prefers_prefix_family(self):
        """Under heavy skew and a tight predicate, the filtered plans must
        be costed below basic — the paper's Figure 12 regime."""
        rel = skewed_relation(80)
        est = choose_implementation(rel, rel, OverlapPredicate.two_sided(0.95))
        assert est.implementation in (
            "prefix", "inline", "probe", "encoded-prefix", "encoded-probe",
        )

    def test_chooser_returns_minimum(self):
        rel = skewed_relation(30)
        pred = OverlapPredicate.two_sided(0.9)
        model = CostModel()
        best = choose_implementation(rel, rel, pred, model=model)
        all_est = model.estimate_all(rel, rel, pred)
        assert best.cost == min(e.cost for e in all_est)

    def test_auto_execution_is_correct_whatever_it_picks(self):
        rel = skewed_relation(25)
        pred = OverlapPredicate.two_sided(0.9)
        auto = ssjoin(rel, rel, pred, implementation="auto")
        basic = ssjoin(rel, rel, pred, implementation="basic")
        assert auto.pair_set() == basic.pair_set()
        assert auto.cost_estimate is not None


class TestCalibration:
    def test_calibrated_model_usable_by_chooser(self):
        from repro.core.optimizer import calibrate_cost_model

        rel = skewed_relation(30)
        pred = OverlapPredicate.two_sided(0.9)
        model = calibrate_cost_model(rel, rel, pred, repeats=1)
        estimates = model.estimate_all(rel, rel, pred)
        assert {e.implementation for e in estimates} == set(IMPLEMENTATIONS)
        assert all(e.cost > 0 for e in estimates)
        best = choose_implementation(rel, rel, pred, model=model)
        assert best.cost == min(e.cost for e in estimates)

    def test_calibration_improves_or_preserves_pick_on_sample(self):
        """After calibration against a sample, the chooser's pick on that
        same sample must be one of the measured-fastest plans (sanity:
        calibration is self-consistent)."""
        import time

        from repro.core.optimizer import calibrate_cost_model
        from repro.core.ssjoin import SSJoin

        rel = skewed_relation(50)
        pred = OverlapPredicate.two_sided(0.9)
        model = calibrate_cost_model(rel, rel, pred, repeats=1)
        pick = choose_implementation(rel, rel, pred, model=model).implementation

        op = SSJoin(rel, rel, pred)
        times = {}
        for impl in IMPLEMENTATIONS:
            start = time.perf_counter()
            op.execute(impl)
            times[impl] = time.perf_counter() - start
        fastest = min(times, key=times.get)
        # timing noise: accept any plan within 3x of the fastest
        assert times[pick] <= times[fastest] * 3.0


def _count_calls(monkeypatch, owner, name):
    """Replace *owner.name* with a counting wrapper wherever a ``repro``
    module or class holds it; returns the one-slot call counter."""
    import sys

    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestPlanningInput:
    def test_context_cache_holding_the_pair_charges_no_encode(self):
        from repro.core.encoded import EncodingCache, encoding_tier
        from repro.core.ssjoin import SSJoin

        values = [f"ctx cache {i} road unit{i % 5}" for i in range(40)]
        prepared = PreparedRelation.from_strings(values, words)
        assert encoding_tier(prepared, prepared) is None  # not in the global cache
        cache = EncodingCache()
        cache.encode_pair(prepared, prepared)
        pred = OverlapPredicate.two_sided(0.8)
        for workers in (None, 1):
            result = SSJoin(prepared, prepared, pred).execute(
                "auto", encoding_cache=cache, workers=workers
            )
            assert result.implementation in ("encoded-prefix", "encoded-probe")
            assert result.cost_estimate.details["encode_rows"] == 0.0
        assert cache.misses == 1 and cache.hits == 2

    def test_auto_self_join_plans_over_one_encoding(self, monkeypatch):
        from repro.core import ordering, prefix_filter
        from repro.core.encoded import EncodingCache
        from repro.core.ssjoin import SSJoin

        values = [f"count {i} main st unit{i % 3} city{i % 7}" for i in range(60)]
        prepared = PreparedRelation.from_strings(values, words)
        frequencies = _count_calls(monkeypatch, PreparedRelation, "element_frequencies")
        encodes = _count_calls(monkeypatch, EncodingCache, "encode_pair")
        prefixes = _count_calls(monkeypatch, prefix_filter, "prefix_filter_relation")
        orderings = _count_calls(monkeypatch, ordering, "frequency_ordering")

        result = SSJoin(prepared, prepared, OverlapPredicate.two_sided(0.8)).execute()

        assert result.implementation in ("encoded-prefix", "encoded-probe")
        assert frequencies[0] == 1
        assert encodes[0] == 1
        assert prefixes[0] == 0
        assert orderings[0] == 0
