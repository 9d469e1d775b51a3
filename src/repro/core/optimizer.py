"""Cost-based choice among SSJoin implementations.

Section 5 observes "there is not always a clear winner between the basic
and prefix-filtered implementations", which "motivates the requirement for
a cost-based decision", and Section 7 states the intent to integrate SSJoin
with a query optimizer. This module supplies that optimizer.

The model is deliberately simple and histogram-exact where it can be:

* The **basic** plan's dominant cost is the element equi-join, whose output
  size is computed *exactly* from the element frequency histograms
  (``Σ_t f_R(t)·f_S(t)``), plus grouping that same row count.
* The **prefix** plans' costs are the prefix extraction (sorting each
  group), the far smaller equi-join of prefixes (again histogram-exact,
  over the *actual* β-prefixes), and a verification term — regroup
  joins proportional to candidate-pair set sizes for the plain prefix plan,
  an encoded-set overlap per candidate for the inline plan.
* The **dictionary-encoded** plans (``encoded-prefix``, ``encoded-probe``)
  share the prefix/probe shapes but with integer-native per-row constants,
  plus a one-time encode term that drops to zero when the encoding cache
  already holds this input pair — which is how repeat workloads (sweeps,
  re-planning) automatically route to the fast path.

Every statistic is read off the dictionary-encoded pair the encoded plans
run on (:mod:`repro.core.encoded`). Its ids are assigned in the global
ordering ``O``, so a group's β-prefix is a leading slice of its id array
and every histogram is an int-keyed count: the prefixes are the *actual*
ones, not a guess — the same trick a DBMS plays with sampled statistics,
with the sample rate turned up to 100%. The physical layer resolves that
pair once per op through the run's encoding cache and hands it to both
the cost model and the chosen encoded plan, which reuses the memoized
prefix lengths; no tuple prefix relation or element ordering is built
unless a tuple plan is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.encoded import EncodedPair, build_encoding, encoding_tier
from repro.core.encoded_prefix import group_prefix_lengths, prefix_id_frequencies
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    choose_signature_bits,
    estimated_prune_fraction,
    predicate_strictness,
)
from repro.errors import OptimizerError

__all__ = [
    "CostEstimate",
    "CostModel",
    "calibrate_cost_model",
    "choose_implementation",
]

IMPLEMENTATIONS = (
    "basic",
    "prefix",
    "inline",
    "probe",
    "encoded-prefix",
    "encoded-probe",
)


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one implementation, with its drivers.

    ``cost`` is in abstract row-operation units — only comparisons between
    estimates are meaningful, mirroring the paper's unitless "time units".
    """

    implementation: str
    cost: float
    details: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        drivers = ", ".join(f"{k}={v:.0f}" for k, v in self.details.items())
        return f"CostEstimate({self.implementation}, cost={self.cost:.0f}, {drivers})"


class CostModel:
    """Per-row cost constants, tunable if a deployment calibrates them."""

    #: cost of producing one equi-join output row (hash probe + emit)
    JOIN_ROW = 1.0
    #: cost of hashing one input row into a join or group table
    BUILD_ROW = 0.6
    #: cost of aggregating one row in GROUP BY
    GROUP_ROW = 0.8
    #: cost of sorting one element during prefix extraction
    PREFIX_ELEMENT = 0.4
    #: cost of one regroup-join row during prefix verification
    VERIFY_ROW = 1.2
    #: cost of one encoded-set overlap evaluation per candidate element
    INLINE_ELEMENT = 0.5
    #: fixed per-candidate overhead of the inline UDF call
    INLINE_PAIR = 2.0
    #: discounted cost of a suffix-completion posting visit in the
    #: index-probe plan (only already-discovered candidates are updated)
    PROBE_COMPLETION = 0.3
    #: cost of interning + array-encoding one element into the dictionary
    #: layer (paid only on an encoding-cache miss)
    ENCODE_ELEMENT = 0.15
    #: cost of one merge-intersection step during encoded verification —
    #: an int compare on sorted arrays, far below VERIFY_ROW's regroup-join
    #: row cost
    MERGE_ELEMENT = 0.15
    #: cost of one int-keyed index/posting visit in the encoded plans
    #: (discovery probes and index builds)
    ENCODED_POSTING = 0.35
    #: cost of one verification-engine bound evaluation per candidate
    #: (XOR-popcount plus the positional check — paid before any merge)
    VERIFY_BOUND = 0.4
    #: cost of packing one element into a bit signature (paid alongside
    #: the encode term, i.e. only on an encoding-cache miss)
    SIGNATURE_ELEMENT = 0.05
    #: cost of reading one 4 KiB page from a persisted encoding (mmap
    #: fault + checksum + array adoption) — charged instead of
    #: ENCODE_ELEMENT when the encoding cache's disk tier holds the pair
    PAGE_IO = 8.0
    #: estimated on-disk bytes per encoded element (one i64 id + one f64
    #: weight), used to convert element counts into page counts
    BYTES_PER_ELEMENT = 16
    #: fixed cost of forking + warming up one worker process
    PARALLEL_SPAWN = 2500.0
    #: per-shard submit/pickle/result overhead of one pool task
    PARALLEL_TASK = 40.0
    #: per-element cost of shipping the payload to one worker
    #: (pickle + unpickle of the columnar arrays or prepared groups)
    PARALLEL_SHIP = 0.08

    def estimate_all(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        predicate: OverlapPredicate,
        ordering: Optional[ElementOrdering] = None,
        encoding: Optional[EncodedPair] = None,
        tier: Optional[str] = None,
    ) -> List[CostEstimate]:
        """Cost every implementation; cheapest first.

        *encoding* is the ``(left, right)`` encoded pair the encoded plans
        will run on, and *tier* the encoding-cache tier that served it
        (``"memory"`` / ``"disk"`` / ``None``), read *before* it was
        resolved. Without *encoding* the pair is built here, outside every
        cache, under *ordering* (joint frequency when ``None``), and the
        tier is probed on the global cache — so a bare call leaves cache
        contents and counters unchanged.
        """
        if encoding is None:
            # A bare caller cannot say whether *ordering* was defaulted,
            # and the facade encodes under the user's key (None when
            # defaulted), so probe both cache keys.
            tier = encoding_tier(left, right, None)
            if tier is None and ordering is not None:
                tier = encoding_tier(left, right, ordering)
            enc_left, enc_right, _ = build_encoding(left, right, ordering)
        else:
            enc_left, enc_right = encoding

        lfreq = enc_left.id_frequencies()
        rfreq = enc_right.id_frequencies()
        join_rows = float(_join_size(lfreq, rfreq))
        n_left = left.num_elements
        n_right = right.num_elements

        basic = CostEstimate(
            "basic",
            self.BUILD_ROW * (n_left + n_right)
            + self.JOIN_ROW * join_rows
            + self.GROUP_ROW * join_rows,
            {"equijoin_rows": join_rows, "input_rows": n_left + n_right},
        )

        # Price the filtered join exactly over the real β-prefixes: leading
        # slices of the id arrays, lengths memoized for the encoded plan.
        left_bound = predicate.left_filter_threshold
        right_bound = predicate.right_filter_threshold
        lprefix = group_prefix_lengths(enc_left, left_bound)
        rprefix = group_prefix_lengths(enc_right, right_bound)
        plfreq = prefix_id_frequencies(enc_left, left_bound)
        prfreq = (
            plfreq
            if enc_right is enc_left and rprefix == lprefix
            else prefix_id_frequencies(enc_right, right_bound)
        )
        prefix_join_rows = float(_join_size(plfreq, prfreq))
        prefix_rows = float(sum(lprefix) + sum(rprefix))
        prefix_cost = self.PREFIX_ELEMENT * (n_left + n_right)

        avg_left = n_left / max(left.num_groups, 1)
        avg_right = n_right / max(right.num_groups, 1)
        # Candidate pairs are at most the filtered join rows; use that as
        # the (pessimistic) estimate of pairs needing verification.
        candidates = prefix_join_rows

        prefix = CostEstimate(
            "prefix",
            prefix_cost
            + self.BUILD_ROW * prefix_rows
            + self.JOIN_ROW * prefix_join_rows
            + self.VERIFY_ROW * candidates * (avg_left + avg_right)
            + self.GROUP_ROW * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": prefix_rows,
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
            },
        )

        inline = CostEstimate(
            "inline",
            prefix_cost
            + self.BUILD_ROW * prefix_rows
            + self.JOIN_ROW * prefix_join_rows
            + self.INLINE_PAIR * candidates
            + self.INLINE_ELEMENT * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": prefix_rows,
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
            },
        )

        # Index-probe plan ([13]-style): build an index over the right
        # side, probe left prefixes to discover candidates, complete with
        # suffix elements (touching only already-known candidates, hence
        # the completion discount).
        left_prefix_probe_rows = float(_join_size(plfreq, rfreq))
        suffix_rows = max(join_rows - left_prefix_probe_rows, 0.0)
        probe = CostEstimate(
            "probe",
            self.BUILD_ROW * n_right
            + self.JOIN_ROW * left_prefix_probe_rows
            + self.PROBE_COMPLETION * suffix_rows,
            {
                "index_postings": float(n_right),
                "probe_rows": left_prefix_probe_rows,
                "completion_rows": suffix_rows,
            },
        )

        # Dictionary-encoded plans: the same shapes as prefix/probe but
        # with int-native per-row costs, plus a one-time encode term that
        # the encoding cache amortizes away on repeat workloads.
        cached = tier == "memory"
        if cached:
            encode_cost = 0.0
        elif tier == "disk":
            # A persisted encoding exists: charge page I/O for decoding
            # the columnar arrays instead of the per-element re-encode.
            from repro.storage.pages import PAGE_SIZE

            est_pages = 1.0 + (n_left + n_right) * self.BYTES_PER_ELEMENT / PAGE_SIZE
            encode_cost = self.PAGE_IO * est_pages
        else:
            encode_cost = self.ENCODE_ELEMENT * (n_left + n_right)

        # Verification-engine factors. The engine bypasses itself (width
        # 0) on loose predicates, in which case every extra term vanishes
        # and the encoded costs reduce to the engine-off model exactly.
        n_groups = left.num_groups + right.num_groups
        mean_norm = (
            (sum(left.norms.values()) + sum(right.norms.values())) / n_groups
            if n_groups
            else 0.0
        )
        strictness = predicate_strictness(predicate, mean_norm)
        verify_bits = choose_signature_bits(len(lfreq) + len(rfreq), strictness)
        prune = estimated_prune_fraction(strictness) if verify_bits else 0.0
        signature_cost = (
            0.0 if cached or not verify_bits else self.SIGNATURE_ELEMENT * (n_left + n_right)
        )

        encoded_prefix = CostEstimate(
            "encoded-prefix",
            encode_cost
            + signature_cost
            + self.ENCODED_POSTING * (prefix_rows + prefix_join_rows)
            + (self.VERIFY_BOUND * candidates if verify_bits else 0.0)
            + self.MERGE_ELEMENT * candidates * (1.0 - prune) * (avg_left + avg_right),
            {
                "encode_rows": 0.0 if cached else float(n_left + n_right),
                "prefix_rows": prefix_rows,
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
                "est_prune_fraction": prune,
            },
        )
        encoded_probe = CostEstimate(
            "encoded-probe",
            encode_cost
            + signature_cost
            + self.ENCODED_POSTING * (n_right + left_prefix_probe_rows)
            + (self.VERIFY_BOUND * left_prefix_probe_rows if verify_bits else 0.0)
            + self.PROBE_COMPLETION * 0.5 * suffix_rows * (1.0 - prune),
            {
                "encode_rows": 0.0 if cached else float(n_left + n_right),
                "index_postings": float(n_right),
                "probe_rows": left_prefix_probe_rows,
                "completion_rows": suffix_rows,
                "est_prune_fraction": prune,
            },
        )

        return sorted(
            [basic, prefix, inline, probe, encoded_prefix, encoded_probe],
            key=lambda e: e.cost,
        )

    def parallel_cost(
        self,
        sequential_cost: float,
        workers: int,
        ship_elements: int,
        oversplit: int = 4,
    ) -> float:
        """Modeled cost of running a *sequential_cost* plan on *workers*.

        Per-shard work divides across workers (the shard planners
        balance; oversplit + largest-first dispatch absorbs skew), while
        three overheads are added back: process spawn per worker, task
        dispatch per shard, and payload shipping — *ship_elements* set
        elements pickled to every worker.  ``workers <= 1`` is exactly
        the sequential cost, which is what makes ``workers="auto"``'s
        crossover safe: below it the scheduler resolves to 1 and the
        executor never spawns.
        """
        if workers <= 1:
            return sequential_cost
        n_shards = workers * max(oversplit, 1)
        return (
            sequential_cost / workers
            + self.PARALLEL_SPAWN * workers
            + self.PARALLEL_TASK * n_shards
            + self.PARALLEL_SHIP * ship_elements * workers
        )


def calibrate_cost_model(
    sample_left: PreparedRelation,
    sample_right: PreparedRelation,
    predicate: OverlapPredicate,
    repeats: int = 2,
) -> CostModel:
    """Fit the cost constants to this machine by timing a sample workload.

    Runs each implementation on the sample, then scales the model's
    per-row constants so predicted costs are proportional to the measured
    times (least-squares on the ratio, one scale factor per plan family).
    The *relative* constants within a plan keep their defaults; only the
    plan-level scale is fit, which is what the chooser's comparisons need.
    Returns a new :class:`CostModel` subclass instance; the default model
    is untouched.
    """
    import time as _time

    from repro.core.ssjoin import SSJoin

    base = CostModel()
    estimates = {e.implementation: e.cost for e in base.estimate_all(
        sample_left, sample_right, predicate
    )}
    measured: Dict[str, float] = {}
    op = SSJoin(sample_left, sample_right, predicate)
    for impl in IMPLEMENTATIONS:
        best = float("inf")
        for _ in range(max(repeats, 1)):
            start = _time.perf_counter()
            op.execute(impl)
            best = min(best, _time.perf_counter() - start)
        measured[impl] = best

    # One scale per implementation family: seconds per abstract cost unit.
    scales = {
        impl: measured[impl] / estimates[impl] if estimates[impl] else 1.0
        for impl in IMPLEMENTATIONS
    }

    class CalibratedModel(CostModel):
        """Cost model rescaled to the measured machine profile."""

        _SCALES = scales

        def estimate_all(
            self,
            left: PreparedRelation,
            right: PreparedRelation,
            predicate: OverlapPredicate,
            ordering: Optional[ElementOrdering] = None,
            encoding: Optional[EncodedPair] = None,
            tier: Optional[str] = None,
        ) -> List[CostEstimate]:
            raw = CostModel.estimate_all(
                self, left, right, predicate, ordering, encoding, tier
            )
            rescaled = [
                CostEstimate(
                    e.implementation,
                    e.cost * self._SCALES.get(e.implementation, 1.0),
                    e.details,
                )
                for e in raw
            ]
            return sorted(rescaled, key=lambda e: e.cost)

    return CalibratedModel()


def choose_implementation(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    model: Optional[CostModel] = None,
    encoding: Optional[EncodedPair] = None,
    tier: Optional[str] = None,
) -> CostEstimate:
    """Pick the cheapest implementation under the cost model.

    *encoding* and *tier* are passed through to
    :meth:`CostModel.estimate_all`.
    """
    estimates = (model or CostModel()).estimate_all(
        left, right, predicate, ordering, encoding, tier
    )
    if not estimates:
        raise OptimizerError("no implementations could be costed")
    return estimates[0]


def _join_size(left: Dict[int, int], right: Dict[int, int]) -> int:
    """Exact equi-join output size of two id histograms,
    ``Σ_t f_L(t)·f_R(t)``, iterating the smaller one."""
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    total = 0
    for token, count in small.items():
        other = large.get(token)
        if other:
            total += count * other
    return total

