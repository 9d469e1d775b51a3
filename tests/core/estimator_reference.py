"""Reference cost estimator: statistics from tuple prefix relations.

This is the cost model's original method, kept as the oracle for
:meth:`repro.core.optimizer.CostModel.estimate_all`. It builds the
element ordering ``O`` (joint frequency unless one is given), extracts
both sides' β-prefixes as tuple relations with
:func:`~repro.core.prefix_filter.prefix_filter_relation`, and histograms
them with :class:`~repro.relational.stats.ColumnStats`. The engine reads
the same numbers off the dictionary-encoded pair instead; the two must
agree to the last bit. The per-row constants are read off the model, so
the reference follows any tuned or calibrated constants.
"""

from typing import List, Optional

from repro.core.encoded import EncodingCache, encoding_tier
from repro.core.optimizer import CostEstimate, CostModel
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prefix_filter import prefix_filter_relation
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    choose_signature_bits,
    estimated_prune_fraction,
    predicate_strictness,
)
from repro.relational.stats import ColumnStats, estimate_equijoin_size


def _element_stats(prepared: PreparedRelation) -> ColumnStats:
    freq = dict(prepared.element_frequencies())
    return ColumnStats(
        num_rows=prepared.num_elements, num_distinct=len(freq), frequencies=freq
    )


def reference_tier(
    left: PreparedRelation,
    right: PreparedRelation,
    ordering: Optional[ElementOrdering],
    cache: Optional[EncodingCache] = None,
) -> Optional[str]:
    """The tier probe of a bare estimate: the default key, then *ordering*'s."""
    tier = encoding_tier(left, right, None, cache=cache)
    if tier is None and ordering is not None:
        tier = encoding_tier(left, right, ordering, cache=cache)
    return tier


def reference_estimates(
    model: CostModel,
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    tier: Optional[str] = None,
) -> List[CostEstimate]:
    """Every implementation's estimate, cheapest first, priced from tuple
    prefix relations; *tier* is the encoding-cache tier to charge."""
    if ordering is None:
        ordering = frequency_ordering(left, right)

    lstats = _element_stats(left)
    rstats = _element_stats(right)
    join_rows = float(estimate_equijoin_size(lstats, rstats))
    n_left = left.num_elements
    n_right = right.num_elements

    basic = CostEstimate(
        "basic",
        model.BUILD_ROW * (n_left + n_right)
        + model.JOIN_ROW * join_rows
        + model.GROUP_ROW * join_rows,
        {"equijoin_rows": join_rows, "input_rows": n_left + n_right},
    )

    pl = prefix_filter_relation(left, predicate, ordering, side="left")
    pr = prefix_filter_relation(right, predicate, ordering, side="right")
    plstats = ColumnStats.from_relation(pl, "b")
    prstats = ColumnStats.from_relation(pr, "b")
    prefix_join_rows = float(estimate_equijoin_size(plstats, prstats))
    prefix_cost = model.PREFIX_ELEMENT * (n_left + n_right)

    avg_left = n_left / max(left.num_groups, 1)
    avg_right = n_right / max(right.num_groups, 1)
    candidates = prefix_join_rows

    prefix = CostEstimate(
        "prefix",
        prefix_cost
        + model.BUILD_ROW * (len(pl) + len(pr))
        + model.JOIN_ROW * prefix_join_rows
        + model.VERIFY_ROW * candidates * (avg_left + avg_right)
        + model.GROUP_ROW * candidates * min(avg_left, avg_right),
        {
            "prefix_rows": float(len(pl) + len(pr)),
            "prefix_join_rows": prefix_join_rows,
            "est_candidates": candidates,
        },
    )
    inline = CostEstimate(
        "inline",
        prefix_cost
        + model.BUILD_ROW * (len(pl) + len(pr))
        + model.JOIN_ROW * prefix_join_rows
        + model.INLINE_PAIR * candidates
        + model.INLINE_ELEMENT * candidates * min(avg_left, avg_right),
        {
            "prefix_rows": float(len(pl) + len(pr)),
            "prefix_join_rows": prefix_join_rows,
            "est_candidates": candidates,
        },
    )

    left_prefix_probe_rows = float(estimate_equijoin_size(plstats, rstats))
    suffix_rows = max(join_rows - left_prefix_probe_rows, 0.0)
    probe = CostEstimate(
        "probe",
        model.BUILD_ROW * n_right
        + model.JOIN_ROW * left_prefix_probe_rows
        + model.PROBE_COMPLETION * suffix_rows,
        {
            "index_postings": float(n_right),
            "probe_rows": left_prefix_probe_rows,
            "completion_rows": suffix_rows,
        },
    )

    cached = tier == "memory"
    if cached:
        encode_cost = 0.0
    elif tier == "disk":
        from repro.storage.pages import PAGE_SIZE

        est_pages = 1.0 + (n_left + n_right) * model.BYTES_PER_ELEMENT / PAGE_SIZE
        encode_cost = model.PAGE_IO * est_pages
    else:
        encode_cost = model.ENCODE_ELEMENT * (n_left + n_right)

    n_groups = left.num_groups + right.num_groups
    mean_norm = (
        (sum(left.norms.values()) + sum(right.norms.values())) / n_groups
        if n_groups
        else 0.0
    )
    strictness = predicate_strictness(predicate, mean_norm)
    verify_bits = choose_signature_bits(
        lstats.num_distinct + rstats.num_distinct, strictness
    )
    prune = estimated_prune_fraction(strictness) if verify_bits else 0.0
    signature_cost = (
        0.0 if cached or not verify_bits else model.SIGNATURE_ELEMENT * (n_left + n_right)
    )

    encoded_prefix = CostEstimate(
        "encoded-prefix",
        encode_cost
        + signature_cost
        + model.ENCODED_POSTING * (len(pl) + len(pr) + prefix_join_rows)
        + (model.VERIFY_BOUND * candidates if verify_bits else 0.0)
        + model.MERGE_ELEMENT * candidates * (1.0 - prune) * (avg_left + avg_right),
        {
            "encode_rows": 0.0 if cached else float(n_left + n_right),
            "prefix_rows": float(len(pl) + len(pr)),
            "prefix_join_rows": prefix_join_rows,
            "est_candidates": candidates,
            "est_prune_fraction": prune,
        },
    )
    encoded_probe = CostEstimate(
        "encoded-probe",
        encode_cost
        + signature_cost
        + model.ENCODED_POSTING * (n_right + left_prefix_probe_rows)
        + (model.VERIFY_BOUND * left_prefix_probe_rows if verify_bits else 0.0)
        + model.PROBE_COMPLETION * 0.5 * suffix_rows * (1.0 - prune),
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
