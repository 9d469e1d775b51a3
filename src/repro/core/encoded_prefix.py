"""Encoded prefix-filter SSJoin: Figure 8 over integer id columns.

Same logical plan as :mod:`repro.core.prefix_filter` — β-prefix both
sides, equi-join prefixes for candidates, verify full overlaps — but run
over :class:`~repro.core.encoded.EncodedPreparedRelation` columns:

1. **Prefix extraction** is a cumulative-weight walk over each group's
   weight array; the kept prefix is a leading *slice* of the id array
   (ids are stored in the ordering ``O``), no per-element key calls.
2. **Candidate enumeration** probes an ``int id -> [right group]``
   inverted index built from the right prefixes.
3. **Verification** replaces Figure 8's two hash-joins-back-to-base (the
   regroup step) with a merge-intersection kernel over the two groups'
   full sorted id arrays, summing left-side weights of shared ids — the
   same ``SUM(R.w)`` every other implementation computes.  By default
   candidates first pass through the :mod:`repro.core.verify` engine,
   which kills most non-qualifying pairs with bitmap and positional
   bounds before any merge runs and early-exits the merges it does run;
   pass ``verify_config=VerifyConfig.disabled()`` for the plain path.

Output is a :data:`~repro.core.basic.RESULT_SCHEMA` relation with exactly
the rows of the tuple-based plans (row order may differ; overlap values
agree to float round-off, absorbed by the shared ``OVERLAP_EPSILON``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.encoded import EncodedPreparedRelation, encode_pair
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREFIX,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OVERLAP_EPSILON, OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import VerifyConfig, engine_for_encoded
from repro.relational.batch import ColumnarRelation
from repro.relational.relation import Relation

__all__ = [
    "encoded_prefix_ssjoin",
    "group_prefix_lengths",
    "merge_overlap",
    "prefix_id_frequencies",
    "prefix_length",
]


def prefix_length(weights: Sequence[float], beta: float) -> int:
    """Length of the shortest prefix whose cumulative weight exceeds *beta*.

    Mirrors :func:`repro.core.prefixes.prefix_of_sorted` exactly: 0 when
    ``beta < 0`` (the group can never qualify), the whole array when no
    proper prefix exceeds β.
    """
    if beta < 0:
        return 0
    cumulative = 0.0
    for i, w in enumerate(weights):
        cumulative += w
        if cumulative > beta:
            return i + 1
    return len(weights)


def merge_overlap(
    left_ids: Sequence[int],
    left_weights: Sequence[float],
    right_ids: Sequence[int],
) -> float:
    """Merge-intersection kernel: ``SUM(left weight)`` over shared ids.

    Both id arrays are sorted ascending (the ordering ``O``), so one
    linear pass finds the intersection without hashing.
    """
    i = j = 0
    n_left = len(left_ids)
    n_right = len(right_ids)
    total = 0.0
    while i < n_left and j < n_right:
        li = left_ids[i]
        rj = right_ids[j]
        if li == rj:
            total += left_weights[i]
            i += 1
            j += 1
        elif li < rj:
            i += 1
        else:
            j += 1
    return total


def group_prefix_lengths(
    encoded: EncodedPreparedRelation, bound_fn: Callable[[float], float]
) -> List[int]:
    """β-prefix length per group (β widened by the shared epsilon, as in
    the tuple plans, so boundary pairs are never pruned).

    Public because the parallel executor computes prefixes once in the
    parent process and ships the lengths to token-range shard workers.

    Memoized on ``encoded.prefix_cache``: the lengths are a pure function
    of the encoding and the predicate bound, and a cached encoding (the
    normal case via :class:`~repro.core.encoded.EncodingCache`) is
    executed against many times — per sweep repeat, per worker count —
    so the per-group recomputation is pure waste after the first call.
    Predicates are frozen/hashable; an unhashable bound owner skips the
    cache rather than failing.
    """
    key = _bound_key(bound_fn)
    if key is not None:
        cached = encoded.prefix_cache.get(key)
        if cached is not None:
            return cached
    norms = encoded.norms
    set_norms = encoded.set_norms
    weights = encoded.weights
    lengths = [
        prefix_length(weights[g], set_norms[g] - bound_fn(norms[g]) + OVERLAP_EPSILON)
        for g in range(len(weights))
    ]
    if key is not None:
        encoded.prefix_cache[key] = lengths
    return lengths


def prefix_id_frequencies(
    encoded: EncodedPreparedRelation, bound_fn: Callable[[float], float]
) -> Dict[int, int]:
    """Id histogram of the β-prefixes: how many groups keep each id in
    their prefix (the leading :func:`group_prefix_lengths` ids).

    Memoized on ``encoded.prefix_cache`` beside the lengths, for the
    cost model's repeated plans against one cached encoding. Callers
    must not mutate the returned dict.
    """
    key = _bound_key(bound_fn)
    memo_key = None if key is None else ("prefix-frequencies",) + key
    if memo_key is not None:
        cached = encoded.prefix_cache.get(memo_key)
        if cached is not None:
            return cached
    lengths = group_prefix_lengths(encoded, bound_fn)
    ids = encoded.ids
    freq: Dict[int, int] = Counter(
        chain.from_iterable(ids[g][:k] for g, k in enumerate(lengths) if k)
    )
    if memo_key is not None:
        encoded.prefix_cache[memo_key] = freq
    return freq


def _bound_key(bound_fn: Callable[[float], float]) -> Optional[Tuple[Any, ...]]:
    """Memo key of a predicate bound method: ``(name, predicate)``, or
    ``None`` when the owner is unhashable (mutable predicates skip the
    memo rather than fail)."""
    try:
        owner = bound_fn.__self__
        hash(owner)
    except (AttributeError, TypeError):
        return None
    return (getattr(bound_fn, "__name__", None), owner)


def encoded_prefix_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    encoding: Optional[Tuple[EncodedPreparedRelation, EncodedPreparedRelation]] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> Relation:
    """Execute the encoded Figure 8 plan; returns a RESULT_SCHEMA relation.

    *ordering* selects the dictionary order (default: joint frequency,
    identical to :func:`~repro.core.ordering.frequency_ordering`). Pass a
    prebuilt *encoding* pair to skip the cache lookup entirely.
    *verify_config* tunes the verification engine (None = auto).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "encoded-prefix"

    with m.phase(PHASE_PREP):
        if encoding is None:
            enc_left, enc_right, _ = encode_pair(left, right, ordering, metrics=m)
        else:
            enc_left, enc_right = encoding
        m.prepared_rows += enc_left.num_elements + enc_right.num_elements

    with m.phase(PHASE_PREFIX):
        left_prefix = group_prefix_lengths(enc_left, predicate.left_filter_threshold)
        right_prefix = group_prefix_lengths(enc_right, predicate.right_filter_threshold)
        m.prefix_rows += sum(left_prefix) + sum(right_prefix)

    with m.phase(PHASE_SSJOIN):
        # Inverted index over the right prefixes: id -> [right group pos].
        index: Dict[int, List[int]] = {}
        right_ids = enc_right.ids
        for g, k in enumerate(right_prefix):
            ids = right_ids[g]
            for t in ids[:k]:
                index.setdefault(t, []).append(g)

        # Probe left prefixes; dedup to candidate pairs per left group.
        candidates: List[Tuple[int, List[int]]] = []
        left_ids = enc_left.ids
        probe_rows = 0
        for g, k in enumerate(left_prefix):
            if k == 0:
                continue
            matched: set = set()
            for t in left_ids[g][:k]:
                postings = index.get(t)
                if postings:
                    probe_rows += len(postings)
                    matched.update(postings)
            if matched:
                candidates.append((g, sorted(matched)))
                m.candidate_pairs += len(matched)
        m.equijoin_rows += probe_rows

    with m.phase(PHASE_FILTER):
        left_keys = enc_left.keys
        right_keys = enc_right.keys
        left_weights = enc_left.weights
        left_norms = enc_left.norms
        right_norms = enc_right.norms
        engine = engine_for_encoded(
            enc_left, enc_right, predicate, left_prefix, right_prefix,
            config=verify_config,
        )
        if engine is not None:
            columns = engine.verify_candidates_columns(
                candidates, left_keys, right_keys
            )
            engine.flush(m)
        else:
            # Fallback merge loop emits the same five parallel columns the
            # engine does, so both paths feed the batch protocol tuple-free.
            col_ar: List[object] = []
            col_as: List[object] = []
            col_ov: List[float] = []
            col_nr: List[float] = []
            col_ns: List[float] = []
            satisfied = predicate.satisfied
            for g, matches in candidates:
                lids = left_ids[g]
                lw = left_weights[g]
                norm_r = left_norms[g]
                a_r = left_keys[g]
                for h in matches:
                    overlap = merge_overlap(lids, lw, right_ids[h])
                    norm_s = right_norms[h]
                    if satisfied(overlap, norm_r, norm_s):
                        col_ar.append(a_r)
                        col_as.append(right_keys[h])
                        col_ov.append(overlap)
                        col_nr.append(norm_r)
                        col_ns.append(norm_s)
            columns = (col_ar, col_as, col_ov, col_nr, col_ns)
        result = ColumnarRelation(RESULT_SCHEMA, columns)
        m.output_pairs += len(result)
    return result
