"""Encoded index-probe SSJoin: the [13]-style inverted index over int ids.

The tuple-based :mod:`repro.core.index` plan probes a hash index keyed by
``(token, ordinal)`` tuples and sorts every probe group with a Python key
function. Here the index maps dense ``int`` ids to postings arrays and
each probe group's elements already sit in a sorted id array, so

* the discovery pass walks the group's leading β-prefix *slice*,
* the completion pass walks the remaining suffix slice, updating only
  candidates discovered earlier (the OptMerge discount), and
* every index lookup hashes a machine int instead of a tuple.

Identical output to :func:`repro.core.index.index_probe_ssjoin` (same
Lemma 1 argument: the whole right side is indexed, i.e. the right filter
threshold is zero).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.encoded import EncodedPair, EncodedPreparedRelation, encode_pair
from repro.core.encoded_prefix import prefix_length
from repro.core.metrics import (
    PHASE_FILTER,
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

__all__ = ["EncodedInvertedIndex", "encoded_index_probe_ssjoin"]


class EncodedInvertedIndex:
    """``int id -> [(right group pos, weight)]`` over an encoded relation."""

    __slots__ = ("encoded", "_postings")

    def __init__(self, encoded: EncodedPreparedRelation) -> None:
        self.encoded = encoded
        postings: Dict[int, List[Tuple[int, float]]] = {}
        for g, ids in enumerate(encoded.ids):
            weights = encoded.weights[g]
            for i, t in enumerate(ids):
                postings.setdefault(t, []).append((g, weights[i]))
        self._postings = postings

    def postings(self, token_id: int) -> List[Tuple[int, float]]:
        return self._postings.get(token_id, [])

    @property
    def num_elements(self) -> int:
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        return sum(len(p) for p in self._postings.values())

    def __repr__(self) -> str:
        return (
            f"EncodedInvertedIndex(elements={self.num_elements}, "
            f"postings={self.num_postings})"
        )


def encoded_index_probe_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    index: Optional[EncodedInvertedIndex] = None,
    verify_config: Optional[VerifyConfig] = None,
    encoding: Optional[EncodedPair] = None,
) -> Relation:
    """Probe-side encoded SSJoin; returns a RESULT_SCHEMA relation.

    Pass a prebuilt *encoding* pair to skip the cache lookup, or a
    prebuilt *index* (whose encoded relation must share the dictionary
    that will encode *left*) to amortize construction across a lookup
    workload.  Between the discovery and completion passes the
    verification engine drops candidates whose bitmap bound or
    ``partial + left-suffix-weight`` bound cannot reach the pair
    threshold, so the completion pass updates (and the final check
    examines) only survivors; *verify_config* tunes it (None = auto).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "encoded-probe"

    with m.phase(PHASE_PREP):
        if index is None:
            if encoding is None:
                enc_left, enc_right, _ = encode_pair(left, right, ordering, metrics=m)
            else:
                enc_left, enc_right = encoding
            index = EncodedInvertedIndex(enc_right)
        else:
            # Probe against a prebuilt index: the probe side must speak the
            # index's dictionary. Lenient encoding gives elements unknown to
            # that dictionary past-the-end ids, which match no posting.
            enc_left = EncodedPreparedRelation(
                left, index.encoded.dictionary, lenient=True
            )
        m.prepared_rows += enc_left.num_elements + index.num_postings

    enc_right = index.encoded
    # Admitted pairs accumulate as five parallel RESULT_SCHEMA columns —
    # the engine-wide columnar output shape (see encoded_prefix).
    col_ar: List[object] = []
    col_as: List[object] = []
    col_ov: List[float] = []
    col_nr: List[float] = []
    col_ns: List[float] = []
    with m.phase(PHASE_SSJOIN):
        right_keys = enc_right.keys
        right_norms = enc_right.norms
        left_threshold = predicate.left_filter_threshold
        satisfied = predicate.satisfied
        get_postings = index.postings
        # Prefix lengths are computed inline below; the engine only runs
        # prune_partial, which never reads them.
        engine = engine_for_encoded(
            enc_left, enc_right, predicate, (), (), config=verify_config
        )
        for g, lids in enumerate(enc_left.ids):
            lw = enc_left.weights[g]
            norm_r = enc_left.norms[g]
            beta = enc_left.set_norms[g] - left_threshold(norm_r) + OVERLAP_EPSILON
            k = prefix_length(lw, beta)
            if k == 0:
                continue

            # Discovery pass: only prefix ids can introduce candidates.
            overlaps: Dict[int, float] = {}
            for i in range(k):
                postings = get_postings(lids[i])
                if postings:
                    w = lw[i]
                    for h, _w_s in postings:
                        overlaps[h] = overlaps.get(h, 0.0) + w
            if not overlaps:
                continue
            m.candidate_pairs += len(overlaps)
            # equijoin_rows counts discovered candidates (pre-prune), as
            # in the unfiltered plan, where it equals the discovery count.
            m.equijoin_rows += len(overlaps)

            if engine is not None:
                overlaps = engine.prune_partial(g, k, overlaps)
                if not overlaps:
                    continue

            # Completion pass: suffix ids only grow known candidates.
            for i in range(k, len(lids)):
                postings = get_postings(lids[i])
                if postings:
                    w = lw[i]
                    for h, _w_s in postings:
                        if h in overlaps:
                            overlaps[h] += w

            a_r = enc_left.keys[g]
            for h, overlap in overlaps.items():
                norm_s = right_norms[h]
                if satisfied(overlap, norm_r, norm_s):
                    col_ar.append(a_r)
                    col_as.append(right_keys[h])
                    col_ov.append(overlap)
                    col_nr.append(norm_r)
                    col_ns.append(norm_s)
        if engine is not None:
            engine.flush(m)

    with m.phase(PHASE_FILTER):
        result = ColumnarRelation(
            RESULT_SCHEMA, (col_ar, col_as, col_ov, col_nr, col_ns)
        )
        m.output_pairs += len(result)
    return result
