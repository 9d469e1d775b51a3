"""Worker-side shard execution (runs inside pool processes or inline).

The executor ships each worker ONE pickled payload — via the process
pool's initializer, so it crosses the process boundary once per worker,
not once per shard — and then submits lightweight
:class:`~repro.parallel.shards.ShardDescriptor` tasks against it.

Two payload shapes match the two shard kinds:

* :class:`GroupHashPayload` carries both prepared relations, the
  predicate, the resolved implementation name, and the *global* element
  ordering.  A shard rebuilds its left subset and runs the ordinary
  sequential plan on it; passing the global ordering (rather than letting
  each worker derive one from its subset) keeps every shard's prefixes —
  and therefore the merged candidate/output counts — identical to the
  unsharded run.
* :class:`TokenRangePayload` carries the encoded columnar arrays of both
  sides plus precomputed β-prefix lengths.  A shard builds the inverted
  index restricted to its token range, probes left prefix ids in range,
  and emits only the candidate pairs it *owns*: the pair whose smallest
  common prefix token id falls in ``[lo, hi)``.  Every discovered pair
  has such a token, and it lies in exactly one range, so the union over
  shards enumerates each candidate pair exactly once (and the merged
  ``candidate_pairs`` / ``equijoin_rows`` totals equal the sequential
  plan's).

Determinism: all kernels (prefix slicing, ``merge_overlap``, the
per-pair weight sums) are the sequential plans' own, applied to the same
arrays in the same element order, so overlap values are bit-identical to
the sequential result no matter how work is sharded.
"""

from __future__ import annotations

import pickle
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.encoded_prefix import merge_overlap
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import VerificationEngine, VerifyConfig
from repro.errors import PlanError
from repro.parallel.shards import KIND_GROUP_HASH, KIND_TOKEN_RANGE, ShardDescriptor

__all__ = [
    "GroupHashPayload",
    "StoredTokenRangePayload",
    "TokenRangePayload",
    "ShardResult",
    "execute_shard",
    "init_worker",
    "run_shard",
]


@dataclass(frozen=True)
class GroupHashPayload:
    """Everything a worker needs to run group-hash shards."""

    left: PreparedRelation
    right: PreparedRelation
    predicate: OverlapPredicate
    implementation: str
    ordering: Optional[ElementOrdering]
    #: verification-engine config forwarded to the shard's sequential plan
    #: (appended with a default so hand-pickled payloads stay loadable)
    verify_config: Optional[VerifyConfig] = None


@dataclass(frozen=True)
class TokenRangePayload:
    """Columnar arrays + prefix lengths for token-range shards.

    ``left_ids[g]`` / ``left_weights[g]`` are the sorted parallel arrays
    of :class:`~repro.core.encoded.EncodedPreparedRelation`;
    ``left_prefix[g]`` is group *g*'s β-prefix length under the shared
    dictionary ordering.  Mirrors for the right side (whose weights are
    not needed: overlap sums left-side weights).

    The ``verify_*`` tail carries the resolved verification-engine state
    so every shard prunes locally with the *parent's* signatures — no
    per-worker re-packing, and prune decisions (hence merged per-stage
    counters) identical to the sequential run.  All tail fields default
    to the engine-off state, so hand-built payloads (tests) reproduce
    the pre-engine shard behavior.
    """

    left_keys: Tuple[Any, ...]
    left_ids: Tuple[Sequence[int], ...]
    left_weights: Tuple[Sequence[float], ...]
    left_norms: Tuple[float, ...]
    left_prefix: Tuple[int, ...]
    right_keys: Tuple[Any, ...]
    right_ids: Tuple[Sequence[int], ...]
    right_norms: Tuple[float, ...]
    right_prefix: Tuple[int, ...]
    predicate: OverlapPredicate
    verify_bits: int = 0
    left_signatures: Optional[Tuple[int, ...]] = None
    right_signatures: Optional[Tuple[int, ...]] = None
    left_max_weights: Optional[Tuple[float, ...]] = None
    verify_positional: bool = False
    verify_early_exit: bool = False


@dataclass(frozen=True)
class StoredTokenRangePayload:
    """Page-file refs in place of pickled columns (disk-backed joins).

    When both sides' encodings are disk-backed (``storage_ref`` set —
    attached tables or persistent-tier pair files), the executor ships
    this slim payload instead of :class:`TokenRangePayload`: each worker
    re-opens the page files read-only and adopts the columnar arrays via
    mmap, so the per-worker pickle is a few hundred bytes regardless of
    relation size. :meth:`rehydrate` rebuilds the full payload
    worker-side; every derived quantity (β-prefix lengths, packed
    signatures, max weights) is a deterministic pure function of the
    mapped arrays and the shipped predicate/config, so shard results are
    bit-identical to the fat-payload path.
    """

    left_ref: str
    right_ref: str
    predicate: OverlapPredicate
    verify_bits: int = 0
    verify_positional: bool = False
    verify_early_exit: bool = False

    def rehydrate(self) -> TokenRangePayload:
        # Imported here: repro.storage layers above repro.parallel.
        from repro.core.encoded_prefix import group_prefix_lengths
        from repro.core.verify import max_weights_for, signatures_for
        from repro.storage.store import load_encoded_ref

        enc_left = load_encoded_ref(self.left_ref)
        enc_right = (
            enc_left
            if self.right_ref == self.left_ref
            else load_encoded_ref(self.right_ref)
        )
        left_prefix = group_prefix_lengths(
            enc_left, self.predicate.left_filter_threshold
        )
        right_prefix = group_prefix_lengths(
            enc_right, self.predicate.right_filter_threshold
        )
        nbits = self.verify_bits
        left_sigs = tuple(signatures_for(enc_left, nbits)) if nbits else None
        right_sigs = (
            (
                left_sigs
                if enc_right is enc_left
                else tuple(signatures_for(enc_right, nbits))
            )
            if nbits
            else None
        )
        engine_on = bool(nbits or self.verify_positional or self.verify_early_exit)
        left_ids_t = tuple(enc_left.ids)
        return TokenRangePayload(
            left_keys=tuple(enc_left.keys),
            left_ids=left_ids_t,
            left_weights=tuple(enc_left.weights),
            left_norms=tuple(enc_left.norms),
            left_prefix=tuple(left_prefix),
            right_keys=tuple(enc_right.keys),
            right_ids=left_ids_t if enc_right is enc_left else tuple(enc_right.ids),
            right_norms=tuple(enc_right.norms),
            right_prefix=tuple(right_prefix),
            predicate=self.predicate,
            verify_bits=nbits,
            left_signatures=left_sigs,
            right_signatures=right_sigs,
            left_max_weights=tuple(max_weights_for(enc_left)) if engine_on else None,
            verify_positional=self.verify_positional,
            verify_early_exit=self.verify_early_exit,
        )


Payload = Union[GroupHashPayload, TokenRangePayload]


#: The five parallel RESULT_SCHEMA output columns of one shard.
ResultColumns = Tuple[
    Sequence[Any], Sequence[Any], Sequence[float], Sequence[float], Sequence[float]
]


@dataclass(frozen=True)
class ShardResult:
    """One shard's output, metrics, and busy time (worker-side).

    Output ships as five parallel RESULT_SCHEMA columns — five flat
    sequences pickle far smaller and faster than one tuple per row, and
    the executor's merge extends columns without ever building rows.
    """

    shard_id: int
    columns: ResultColumns
    metrics: ExecutionMetrics
    seconds: float

    @property
    def num_rows(self) -> int:
        return len(self.columns[0])

    @property
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """Row-tuple view, for consumers that read ``.rows``."""
        return tuple(zip(*self.columns)) if self.columns[0] else ()


#: Per-process payload slot, populated once by :func:`init_worker`.
_PAYLOAD: Optional[Payload] = None


def init_worker(payload_bytes: bytes) -> None:
    """Process-pool initializer: unpickle the shared payload once.

    A :class:`StoredTokenRangePayload` rehydrates here — pages are mapped
    and derived state rebuilt once per process, before any shard runs.
    """
    global _PAYLOAD
    payload = pickle.loads(payload_bytes)
    if isinstance(payload, StoredTokenRangePayload):
        payload = payload.rehydrate()
    # The initializer is the one sanctioned global write in a worker: it
    # runs exactly once per process, before any shard, and the slot is
    # read-only afterwards — write-once configuration, not shared state.
    _PAYLOAD = payload  # repro: ignore[DF303]


def run_shard(shard: ShardDescriptor) -> ShardResult:
    """Pool task entry point: run *shard* against the process payload."""
    if _PAYLOAD is None:
        raise PlanError("worker payload not initialized (init_worker not run)")
    return execute_shard(_PAYLOAD, shard)


def execute_shard(payload: Payload, shard: ShardDescriptor) -> ShardResult:
    """Run one shard against an explicit payload (serial backend + pool)."""
    start = time.perf_counter()
    if shard.kind == KIND_GROUP_HASH:
        if not isinstance(payload, GroupHashPayload):
            raise PlanError(f"group-hash shard against {type(payload).__name__}")
        columns, metrics = _run_group_shard(payload, shard)
    elif shard.kind == KIND_TOKEN_RANGE:
        if not isinstance(payload, TokenRangePayload):
            raise PlanError(f"token-range shard against {type(payload).__name__}")
        columns, metrics = _run_token_range_shard(payload, shard)
    else:
        raise PlanError(f"unknown shard kind {shard.kind!r}")
    return ShardResult(
        shard_id=shard.shard_id,
        columns=columns,
        metrics=metrics,
        seconds=time.perf_counter() - start,
    )


def _columns_of(relation: Any) -> "ResultColumns":
    """A relation's five RESULT_SCHEMA columns, transposing only if the
    producing plan was not already columnar."""
    from repro.relational.batch import ColumnarRelation

    if isinstance(relation, ColumnarRelation):
        return relation.columns  # type: ignore[return-value]
    rows = relation.rows
    if not rows:
        return ((), (), (), (), ())
    return tuple(zip(*rows))  # type: ignore[return-value]


def _run_group_shard(
    payload: GroupHashPayload, shard: ShardDescriptor
) -> Tuple["ResultColumns", ExecutionMetrics]:
    # Imported here: repro.core.ssjoin is the facade above this module's
    # callers; the worker only needs it at execution time.
    from repro.core.ssjoin import SSJoin

    keys = list(payload.left.groups)
    groups = {}
    norms = {}
    for g in shard.group_positions:
        a = keys[g]
        groups[a] = payload.left.groups[a]
        norms[a] = payload.left.norms[a]
    subset = PreparedRelation.from_sets(
        groups, norms, name=f"{payload.left.name}[shard{shard.shard_id}]"
    )
    metrics = ExecutionMetrics()
    result = SSJoin(
        subset, payload.right, payload.predicate, ordering=payload.ordering
    ).execute(
        payload.implementation,
        metrics=metrics,
        verify_config=payload.verify_config,
    )
    return _columns_of(result.pairs), metrics


def _shard_groups(
    groups: Optional[Tuple[int, ...]],
    starts: Optional[Tuple[int, ...]],
    all_ids: Tuple[Sequence[int], ...],
    prefix: Tuple[int, ...],
    lo: int,
) -> Iterable[Tuple[int, int]]:
    """(group position, first in-range prefix offset) pairs for a shard.

    Planner-built shards carry both lists; hand-built descriptors (tests)
    fall back to bisecting every group's prefix to *lo*.
    """
    if groups is not None and starts is not None:
        return zip(groups, starts)
    return (
        (g, pos)
        for g, k in enumerate(prefix)
        if (pos := bisect_left(all_ids[g], lo, 0, k)) < k
    )


def first_common_prefix_token(
    left_ids: Sequence[int],
    left_k: int,
    right_ids: Sequence[int],
    right_k: int,
) -> int:
    """Smallest token id shared by the two β-prefixes, or -1 if none.

    Both arrays are ascending (the ordering ``O``), so the first match of
    a linear merge is the minimum — this is the shard-ownership test.
    """
    i = j = 0
    while i < left_k and j < right_k:
        x = left_ids[i]
        y = right_ids[j]
        if x == y:
            return x
        if x < y:
            i += 1
        else:
            j += 1
    return -1


def _run_token_range_shard(
    p: TokenRangePayload, shard: ShardDescriptor
) -> Tuple["ResultColumns", ExecutionMetrics]:
    lo, hi = shard.lo, shard.hi
    m = ExecutionMetrics()
    m.implementation = "encoded-prefix"

    # Local verification engine over the shipped columnar arrays and
    # parent-packed signatures.  The defaulted payload tail is the inert
    # config, in which case the legacy ownership + full-merge path below
    # runs unchanged.
    engine: Optional[VerificationEngine] = None
    if p.verify_bits or p.verify_positional or p.verify_early_exit:
        engine = VerificationEngine(
            p.predicate,
            p.left_ids,
            p.left_weights,
            p.left_norms,
            p.left_prefix,
            p.right_ids,
            p.right_norms,
            p.right_prefix,
            nbits=p.verify_bits,
            left_signatures=p.left_signatures,
            right_signatures=p.right_signatures,
            left_max_weights=p.left_max_weights,
            positional=p.verify_positional,
            early_exit=p.verify_early_exit,
        )

    candidates: List[Tuple[int, List[int]]] = []
    with m.phase(PHASE_SSJOIN):
        # Inverted index over the right prefixes, restricted to [lo, hi).
        # Prefix ids are ascending, so two bisects find the in-range span
        # and the loop walks a C-level slice — the same per-element cost
        # as the sequential plan's ``ids[:k]`` walk, instead of a Python
        # position/compare per element.
        index: Dict[int, List[int]] = {}
        right_ids = p.right_ids
        right_prefix = p.right_prefix
        # Planner-supplied (group, first in-range offset) pairs keep the
        # walk to the groups that can touch this range and start each walk
        # at the right token with no per-group bisects.  Prefix ids are
        # ascending, so the walk stops at the first id >= hi.
        for h, pos in _shard_groups(shard.right_groups, shard.right_starts,
                                    right_ids, right_prefix, lo):
            k = right_prefix[h]
            ids = right_ids[h]
            t = ids[pos]
            while t < hi:
                index.setdefault(t, []).append(h)
                pos += 1
                if pos == k:
                    break
                t = ids[pos]

        # Probe left prefix ids in range, same walk discipline.  Prefix
        # tokens are the rarest of their group, so most probes miss —
        # allocate the matched set only on the first hit.
        left_ids = p.left_ids
        left_prefix = p.left_prefix
        probe_rows = 0
        for g, pos in _shard_groups(shard.left_groups, shard.left_starts,
                                    left_ids, left_prefix, lo):
            k = left_prefix[g]
            lids = left_ids[g]
            matched: Optional[set] = None
            t = lids[pos]
            while t < hi:
                postings = index.get(t)
                if postings:
                    probe_rows += len(postings)
                    if matched is None:
                        matched = set(postings)
                    else:
                        matched.update(postings)
                pos += 1
                if pos == k:
                    break
                t = lids[pos]
            if not matched:
                continue
            if engine is not None:
                # Ownership (smallest common prefix token >= lo) moves
                # into the engine, which finds that anchor token once and
                # reuses it for the positional bound.
                candidates.append((g, sorted(matched)))
                continue
            # Ownership: emit only pairs whose smallest common prefix
            # token lies in this range. Discovery found a common token in
            # [lo, hi), so the minimum exists and is < hi; pairs whose
            # minimum is below lo belong to (and are found by) an earlier
            # shard.
            owned = [
                h
                for h in sorted(matched)
                if first_common_prefix_token(lids, k, right_ids[h], p.right_prefix[h])
                >= lo
            ]
            if owned:
                candidates.append((g, owned))
                m.candidate_pairs += len(owned)
        m.equijoin_rows += probe_rows

    with m.phase(PHASE_FILTER):
        if engine is not None:
            columns: ResultColumns = engine.verify_candidates_columns(
                candidates, p.left_keys, p.right_keys, own_lo=lo
            )
            # The engine counted exactly the owned pairs (pre-prune), so
            # merged candidate_pairs equal the sequential run's.
            m.candidate_pairs += engine.candidates
            engine.flush(m)
        else:
            col_ar: List[Any] = []
            col_as: List[Any] = []
            col_ov: List[float] = []
            col_nr: List[float] = []
            col_ns: List[float] = []
            satisfied = p.predicate.satisfied
            for g, owned in candidates:
                lids = left_ids[g]
                lw = p.left_weights[g]
                norm_r = p.left_norms[g]
                a_r = p.left_keys[g]
                for h in owned:
                    overlap = merge_overlap(lids, lw, right_ids[h])
                    norm_s = p.right_norms[h]
                    if satisfied(overlap, norm_r, norm_s):
                        col_ar.append(a_r)
                        col_as.append(p.right_keys[h])
                        col_ov.append(overlap)
                        col_nr.append(norm_r)
                        col_ns.append(norm_s)
            columns = (col_ar, col_as, col_ov, col_nr, col_ns)
        m.output_pairs += len(columns[0])
    return columns, m
