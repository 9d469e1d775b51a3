"""Equi-join kernels: build/probe hash, sort-merge and left outer.

The SSJoin implementations in :mod:`repro.core` are all built from
equi-joins plus grouping (the paper's plans use nothing else). Each
kernel takes two :class:`~repro.relational.batch.BatchStream` inputs and
returns the joined stream: both inputs accumulate into flat column
arrays, matching produces two parallel *index vectors* (one per side,
with repeats), and each output column is a single C-driven gather
``[col[i] for i in idx]`` — no row tuples anywhere. :func:`hash_join` is
the same hash kernel folded over two materialized relations, for the
paper plans that work on whole relations.

All equi-joins produce the concatenated schema, with *both* sides' columns
prefixed when a prefix pair is supplied — mirroring how SQL disambiguates
``R.B = S.B`` outputs. NULL keys never match (SQL semantics).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: A join-key spec: one column name, a list of names (same both sides),
#: or a list of ``(left, right)`` pairs. Normalized by ``_resolve_keys``.
JoinKeys = Union[str, Sequence[Union[str, Tuple[str, str]]]]

from repro.errors import PlanError
from repro.relational.batch import (
    BatchStream,
    columnar_relation_from_batches,
    iter_batches_from_columns,
    stream_relation,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = [
    "hash_join",
    "joined_schema",
    "hash_join_stream",
    "merge_join_stream",
    "left_outer_join_stream",
]


def _resolve_keys(keys: JoinKeys) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Normalize a join-key spec into (left_cols, right_cols).

    Accepts a single column name, a list of names (same both sides), or a
    list of ``(left, right)`` pairs.
    """
    if isinstance(keys, str):
        return (keys,), (keys,)
    left: List[str] = []
    right: List[str] = []
    for k in keys:
        if isinstance(k, str):
            left.append(k)
            right.append(k)
        else:
            l, r = k
            left.append(l)
            right.append(r)
    if not left:
        raise PlanError("equi-join requires at least one key column")
    return tuple(left), tuple(right)


def joined_schema(
    left: Schema, right: Schema, prefixes: Optional[Tuple[str, str]]
) -> Schema:
    """The output schema every equi-join here produces: ``left ++ right``
    with both sides qualified when *prefixes* is given, clashing
    right-side names ``_2``/``_3``-suffixed otherwise."""
    if prefixes is not None:
        lp, rp = prefixes
        return left.prefixed(lp).concat(right.prefixed(rp))
    taken = set(left.names)
    renamed = []
    for col in right.columns:
        name = col.name
        if name in taken:
            n = 2
            while f"{name}_{n}" in taken:
                n += 1
            name = f"{name}_{n}"
        taken.add(name)
        renamed.append(col.renamed(name))
    return left.concat(Schema(renamed))


def hash_join(
    left: Relation,
    right: Relation,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
) -> Relation:
    """Build/probe hash equi-join of two materialized relations.

    A fold over :func:`hash_join_stream` with each input streamed as one
    morsel: the smaller input builds, output columns are always
    ``left ++ right``.

    Parameters
    ----------
    keys:
        Join keys — see :func:`_resolve_keys` for accepted shapes. Keys refer
        to the *unprefixed* column names.
    prefixes:
        Optional ``(left_prefix, right_prefix)``; when given, output columns
        are qualified, e.g. ``("R", "S")`` yields ``R.B`` / ``S.B``.
    """
    whole = sys.maxsize
    return columnar_relation_from_batches(
        hash_join_stream(
            stream_relation(left, whole),
            stream_relation(right, whole),
            keys,
            prefixes=prefixes,
            batch_size=whole,
        )
    )


def _collect_columns(stream: BatchStream) -> Tuple[List[List[Any]], int]:
    """Drain a stream into one flat column list per schema column."""
    cols: List[List[Any]] = [[] for _ in stream.schema]
    n = 0
    for batch in stream:
        n += batch.num_rows
        for acc, col in zip(cols, batch.columns):
            acc.extend(col)
    return cols, n


def _null_free_key_iter(
    cols: Sequence[Sequence[Any]], positions: Sequence[int]
) -> "Any":
    """Iterate ``(row_index, key)`` pairs, the key a tuple; NULLs kept
    (callers skip them) so indices stay aligned with the input."""
    return enumerate(zip(*(cols[p] for p in positions)))


def hash_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized build/probe hash equi-join.

    The smaller accumulated side (the left one on a tie) builds a key →
    row-index table; probing appends to two flat index vectors, and the
    output columns are gathered per side in one pass each, then sliced
    into morsels. Output is probe-major, each probe row meeting its build
    matches in build-input order.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)

    def gen() -> "Any":
        lcols, ln = _collect_columns(left)
        rcols, rn = _collect_columns(right)
        build_is_left = ln <= rn
        if build_is_left:
            bcols, bpos, pcols, ppos = lcols, lpos, rcols, rpos
        else:
            bcols, bpos, pcols, ppos = rcols, rpos, lcols, lpos

        table: Dict[Any, List[int]] = {}
        if len(bpos) == 1:
            for i, v in enumerate(bcols[bpos[0]]):
                if v is not None:
                    table.setdefault(v, []).append(i)
        else:
            for i, key in _null_free_key_iter(bcols, bpos):
                if not any(v is None for v in key):
                    table.setdefault(key, []).append(i)

        bidx: List[int] = []
        pidx: List[int] = []
        get = table.get
        if len(ppos) == 1:
            for i, v in enumerate(pcols[ppos[0]]):
                if v is None:
                    continue
                matches = get(v)
                if matches:
                    bidx += matches
                    pidx += [i] * len(matches)
        else:
            for i, key in _null_free_key_iter(pcols, ppos):
                if any(v is None for v in key):
                    continue
                matches = get(key)
                if matches:
                    bidx += matches
                    pidx += [i] * len(matches)

        lidx, ridx = (bidx, pidx) if build_is_left else (pidx, bidx)
        out = [[col[i] for i in lidx] for col in lcols]
        out += [[col[i] for i in ridx] for col in rcols]
        yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())


def merge_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized sort-merge equi-join.

    Each side argsorts the NULL-filtered row indices by key (stable), the
    merge walks key groups in ascending order emitting index-vector cross
    products (left-major within a group), and output columns are gathered
    per side. Produces the same bag of rows as :func:`hash_join_stream`.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)

    def order(
        cols: List[List[Any]], positions: Sequence[int], n: int
    ) -> Tuple[List[int], List[Tuple[Any, ...]]]:
        key_cols = [cols[p] for p in positions]
        idx = [
            i for i in range(n) if not any(c[i] is None for c in key_cols)
        ]
        keyed = [tuple(c[i] for c in key_cols) for i in idx]
        perm = sorted(range(len(idx)), key=keyed.__getitem__)
        return [idx[i] for i in perm], [keyed[i] for i in perm]

    def gen() -> "Any":
        lcols, ln = _collect_columns(left)
        rcols, rn = _collect_columns(right)
        li, lkeyvals = order(lcols, lpos, ln)
        ri, rkeyvals = order(rcols, rpos, rn)

        lidx: List[int] = []
        ridx: List[int] = []
        i = j = 0
        nl, nr = len(li), len(ri)
        while i < nl and j < nr:
            lk = lkeyvals[i]
            rk = rkeyvals[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                i2 = i
                while i2 < nl and lkeyvals[i2] == lk:
                    i2 += 1
                j2 = j
                while j2 < nr and rkeyvals[j2] == rk:
                    j2 += 1
                group = ri[j:j2]
                width = j2 - j
                for a in range(i, i2):
                    lidx += [li[a]] * width
                    ridx += group
                i, j = i2, j2

        out = [[col[i] for i in lidx] for col in lcols]
        out += [[col[i] for i in ridx] for col in rcols]
        yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())


def left_outer_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized LEFT OUTER equi-join.

    Left rows without a match are emitted once, padded with NULLs on the
    right; a NULL key never matches but its left row still survives, per
    SQL outer-join semantics. The right side always builds; the left side
    then **streams** — each left morsel produces its own index vectors
    (build index ``-1`` marking the NULL pad) and is emitted before the
    next is pulled.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)
    rwidth = len(right.schema)

    def gen() -> "Any":
        rcols, _rn = _collect_columns(right)
        table: Dict[Tuple[Any, ...], List[int]] = {}
        for i, key in _null_free_key_iter(rcols, rpos):
            if not any(v is None for v in key):
                table.setdefault(key, []).append(i)
        get = table.get
        for batch in left:
            lidx: List[int] = []
            ridx: List[int] = []
            for i, key in _null_free_key_iter(batch.columns, lpos):
                matches = None if any(v is None for v in key) else get(key)
                if matches:
                    lidx += [i] * len(matches)
                    ridx += matches
                else:
                    lidx.append(i)
                    ridx.append(-1)
            out = [[col[i] for i in lidx] for col in batch.columns]
            out += [
                [(col[j] if j >= 0 else None) for j in ridx]
                for col in rcols
            ]
            yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())
