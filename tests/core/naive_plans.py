"""A naive reference evaluator for the plan shapes the executor runs.

Relations here are ``(names, rows)`` pairs: a list of column names and a
list of row tuples. Every operator is written with plain lists, dicts and
``sorted`` — nested loops instead of hash tables, whole-list reducers
instead of accumulator arrays — so it shares no code with the batch
kernels in :mod:`repro.relational` and can serve as their oracle.

Row order follows the executor's documented contracts, since the
equivalence tests compare row lists exactly:

* σ, π, Extend and δ keep input order (δ keeps first occurrences);
* γ emits groups in first-occurrence order;
* ORDER BY is a stable sort, applied last key first;
* the hash join is probe-major — the smaller input (the left one on a
  tie) is the build side, and each probe row meets its build matches in
  build-input order;
* the merge join walks both inputs sorted by key, left-major within a
  key group;
* the left outer join is left-major, NULL-padding unmatched left rows.

NULL join keys never match.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Rows = List[Tuple[Any, ...]]
Rel = Tuple[List[str], Rows]

#: One aggregate: ``(output name, kind, input column or None)`` with kind
#: one of ``count`` / ``sum`` / ``min`` / ``max`` / ``avg``.
Agg = Tuple[str, str, Optional[str]]


def relation(names: Sequence[str], rows) -> Rel:
    return list(names), [tuple(r) for r in rows]


def _getter(names: Sequence[str], column: str) -> Callable[[tuple], Any]:
    i = list(names).index(column)
    return lambda row: row[i]


def select(rel: Rel, predicate: Callable[[Dict[str, Any]], bool]) -> Rel:
    names, rows = rel
    return names, [r for r in rows if predicate(dict(zip(names, r)))]


def extend(rel: Rel, name: str, fn: Callable[[Dict[str, Any]], Any]) -> Rel:
    names, rows = rel
    return names + [name], [r + (fn(dict(zip(names, r))),) for r in rows]


def project(rel: Rel, columns: Sequence[str]) -> Rel:
    names, rows = rel
    getters = [_getter(names, c) for c in columns]
    return list(columns), [tuple(g(r) for g in getters) for r in rows]


def distinct(rel: Rel) -> Rel:
    names, rows = rel
    out: Rows = []
    for r in rows:
        if r not in out:
            out.append(r)
    return names, out


def order_by(rel: Rel, keys: Sequence[Tuple[str, bool]]) -> Rel:
    """*keys* are ``(column, descending)`` pairs, most significant first."""
    names, rows = rel
    out = list(rows)
    for column, descending in reversed(list(keys)):
        out = sorted(out, key=_getter(names, column), reverse=descending)
    return names, out


def _reduce(kind: str, values: List[Any]) -> Any:
    if kind == "count":
        return len(values)
    kept = [v for v in values if v is not None]
    if not kept:
        return None
    if kind == "sum":
        return sum(kept)
    if kind == "avg":
        return sum(kept) / len(kept)
    if kind == "min":
        return min(kept)
    if kind == "max":
        return max(kept)
    raise ValueError(kind)


def group_by(
    rel: Rel,
    keys: Sequence[str],
    aggregates: Sequence[Agg],
    having: Optional[Callable[[Dict[str, Any]], bool]] = None,
) -> Rel:
    names, rows = rel
    key_getters = [_getter(names, k) for k in keys]
    groups: Dict[Tuple[Any, ...], Rows] = {}
    for r in rows:
        groups.setdefault(tuple(g(r) for g in key_getters), []).append(r)
    if not keys and not groups:
        groups[()] = []
    out_names = list(keys) + [a[0] for a in aggregates]
    out: Rows = []
    for key, members in groups.items():
        values = []
        for _name, kind, column in aggregates:
            if column is None:
                values.append(_reduce(kind, members))
            else:
                get = _getter(names, column)
                values.append(_reduce(kind, [get(r) for r in members]))
        row = key + tuple(values)
        if having is None or having(dict(zip(out_names, row))):
            out.append(row)
    return out_names, out


def nested_loop_join(
    left: Rel, right: Rel, predicate: Callable[[tuple, tuple], bool]
) -> Rel:
    """θ-join by exhaustive left-major pairing — the "cross product +
    UDF" plan; *predicate* receives the raw left and right row tuples."""
    (lnames, lrows), (rnames, rrows) = left, right
    return lnames + rnames, [l + r for l in lrows for r in rrows if predicate(l, r)]


def _key_equality(left: Rel, right: Rel, lkey: str, rkey: str):
    lget, rget = _getter(left[0], lkey), _getter(right[0], rkey)

    def equal(lrow, rrow) -> bool:
        lk, rk = lget(lrow), rget(rrow)
        return lk is not None and rk is not None and lk == rk

    return equal


def hash_join(left: Rel, right: Rel, lkey: str, rkey: str) -> Rel:
    equal = _key_equality(left, right, lkey, rkey)
    if len(left[1]) > len(right[1]):
        return nested_loop_join(left, right, equal)
    # The left input builds, so the right one drives the outer loop.
    _names, swapped = nested_loop_join(right, left, lambda r, l: equal(l, r))
    split = len(right[0])
    return left[0] + right[0], [row[split:] + row[:split] for row in swapped]


def merge_join(left: Rel, right: Rel, lkey: str, rkey: str) -> Rel:
    (lnames, lrows), (rnames, rrows) = left, right
    lget, rget = _getter(lnames, lkey), _getter(rnames, rkey)
    lsorted = sorted((l for l in lrows if lget(l) is not None), key=lget)
    rsorted = sorted((r for r in rrows if rget(r) is not None), key=rget)
    return nested_loop_join(
        (lnames, lsorted), (rnames, rsorted), _key_equality(left, right, lkey, rkey)
    )


def left_outer_join(left: Rel, right: Rel, lkey: str, rkey: str) -> Rel:
    equal = _key_equality(left, right, lkey, rkey)
    pad = (None,) * len(right[0])
    out: Rows = []
    for l in left[1]:
        _names, matched = nested_loop_join(([], [l]), right, equal)
        out.extend(matched or [l + pad])
    return left[0] + right[0], out
