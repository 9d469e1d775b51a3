"""The four workloads: inputs from a seed, the timed op, and its check.

Each workload is a closed loop with one client: the benchmark issues one
op, waits for it, checks it, and issues the next. The program only ever
sees generated strings. Inputs are made outside every timing; an op's
column seed is ``1000 * seed + op``, so inputs are the same for a seed
and distinct per op (a run issues far fewer than 1000 ops).

``setup`` is what the program must do before the first timed op, and is
timed as ``setup_s``; ``check`` compares an op's output with an
independent reference path on the same input and re-scores a fixed-size
sample of reported pairs with the exact ``repro.sim`` function.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.joins
from repro.core.encoded import global_encoding_cache
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_WEIGHT, PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.data.corruptions import CorruptionConfig
from repro.data.customers import CustomerConfig, generate_addresses
from repro.joins.jaccard_join import resolve_weights
from repro.relational.catalog import Catalog
from repro.relational.sql import execute_sql
from repro.sim.edit import edit_similarity
from repro.sim.jaccard import string_jaccard_resemblance, string_overlap
from repro.tokenize.weights import WeightTable, build_weighted_set
from repro.tokenize.words import words

__all__ = ["SAMPLE_PAIRS", "WORKLOADS", "Check", "Workload", "column_seed", "digest"]

#: Reported pairs (or groups) re-scored with ``repro.sim`` per op.
SAMPLE_PAIRS = 32
#: Slack for float scores computed along different summation orders.
TOLERANCE = 1e-9

#: The corruption mix of the Fig-12 Jaccard corpus (``jaccard_corpus``
#: in ``benchmarks/run_core_bench.py``), which ``repro dedupe`` runs on.
JACCARD_MIX = CorruptionConfig(
    char_edit_prob=0.35,
    max_char_edits=1,
    abbreviation_prob=0.55,
    token_drop_prob=0.15,
    token_swap_prob=0.45,
)

#: Fig-12 thresholds; ``sql-store`` rotates through them.
SQL_THRESHOLDS = (0.80, 0.85, 0.90, 0.95)
SQL_LIMIT = 50


def column_seed(seed: int, op: int) -> int:
    """The data seed of op *op* in a run with workload seed *seed*."""
    return 1000 * seed + op


def jaccard_column(rows: int, seed: int) -> List[str]:
    return generate_addresses(
        CustomerConfig(num_rows=rows, duplicate_fraction=0.25, seed=seed,
                       corruption=JACCARD_MIX)
    )


def edit_column(rows: int, seed: int) -> List[str]:
    return generate_addresses(CustomerConfig(num_rows=rows, seed=seed))


def digest(rows: Sequence[Tuple[Any, ...]]) -> str:
    """Order-insensitive digest of result rows; floats by exact ``repr``."""
    text = "\n".join(sorted(repr(tuple(r)) for r in rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Check:
    """Outcome of one op's output check."""

    ok: bool
    detail: str = ""


def _pair_rows(result: Any) -> List[Tuple[Any, Any, float]]:
    return [(p.left, p.right, p.similarity) for p in result.pairs]


def _sample(items: Sequence[Any], seed: int) -> List[Any]:
    rng = random.Random(seed)
    if len(items) <= SAMPLE_PAIRS:
        return list(items)
    return rng.sample(list(items), SAMPLE_PAIRS)


def _compare(got: List[Tuple[Any, ...]], ref: List[Tuple[Any, ...]]) -> Optional[str]:
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    if digest(got) != digest(ref):
        return f"digest {digest(got)} != reference {digest(ref)}"
    return None


@dataclass
class Workload:
    """One named workload; see the module docstring for the protocol."""

    name: str
    rows: int
    setup_reps: int
    make_input: Callable[[int, int, int], Any]
    setup: Callable[["RunContext"], Dict[str, Any]]
    op: Callable[[Dict[str, Any], Any], Any]
    check: Callable[[Dict[str, Any], Any, Any, int], Check]
    #: Inputs the set-up needs, made from (rows, seed) before it is timed.
    setup_inputs: Callable[[int, int], Dict[str, Any]] = lambda rows, seed: {}


@dataclass
class RunContext:
    """Paths and sizes a run hands its workload."""

    src: str
    work_dir: str
    seed: int
    rows: int
    inputs: Dict[str, Any]
    trace_setup: Optional[Callable[[str, Callable[[], Any]], Any]] = None
    notes: Dict[str, List[float]] = field(default_factory=dict)

    def note(self, name: str, value: float) -> None:
        self.notes.setdefault(name, []).append(value)


# -- dedupe workloads ----------------------------------------------------------


def _import_setup(modules: str) -> Callable[[RunContext], Dict[str, Any]]:
    """Set-up of a dedupe run: a fresh interpreter imports the program."""

    def setup(ctx: RunContext) -> Dict[str, Any]:
        code = f"import sys; sys.path.insert(0, {ctx.src!r}); import {modules}"
        subprocess.run([sys.executable, "-c", code], check=True)
        return {}

    return setup


def _jaccard_check(threshold: float) -> Callable[[Dict[str, Any], Any, Any, int], Check]:
    def check(state: Dict[str, Any], column: Any, result: Any, seed: int) -> Check:
        table = resolve_weights("idf", words, column, column)
        ref = repro.joins.jaccard_resemblance_join(
            column, threshold=threshold, weights=table, implementation="encoded-prefix"
        )
        got = _pair_rows(result)
        problem = _compare(got, _pair_rows(ref))
        if problem:
            return Check(False, problem)
        for left, right, sim in _sample(got, seed):
            exact = string_jaccard_resemblance(left, right, words, table)
            if exact + TOLERANCE < threshold or abs(exact - sim) > TOLERANCE:
                return Check(False, f"JR({left!r}, {right!r}) = {exact}, reported {sim}")
        return Check(True)

    return check


def _edit_check(threshold: float) -> Callable[[Dict[str, Any], Any, Any, int], Check]:
    def check(state: Dict[str, Any], column: Any, result: Any, seed: int) -> Check:
        ref = repro.joins.edit_similarity_join(
            column, threshold=threshold, implementation="encoded-prefix"
        )
        got = _pair_rows(result)
        problem = _compare(got, _pair_rows(ref))
        if problem:
            return Check(False, problem)
        for left, right, sim in _sample(got, seed):
            exact = edit_similarity(left, right)
            if exact + TOLERANCE < threshold or abs(exact - sim) > TOLERANCE:
                return Check(False, f"ES({left!r}, {right!r}) = {exact}, reported {sim}")
        return Check(True)

    return check


# -- sql-store -----------------------------------------------------------------


def sql_statement(threshold: float) -> str:
    return (
        "SELECT a_r, COUNT(*) AS n, MAX(overlap) AS best "
        "FROM r x SSJOIN r y "
        f"ON OVERLAP(b) >= {threshold} * x.norm AND OVERLAP(b) >= {threshold} * y.norm "
        "WHERE a_r <> a_s GROUP BY a_r ORDER BY n DESC, a_r "
        f"LIMIT {SQL_LIMIT}"
    )


def _sql_setup(ctx: RunContext) -> Dict[str, Any]:
    """Prepare, ingest and attach one column, then run one warm statement.

    Each repetition starts from what a fresh process has: the global
    encoding cache is emptied and the page file is new.
    """
    from repro.storage import ingest_prepared

    column = ctx.inputs["column"]
    global_encoding_cache().clear()
    rep = len(ctx.notes.get("storage.ingest_s", ()))
    path = os.path.join(ctx.work_dir, f"r{rep}.rpsf")
    table = resolve_weights("idf", words, column, column)
    prepared = PreparedRelation.from_strings(
        column, words, weights=table, norm=NORM_WEIGHT, name="r"
    )
    start = time.perf_counter()
    stored = ingest_prepared(prepared, path)
    ctx.note("storage.ingest_s", time.perf_counter() - start)
    stored.close()
    catalog = Catalog()
    start = time.perf_counter()
    catalog.attach("r", path)
    ctx.note("storage.attach_s", time.perf_counter() - start)
    warm = sql_statement(SQL_THRESHOLDS[0])
    if ctx.trace_setup is not None:
        ctx.trace_setup(f"setup-{rep}", lambda: execute_sql(catalog, warm))
    else:
        execute_sql(catalog, warm)
    file_bytes = os.path.getsize(path)
    input_bytes = sum(len(v.encode("utf-8")) for v in column)
    ctx.note("storage.file_bytes", float(file_bytes))
    ctx.note("storage.bytes_per_input_byte", file_bytes / input_bytes)
    return {"catalog": catalog, "prepared": prepared, "table": table, "refs": {}}


def _sql_reference(state: Dict[str, Any], threshold: float) -> Dict[str, Any]:
    """Grouped rows from the explicit in-memory encoded-prefix plan."""
    refs = state["refs"]
    if threshold not in refs:
        prepared = state["prepared"]
        pairs = SSJoin(prepared, prepared, OverlapPredicate.two_sided(threshold)).execute(
            "encoded-prefix"
        ).pairs.rows
        partners: Dict[str, List[str]] = {}
        best: Dict[str, float] = {}
        for a_r, a_s, overlap, _, _ in pairs:
            if a_r == a_s:
                continue
            partners.setdefault(a_r, []).append(a_s)
            best[a_r] = max(best.get(a_r, overlap), overlap)
        ranked = sorted(partners, key=lambda a: (-len(partners[a]), a))[:SQL_LIMIT]
        refs[threshold] = {
            "rows": [(a, len(partners[a]), best[a]) for a in ranked],
            "partners": partners,
        }
    return refs[threshold]


def _norm(text: str, table: WeightTable) -> float:
    return build_weighted_set(words(text), weights=table, multiset=True).norm


def _sql_check(state: Dict[str, Any], threshold: float, result: Any, seed: int) -> Check:
    ref = _sql_reference(state, threshold)
    got = [tuple(r) for r in result.rows]
    problem = _compare(got, ref["rows"])
    if problem:
        return Check(False, problem)
    if got != ref["rows"]:
        return Check(False, "row order differs from ORDER BY n DESC, a_r")
    table = state["table"]
    for a_r, n, best in _sample(got, seed):
        scores = []
        for a_s in ref["partners"][a_r]:
            overlap = string_overlap(a_r, a_s, words, table)
            bound = threshold * max(_norm(a_r, table), _norm(a_s, table))
            if overlap + TOLERANCE < bound:
                return Check(False, f"overlap({a_r!r}, {a_s!r}) = {overlap} < {bound}")
            scores.append(overlap)
        if len(scores) != n or abs(max(scores) - best) > TOLERANCE:
            return Check(False, f"group {a_r!r}: n={n} best={best}, exact {len(scores)}/{max(scores)}")
    return Check(True)


# -- the table -----------------------------------------------------------------

_DEDUPE_MODULES = "repro, repro.joins"
_PARALLEL_MODULES = "repro, repro.joins, repro.parallel.executor"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="jaccard-dedupe",
            rows=20000,
            setup_reps=11,
            make_input=lambda rows, seed, op: jaccard_column(rows, column_seed(seed, op)),
            setup=_import_setup(_DEDUPE_MODULES),
            op=lambda state, column: repro.joins.jaccard_resemblance_join(column, threshold=0.85),
            check=_jaccard_check(0.85),
        ),
        Workload(
            name="edit-dedupe",
            rows=2000,
            setup_reps=11,
            make_input=lambda rows, seed, op: edit_column(rows, column_seed(seed, op)),
            setup=_import_setup(_DEDUPE_MODULES),
            op=lambda state, column: repro.joins.edit_similarity_join(column, threshold=0.85),
            check=_edit_check(0.85),
        ),
        Workload(
            name="sql-store",
            rows=30000,
            setup_reps=3,
            make_input=lambda rows, seed, op: SQL_THRESHOLDS[op % len(SQL_THRESHOLDS)],
            setup=_sql_setup,
            setup_inputs=lambda rows, seed: {
                "column": jaccard_column(rows, column_seed(seed, 0))
            },
            op=lambda state, threshold: execute_sql(state["catalog"], sql_statement(threshold)),
            check=_sql_check,
        ),
        Workload(
            name="parallel-dedupe",
            rows=20000,
            setup_reps=11,
            make_input=lambda rows, seed, op: jaccard_column(rows, column_seed(seed, op)),
            setup=_import_setup(_PARALLEL_MODULES),
            op=lambda state, column: repro.joins.jaccard_resemblance_join(
                column, threshold=0.80, workers="auto"
            ),
            check=_jaccard_check(0.80),
        ),
    )
}
