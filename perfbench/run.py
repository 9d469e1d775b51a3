"""Run one benchmark workload against the program in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload jaccard-dedupe --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload per process: set-up is timed first (``setup_reps`` times,
median reported), then ops run back to back until their summed wall time
reaches ``--seconds``. Every op's output is checked. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
ops alternate untraced/traced and it carries the per-layer metrics, and
the spans are written to ``perfbench/out/``. ``--workload all`` runs every
workload in its own child process and prints a table of end-to-end
metrics, ``error_rate`` included. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: End-to-end metrics, printed with ``--trace 0``: name → (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "rows_per_s": ("rows/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_IMPLEMENTATIONS = ("basic", "prefix", "inline", "probe", "encoded-prefix", "encoded-probe")

#: Per-layer metrics, printed with ``--trace 1``: name → (unit, better).
#: Times and counts are means per traced op; ``storage.*`` set-up figures
#: are medians over the set-up repetitions. Some are diagnostics whose
#: direction is nominal (the field is required): ``prepared.rows`` and
#: ``joins.result_pairs`` are fixed by the input, and the plan counts
#: ``optimizer.picked.<impl>`` are "higher" except ``encoded-probe``,
#: whose known mis-pick on ``edit-dedupe`` a fix would lower.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "tokenize.weights_s": ("s", "lower"),
    "prepared.build_s": ("s", "lower"),
    "prepared.rows": ("count", "higher"),
    "optimizer.plan_s": ("s", "lower"),
    **{f"optimizer.picked.{impl}": ("count", "higher") for impl in _IMPLEMENTATIONS},
    "optimizer.picked.encoded-probe": ("count", "lower"),
    "encoded.encode_s": ("s", "lower"),
    "encoded.cache_hit_ratio": ("ratio", "higher"),
    "encoded.disk_hits": ("count", "higher"),
    "ssjoin.kernel_s": ("s", "lower"),
    "ssjoin.prefix_rows": ("count", "lower"),
    "ssjoin.candidates": ("count", "lower"),
    "ssjoin.output_pairs": ("count", "lower"),
    "ssjoin.yield": ("ratio", "higher"),
    "verify.candidates": ("count", "lower"),
    "verify.bitmap_pruned": ("count", "higher"),
    "verify.position_pruned": ("count", "higher"),
    "verify.merges_run": ("count", "lower"),
    "verify.prune_ratio": ("ratio", "higher"),
    "relational.tail_s": ("s", "lower"),
    "relational.udf_calls": ("count", "lower"),
    "sql.parse_s": ("s", "lower"),
    "sql.compile_s": ("s", "lower"),
    "joins.self_s": ("s", "lower"),
    "joins.result_pairs": ("count", "higher"),
    "parallel.wall_s": ("s", "lower"),
    "parallel.self_s": ("s", "lower"),
    "parallel.workers": ("count", "higher"),
    "parallel.shards": ("count", "lower"),
    "parallel.shard_busy_s": ("s", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "storage.ingest_s": ("s", "lower"),
    "storage.file_bytes": ("bytes", "lower"),
    "storage.bytes_per_input_byte": ("ratio", "lower"),
    "storage.attach_s": ("s", "lower"),
    "storage.setup_load_s": ("s", "lower"),
    "storage.setup_pool_misses": ("count", "lower"),
    "storage.load_s": ("s", "lower"),
    "storage.pool_hit_ratio": ("ratio", "higher"),
    "storage.pool_misses": ("count", "lower"),
    "storage.pool_evictions": ("count", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Span name → per-layer metric summing that span's self time.
_SELF_TIME_METRICS = {
    "tokenize.weights": "tokenize.weights_s",
    "prepared.build": "prepared.build_s",
    "optimizer.plan": "optimizer.plan_s",
    "encoded.encode": "encoded.encode_s",
    "ssjoin.kernel": "ssjoin.kernel_s",
    "relational.execute": "relational.tail_s",
    "sql.parse": "sql.parse_s",
    "sql.compile": "sql.compile_s",
    "joins": "joins.self_s",
    "parallel": "parallel.self_s",
    "storage.load": "storage.load_s",
}

#: (span name, attribute) → per-layer count metric summing it.
_ATTR_METRICS = {
    ("prepared.build", "rows"): "prepared.rows",
    ("physical", "prefix_rows"): "ssjoin.prefix_rows",
    ("physical", "candidates"): "ssjoin.candidates",
    ("physical", "output_pairs"): "ssjoin.output_pairs",
    ("physical", "verify_candidates"): "verify.candidates",
    ("physical", "verify_bitmap_pruned"): "verify.bitmap_pruned",
    ("physical", "verify_position_pruned"): "verify.position_pruned",
    ("physical", "verify_merges_run"): "verify.merges_run",
    ("joins", "udf_calls"): "relational.udf_calls",
    ("joins", "result_pairs"): "joins.result_pairs",
    ("parallel", "workers"): "parallel.workers",
    ("parallel", "shards"): "parallel.shards",
    ("parallel", "shard_busy_s"): "parallel.shard_busy_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _children_maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_mb(children_at_setup: int) -> float:
    """Own peak RSS plus the largest child the op started, in MB.

    ``RUSAGE_CHILDREN`` keeps the largest waited-for child, which after
    set-up is the benchmark's own import interpreter. A child counts only
    if the op raised that figure, i.e. started a bigger process (the
    ``parallel-dedupe`` workers).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = _children_maxrss()
    return (own + (children if children > children_at_setup else 0)) / 1024.0


def _delta(after: Dict[str, Any], before: Dict[str, Any], key: str) -> float:
    return float(after[key] - before[key])


class OpRecord:
    """One issued op: latency, check outcome, and counter deltas if traced."""

    def __init__(self, index: int, seconds: float, ok: bool, traced: bool) -> None:
        self.index = index
        self.seconds = seconds
        self.ok = ok
        self.traced = traced
        self.counters: Dict[str, float] = {}


def layer_metrics(
    tracer: Any,
    ops: List[OpRecord],
    notes: Dict[str, List[float]],
) -> Dict[str, float]:
    """Aggregate traced spans and counters into the per-layer metrics."""
    from tracing import self_times, unattributed

    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    n = len(traced)
    out = {name: 0.0 for name in PER_LAYER}
    by_op: Dict[Any, List[Any]] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)

    unattributed_total = 0.0
    parallel_wall = 0.0
    for op in traced:
        spans = by_op[op.index]
        root = next(s for s in spans if s.name == "op")
        unattributed_total += unattributed(spans, root)
        for span, own in self_times(spans):
            metric = _SELF_TIME_METRICS.get(span.name)
            if metric:
                out[metric] += own
            if span.name == "parallel":
                out["parallel.wall_s"] += span.duration
                parallel_wall += span.duration * span.attrs.get("workers", 0)
            if span.name == "physical":
                impl = span.attrs["implementation"]
                out[f"optimizer.picked.{impl}"] += 1
            for (name, attr), metric in _ATTR_METRICS.items():
                if span.name == name:
                    out[metric] += span.attrs.get(attr, 0)
        for key, value in op.counters.items():
            out[key] = out.get(key, 0.0) + value

    out["parallel.efficiency"] = _ratio(out["parallel.shard_busy_s"], parallel_wall)
    out["ssjoin.yield"] = _ratio(out["ssjoin.output_pairs"], out["ssjoin.candidates"])
    out["verify.prune_ratio"] = _ratio(
        out["verify.bitmap_pruned"] + out["verify.position_pruned"], out["verify.candidates"]
    )
    hits, misses = out.pop("_cache_hits", 0.0), out.pop("_cache_misses", 0.0)
    out["encoded.cache_hit_ratio"] = _ratio(hits, hits + misses)
    pool_hits = out.pop("_pool_hits", 0.0)
    out["storage.pool_hit_ratio"] = _ratio(pool_hits, pool_hits + out["storage.pool_misses"])

    # Everything summed above is per run; report it per traced op.
    per_op = set(_SELF_TIME_METRICS.values()) | set(_ATTR_METRICS.values()) | {
        "parallel.wall_s", "encoded.disk_hits", "storage.pool_misses", "storage.pool_evictions"
    }
    for name in per_op:
        out[name] /= max(n, 1)

    out["trace.op_s"] = statistics.mean(op.seconds for op in traced) if traced else 0.0
    out["trace.unattributed_s"] = unattributed_total / max(n, 1)
    if traced and untraced:
        out["trace.overhead_ratio"] = statistics.median(
            op.seconds for op in traced
        ) / statistics.median(op.seconds for op in untraced)
    for name, values in notes.items():
        if name in out:
            out[name] = statistics.median(values)
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, rows: Optional[int] = None
) -> Dict[str, Any]:
    """Run one workload; return the contract's result object.

    *rows* overrides the workload's input size (the self-tests' tiny runs).
    """
    import workloads
    from repro.core.encoded import global_encoding_cache
    from repro.storage.pages import global_buffer_pool
    from tracing import Tracer, self_times

    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None

    def trace_setup(label: str, call: Any) -> Any:
        pool_before = global_buffer_pool().stats()
        tracer.install()
        root = tracer.begin_op(label)
        try:
            return call()
        finally:
            tracer.end_op(root)
            tracer.uninstall()
            spans = [s for s in tracer.spans if s.op == label]
            ctx.note("storage.setup_load_s", sum(
                own for s, own in self_times(spans) if s.name == "storage.load"
            ))
            ctx.note("storage.setup_pool_misses",
                     _delta(global_buffer_pool().stats(), pool_before, "misses"))

    ctx = workloads.RunContext(
        src=str(SRC), work_dir=str(work_dir), seed=seed, rows=rows or workload.rows,
        inputs=workload.setup_inputs(rows or workload.rows, seed),
        trace_setup=trace_setup if trace else None,
    )
    ops: List[OpRecord] = []
    peak_rss_mb = 0.0
    try:
        setup_times = []
        state: Dict[str, Any] = {}
        for _ in range(workload.setup_reps):
            state = {}
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(ctx)
            setup_times.append(time.perf_counter() - start)
        children_at_setup = _children_maxrss()

        measured = 0.0
        index = 0
        while not ops or measured < seconds or (trace and len(ops) < 2):
            op_input = workload.make_input(ctx.rows, seed, index)
            traced = trace and index % 2 == 1
            gc.collect()
            cache_before = global_encoding_cache().stats()
            pool_before = global_buffer_pool().stats()
            if traced:
                tracer.install()
                root = tracer.begin_op(index)
            start = time.perf_counter()
            try:
                result = workload.op(state, op_input)
                error: Optional[str] = None
            except Exception:  # an op that raises is a failed op, not a crash
                result, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            cache_after = global_encoding_cache().stats()
            pool_after = global_buffer_pool().stats()
            if traced:
                tracer.end_op(root)
                tracer.uninstall()
            measured += elapsed
            if index == 0:
                peak_rss_mb = _peak_rss_mb(children_at_setup)
            if error is None:
                try:
                    check = workload.check(state, op_input, result, seed * 1000 + index)
                except Exception:
                    check = workloads.Check(False, traceback.format_exc())
            else:
                check = workloads.Check(False, error)
            if not check.ok:
                print(f"op {index} failed: {check.detail}", file=sys.stderr)
            record = OpRecord(index, elapsed, check.ok, traced)
            if traced:
                record.counters = {
                    "_cache_hits": _delta(cache_after, cache_before, "hits"),
                    "_cache_misses": _delta(cache_after, cache_before, "misses"),
                    "encoded.disk_hits": _delta(cache_after, cache_before, "disk_hits"),
                    "_pool_hits": _delta(pool_after, pool_before, "hits"),
                    "storage.pool_misses": _delta(pool_after, pool_before, "misses"),
                    "storage.pool_evictions": _delta(pool_after, pool_before, "evictions"),
                }
            ops.append(record)
            index += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for op in ops if not op.ok)
    if trace:
        metrics = layer_metrics(tracer, ops, ctx.notes)
        units = {name: PER_LAYER[name][0] for name in metrics}
        tracer.write_jsonl(str(OUT / f"trace-{name}-seed{seed}.jsonl"))
    else:
        latencies = [op.seconds for op in ops]
        metrics = {
            "rows_per_s": ctx.rows * len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: END_TO_END[name][0] for name in metrics}
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }


def _print_table(workload: str, result: Dict[str, Any]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {attempted} ops, {failed} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:16.6f} {metric['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:16.6f} ratio")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own child process; one table per workload."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_table(name, result)
        summary[name] = result
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)} or 'all'")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
