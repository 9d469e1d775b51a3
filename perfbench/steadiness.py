"""Steadiness report: independent sets of runs, each metric's spread vs its bound.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py

Set *k* (of ``SETS``) runs every workload of ``BENCHMARK.json`` once per
seed ``100*k + 1 .. 100*k + SEEDS`` (workloads interleaved within a seed,
so drift lands on all of them), with ``run_seconds`` and ``--trace 0``.
For each workload and end-to-end metric it reports, per set, the median
and the interquartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), whether every spread is within
the metric's bound, and how far each later set's median moved against
the first, in the metric's worse direction. Writes
``perfbench/STEADINESS.md`` and the raw values to
``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    """How much *later* is worse than *first*, as a share of *first*."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(bench: Dict[str, Any], values: Dict[str, Any], failures: int) -> str:
    sets = values[next(iter(values))]
    seeds = len(sets[0][bench["end_to_end"][0]["name"]])
    lines = [
        "# Steadiness report",
        "",
        f"Sets: {len(sets)}; runs per workload per set: {seeds}; "
        f"`run_seconds` = {bench['run_seconds']}; failed ops: {failures}.",
        "Spread = (Q3 - Q1) / median over one set's runs; it must stay within the "
        "bound (aim: a third of it). Shift = how much a later set's median is worse "
        "than the first set's, as a share of the first.",
        "",
        "| workload | metric | bound | set medians | spreads | max spread / bound | worst shift | ok |",
        "|---|---|---|---|---|---|---|---|",
    ]
    over: List[str] = []
    for workload, sets in values.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [s[name] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shift = max(
                (worsening(medians[0], m, metric["better"]) for m in medians[1:]),
                default=0.0,
            )
            ok = shift <= bound and max(spreads) <= bound
            if not ok:
                over.append(f"`{name}` on `{workload}`")
            lines.append(
                f"| {workload} | {name} | {bound} | "
                + ", ".join(f"{m:.4g}" for m in medians) + " | "
                + ", ".join(f"{s:.3f}" for s in spreads) + " | "
                + f"{max(spreads) / bound:.2f} | "
                + f"{shift:+.3f} | {'yes' if ok else 'NO'} |"
            )
    lines += ["", "Over bound: " + (", ".join(over) if over else "none") + "."]
    return "\n".join(lines) + "\n"


def collect(bench: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """Run every set; return the raw values and the number of failed ops."""
    names = [w["name"] for w in bench["workloads"]]
    metric_names = [m["name"] for m in bench["end_to_end"]]
    values: Dict[str, List[Dict[str, List[float]]]] = {
        w: [{m: [] for m in metric_names} for _ in range(SETS)] for w in names
    }
    failures = 0
    for k in range(SETS):
        for i in range(SEEDS):
            seed = 100 * (k + 1) + i + 1
            for workload in names:
                start = time.perf_counter()
                result = run_once(workload, seed, bench["run_seconds"])
                failures += result["failed"]
                for m in metric_names:
                    values[workload][k][m].append(result["metrics"][m]["value"])
                print(f"set {k + 1} seed {seed} {workload}: "
                      f"{time.perf_counter() - start:.1f}s wall, "
                      f"{result['attempted']} ops, {result['failed']} failed", flush=True)
    return values, failures


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, failures = collect(bench)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(
        json.dumps({"failed_ops": failures, "values": values}, indent=1)
    )
    text = report(bench, values, failures)
    (HERE / "STEADINESS.md").write_text(text)
    print(text)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
