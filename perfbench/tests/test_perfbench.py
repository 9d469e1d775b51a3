"""Self-tests of the benchmark harness (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import steadiness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["jaccard-dedupe", "edit-dedupe", "parallel-dedupe"])
def test_inputs_are_deterministic_per_seed_and_distinct_per_op(name):
    make = workloads.WORKLOADS[name].make_input
    assert make(200, 3, 0) == make(200, 3, 0)
    assert make(200, 3, 0) != make(200, 3, 1)
    assert make(200, 3, 0) != make(200, 4, 0)


def test_sql_store_rotates_thresholds_and_its_column_follows_the_seed():
    make = workloads.WORKLOADS["sql-store"].make_input
    assert [make(200, 1, op) for op in range(5)] == [0.80, 0.85, 0.90, 0.95, 0.80]
    seed0 = workloads.column_seed(7, 0)
    assert workloads.jaccard_column(200, seed0) == workloads.jaccard_column(200, seed0)
    assert workloads.jaccard_column(200, seed0) != workloads.jaccard_column(200, seed0 + 1)


def test_column_seeds_do_not_collide_across_runs():
    seeds = {workloads.column_seed(s, op) for s in range(1, 20) for op in range(50)}
    assert len(seeds) == 19 * 50


# -- span arithmetic -------------------------------------------------------------


def _span(i, name, start, end, parent):
    return tracing.Span(i, name, start, end, parent, op=0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "op", 0.0, 10.0, None),
        _span(1, "joins", 0.5, 9.5, 0),
        _span(2, "physical", 2.0, 8.0, 1),
        _span(3, "ssjoin.kernel", 3.0, 7.0, 2),
        _span(4, "tokenize.weights", 1.0, 1.5, 1),
    ]
    own = {s.name: t for s, t in tracing.self_times(spans)}
    assert own["op"] == pytest.approx(1.0)
    assert own["joins"] == pytest.approx(9.0 - 6.0 - 0.5)
    assert own["physical"] == pytest.approx(2.0)
    assert own["ssjoin.kernel"] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_unattributed_is_op_gaps_plus_structural_self_time():
    spans = [
        _span(0, "op", 0.0, 10.0, None),
        _span(1, "sql.parse", 0.0, 1.0, 0),
        _span(2, "relational.execute", 2.0, 9.0, 0),
        _span(3, "physical", 3.0, 8.0, 2),
        _span(4, "optimizer.plan", 3.0, 5.0, 3),
    ]
    # op gaps 1..2 and 9..10 (2 s) + physical's own 3 s
    assert tracing.unattributed(spans, spans[0]) == pytest.approx(5.0)


def test_tracer_records_nested_spans_and_restores_originals():
    import repro.joins
    from repro.core.prepared import PreparedRelation

    original = repro.joins.jaccard_resemblance_join
    original_build = PreparedRelation.__dict__["from_strings"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert repro.joins.jaccard_resemblance_join is not original
        root = tracer.begin_op(0)
        repro.joins.jaccard_resemblance_join(["a b c", "a b c d", "x y"], threshold=0.7)
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert repro.joins.jaccard_resemblance_join is original
    assert PreparedRelation.__dict__["from_strings"] is original_build
    names = {s.name for s in tracer.spans}
    by_id = {s.span_id: s for s in tracer.spans}
    assert {"op", "joins", "tokenize.weights", "prepared.build", "physical"} <= names
    # frequency_ordering, built before choose_implementation, is planning
    plan_parents = {by_id[s.parent].name for s in tracer.spans if s.name == "optimizer.plan"}
    assert "physical" in plan_parents
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_peak_rss_counts_a_child_only_if_the_op_raised_the_children_peak():
    subprocess.run([sys.executable, "-c", "x = bytearray(64 << 20)"], check=True)
    at_setup = run._children_maxrss()
    assert at_setup >= 64 << 10
    own = run._peak_rss_mb(at_setup)
    assert own < run._peak_rss_mb(at_setup - 1)
    assert own == pytest.approx(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# -- steadiness report ---------------------------------------------------------


def test_steadiness_holds_every_metric_setup_s_too_to_its_bound():
    bench = {"run_seconds": 1, "end_to_end": [
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    loose = [0.5, 1.0, 1.5, 1.0, 2.0]
    text = steadiness.report(bench, {"w": [
        {"latency_p50_s": steady, "setup_s": loose},
        {"latency_p50_s": steady, "setup_s": steady},
    ]}, 0)
    assert "Over bound: `setup_s` on `w`." in text
    assert steadiness.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )


# -- metric names and BENCHMARK.json ---------------------------------------------


def test_metric_names_are_well_formed():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_matches_the_metric_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == (
        run.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in BENCHMARK["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_output_check(name, trace):
    result = run.run_workload(name, seed=1, seconds=0, trace=trace, rows=300)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_traced_cache_counters_exclude_the_output_check():
    # The reference path re-encodes the op's input and would hit the cache.
    from repro.core.encoded import global_encoding_cache

    global_encoding_cache().clear()  # earlier tests ran the same inputs
    result = run.run_workload("jaccard-dedupe", seed=1, seconds=0, trace=True, rows=300)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["optimizer.picked.encoded-prefix"] == 1
    assert metrics["encoded.cache_hit_ratio"] == 0.0


def test_output_check_catches_a_wrong_result():
    workload = workloads.WORKLOADS["edit-dedupe"]
    column = workload.make_input(300, 1, 0)
    result = workload.op({}, column)
    assert workload.check({}, column, result, 0).ok
    result.pairs.pop()
    assert not workload.check({}, column, result, 0).ok


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-dedupe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
