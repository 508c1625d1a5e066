"""Tests of the benchmark itself: inputs, checks, statistics and the tracer.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from grrcheck import cli, specparse
from grrcheck.series import Mutation, set_mutation
from tracer import Tracer, _holders

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["model-sweep", "sheaf-queries"])
def test_seed_determines_inputs(workload):
    first = workloads.make_inputs(workload, 7, 0)
    assert first == workloads.make_inputs(workload, 7, 0)
    assert first != workloads.make_inputs(workload, 8, 0)
    assert first != workloads.make_inputs(workload, 7, 1)


def test_formal_classes_ignores_the_seed():
    assert workloads.make_inputs("formal-classes", 1, 0) == workloads.make_inputs(
        "formal-classes", 2, 3
    )


def test_model_sweep_samples_the_catalogue_without_replacement():
    cat = workloads.catalogue()
    assert len(cat) == 9290
    inputs = workloads.make_inputs("model-sweep", 3, 0)
    indices = [i for i, _ in inputs]
    assert len(set(indices)) == len(indices) == workloads.MODEL_SWEEP_OPS
    assert all(cat[i] == instance for i, instance in inputs)


def test_sheaf_queries_parse_within_the_cli_guards():
    parser = cli._build_parser()
    for seed in range(5):
        for argv in workloads.make_inputs("sheaf-queries", seed, 0):
            args = parser.parse_args(argv)
            scope = specparse.build_geometry(specparse.parse_geometry(args.geometry))
            tower = scope.tower
            assert 1 <= tower.n_levels <= 3
            assert tower.dim <= workloads.SHEAF_MAX_DIM <= args.max_dim
            assert 0 <= args.base_levels < tower.n_levels
            assert 0 <= args.n <= min(3, tower.prefix(args.base_levels).dim + 1)
            assert len(args.cut) <= 1
            for cut in args.cut:
                assert any(scope.divisor_vector(specparse.parse_divisor(cut)))
            specparse.evaluate_class(specparse.parse_class(args.sheaf), scope)


def test_sheaf_queries_keep_large_symmetric_powers():
    queries = workloads.make_inputs("sheaf-queries", 0, 0)
    assert any(f"sym({workloads.SHEAF_MAX_SYM}," in q[5] for q in queries)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [
        f"{b}.{f}" for b, fields in run.LAYER_METRICS.items() for f in fields
    ] + [run.OVERHEAD_METRIC]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in list(range(1, 1300)) + [9999, 10000, 12000]:
        values = [float(v) for v in range(1, n + 1)]
        beyond = {q: n - -(-q * n // 1000) for q in (900, 990, 999)}
        per_mille = run.tail_per_mille(n)
        _, tail = run.latency_stats(values)
        if per_mille is None:
            assert beyond[900] < 10 and tail == values[-1]
        else:
            assert beyond[per_mille] >= 10
            assert all(beyond[q] < 10 for q in beyond if q > per_mille)
            assert sum(v > tail for v in values) == beyond[per_mille]


def test_tail_labels_of_the_workloads():
    assert run.tail_label(workloads.MODEL_SWEEP_OPS) == "p99"
    assert run.tail_label(workloads.SHEAF_QUERY_OPS) == "p90"
    assert run.tail_label(1) == "max"


def test_scaling_touches_times_only():
    result = {"setup_s": 1.0, "wall_s": 2.0, "latencies_ms": [3.0, 4.0],
              "trace": {"poly.mul": {"calls": 5, "self_s": 1.5, "busy_s": 2.5}}}
    run.scale_times(result, 2.0)
    assert (result["setup_s"], result["wall_s"], result["raw_wall_s"]) == (2.0, 4.0, 2.0)
    assert result["latencies_ms"] == [6.0, 8.0]
    assert result["trace"]["poly.mul"] == {"calls": 5, "self_s": 3.0, "busy_s": 5.0}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def test_mutated_todd_class_fails_ops():
    inputs = workloads.make_inputs("model-sweep", 0, 0)[:60]
    set_mutation(Mutation("todd", 4, 0, Fraction(1)))
    try:
        result = workloads.run_ops("model-sweep", inputs)
    finally:
        set_mutation(None)
    assert result["failed"] / result["attempted"] > 0
    assert workloads.run_ops("model-sweep", inputs)["failed"] == 0


def test_runs_without_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

SMALL_BATCHES = [
    ("model-sweep", workloads.make_inputs("model-sweep", 1, 0)[:25]),
    ("sheaf-queries", workloads.make_inputs("sheaf-queries", 1, 0)[:12]),
    ("formal-classes", [(5, 4)]),
]


def _bindings() -> dict:
    from grrcheck import geometry, poly, report

    out = {}
    for holder in _holders():
        items = holder if isinstance(holder, dict) else vars(holder)
        out.update({(id(holder), k): v for k, v in items.items()})
    for cls in (geometry.ChowClass, geometry.KClass, geometry.Tower,
                poly.GradedPolynomial, report.VerificationReport):
        out.update({(id(cls), k): v for k, v in vars(cls).items()})
    return out


@pytest.mark.parametrize("workload,inputs", SMALL_BATCHES, ids=[w for w, _ in SMALL_BATCHES])
def test_tracer_is_faithful_and_repeatable(workload, inputs):
    before = _bindings()
    untraced = workloads.run_ops(workload, inputs)
    first, second = Tracer(), Tracer()
    traced = [workloads.run_ops(workload, inputs, t) for t in (first, second)]

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert first.restored() and second.restored()
    assert untraced["failed"] == 0
    assert {r["stream_sha256"] for r in traced} == {untraced["stream_sha256"]}

    counts = [
        {b: (s["calls"], s.get("distinct")) for b, s in t.summary().items()}
        for t in (first, second)
    ]
    assert counts[0] == counts[1]
    for stats in first.summary().values():
        assert stats["self_s"] <= stats["busy_s"] + 1e-9
    spans = first.spans
    assert spans and all(end >= start for _, start, end, _, _ in spans)
    assert all(parent is None or parent < i for i, (*_, parent, _) in enumerate(spans))
