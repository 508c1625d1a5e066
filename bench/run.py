"""The grrcheck benchmark: one command for every workload, timed or traced.

Usage:
    python3 bench/run.py --workload model-sweep --seed 0 --seconds 30 --trace 0

A run is a fixed number of rounds, about ``--seconds`` long on the machine
the round sizes were set on (``NOMINAL_ROUND_S``); a faster or slower program
does the same work.  Each round is a fresh process (``worker.py``) that pays
every cold cost a ``grrcheck`` process pays, and draws its own inputs from
(workload, seed, round).  End-to-end metrics are medians over the rounds.

The host's speed drifts by up to a factor of two over tens of seconds, while
the program's work stays the same.  So a fixed kernel of Fraction arithmetic
and tuple-keyed dict updates (``_kernel``, frozen here, the operations that
dominate grrcheck's own profile) is timed before, between and after the
rounds, and every time a round reports is scaled by ``CAL_REFERENCE_S`` over
the mean kernel time around it.  The times reported are therefore seconds
on a host where the kernel takes ``CAL_REFERENCE_S``; the raw median wall
time and the speed factors are printed too.

With ``--trace 1`` the run alternates untraced and traced rounds on the
inputs of round 0 and reports the per-layer metrics of ``tracer.py``, plus
the tracing overhead (traced wall_s / untraced wall_s).  Spans of the first
traced round go to ``.bench_out/``.

Every round is checked: an op fails if it raises, if the CLI exits non-zero,
if a verdict is not ``pass``, or if a model-sweep report differs from
``catalogue_digests.txt``.  Round streams are compared with the sha256
values in ``reference.json`` (formal-classes on every run, the others when
``--seed`` is the default seed).  The last line of stdout is one JSON object;
the exit code is 0 when every check held and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"
SPANS_DIR = ROOT / ".bench_out"

WORKLOADS = ("model-sweep", "sheaf-queries", "formal-classes")
NOMINAL_ROUND_S = {"model-sweep": 6.0, "sheaf-queries": 4.5, "formal-classes": 6.0}
DEFAULT_SEED = 0
RUN_DEADLINE_S = 170  # a run must end within 180 s, even when a round hangs
CAL_REFERENCE_S = 0.1  # the kernel's time on the reference host
CAL_SECONDS = 0.5  # each calibration repeats the kernel for this long

# boundary -> reported fields, in tracer.py's boundary names
LAYER_METRICS = {
    "geometry.chow_mul": ("calls", "self_s"),
    "geometry.chow_linear": ("calls", "self_s"),
    "geometry.total_chern": ("calls", "self_s", "distinct_ratio"),
    "geometry.pushforward_k": ("calls", "self_s", "distinct_ratio"),
    "geometry.pushforward_chow": ("calls", "self_s"),
    "geometry.tower_build": ("calls", "self_s"),
    "grr.ct_on_tower": ("calls", "self_s"),
    "grr.evaluate_universal": ("calls", "self_s"),
    "grr.check_main_theorem": ("calls", "busy_s"),
    "series.universal": ("calls", "busy_s", "repeat_ratio"),
    "series.oracle": ("calls", "busy_s"),
    "poly.mul": ("calls", "self_s"),
    "poly.substitute": ("calls", "self_s"),
    "poly.reduce": ("calls", "self_s"),
    "poly.serialize": ("calls", "self_s"),
    "report.compare": ("calls", "self_s"),
    "report.to_json": ("calls", "self_s"),
    "identities.verify": ("calls", "busy_s"),
    "arith": ("busy_s",),
    "suites": ("busy_s",),
    "specparse": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
OVERHEAD_METRIC = "trace.overhead_ratio"
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class RoundError(RuntimeError):
    """A worker process failed to produce a result."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values: list[float], per_mille: int) -> float:
    """The per_mille/10 percentile by the nearest-rank rule."""
    k = -(-per_mille * len(sorted_values) // 1000)
    return sorted_values[max(k, 1) - 1]


def tail_per_mille(n: int) -> int | None:
    """The highest of p99.9, p99 and p90 with at least 10 of n samples beyond
    it, or None when none has (the tail is then the maximum)."""
    for per_mille in (999, 990, 900):
        if n - -(-per_mille * n // 1000) >= 10:
            return per_mille
    return None


def tail_label(n: int) -> str:
    per_mille = tail_per_mille(n)
    return "max" if per_mille is None else f"p{per_mille / 10:g}"


def latency_stats(latencies_ms: list[float]) -> tuple[float, float]:
    values = sorted(latencies_ms)
    per_mille = tail_per_mille(len(values))
    tail = values[-1] if per_mille is None else nearest_rank(values, per_mille)
    return nearest_rank(values, 500), tail


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _kernel() -> dict:
    acc: dict = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


def kernel_seconds() -> float:
    """The mean time of one ``_kernel`` call, repeated for CAL_SECONDS."""
    start = time.perf_counter()
    calls = 0
    while True:
        _kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CAL_SECONDS:
            return elapsed / calls


def scale_times(result: dict, factor: float) -> None:
    """Scale every time a round reports to the reference host speed."""
    result["speed_factor"] = factor
    result["raw_wall_s"] = result["wall_s"]
    result["setup_s"] *= factor
    result["wall_s"] *= factor
    result["latencies_ms"] = [x * factor for x in result["latencies_ms"]]
    for stats in result.get("trace", {}).values():
        stats["self_s"] *= factor
        stats["busy_s"] *= factor


def run_worker(workload: str, seed: int, round_index: int, trace: bool,
               deadline: float, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(WORKER), workload, str(seed), str(round_index),
            "1" if trace else "0"]
    extra = [str(spans)] if spans is not None else []
    # bytecode caches are allowed, as for an installed program, so that every
    # round but the first imports the same way whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(argv + [repr(spawn)] + extra, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawn), cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {round_index} ran past the {RUN_DEADLINE_S} s deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(
            f"round {round_index} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def run_rounds(workload: str, seed: int, specs: list[tuple[int, bool]],
               deadline: float, spans: Path | None) -> list[dict]:
    """Run the (round index, traced) specs one after another, calibrating the
    host speed around each; spans of the first traced round go to ``spans``."""
    rounds = []
    before = kernel_seconds()
    for round_index, trace in specs:
        first_traced = trace and not any("trace" in r for r in rounds)
        result = run_worker(workload, seed, round_index, trace, deadline,
                            spans if first_traced else None)
        after = kernel_seconds()
        scale_times(result, CAL_REFERENCE_S / ((before + after) / 2))
        rounds.append(result)
        before = after
    return rounds


def check_rounds(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    """Problems with the rounds' results; empty when all is correct."""
    problems = []
    reference = json.loads(REFERENCE.read_text())["round_sha256"][workload]
    for r in rounds:
        for failure in r["failures"]:
            problems.append(f"round {r['round']}: {failure}")
        if workload == "formal-classes":
            expected = reference[0]
        elif seed == DEFAULT_SEED and r["round"] < len(reference):
            expected = reference[r["round"]]
        else:
            continue
        if r["stream_sha256"] != expected:
            problems.append(
                f"round {r['round']}: stream sha256 {r['stream_sha256']} != {expected}"
            )
    return problems


def end_to_end(rounds: list[dict]) -> tuple[dict, list[str]]:
    n_rounds = len(rounds)
    ops = rounds[0]["attempted"]
    stats = [latency_stats(r["latencies_ms"]) for r in rounds]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "latency_p50_ms": statistics.median(s[0] for s in stats),
        "latency_tail_ms": statistics.median(s[1] for s in stats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    per_round = f"median of {n_rounds} rounds of {ops} ops"
    samples = {
        "setup_s": f"median of {n_rounds} process starts",
        "wall_s": per_round,
        "latency_p50_ms": f"p50 per round, {per_round}",
        "latency_tail_ms": f"{tail_label(ops)} per round, {per_round}",
        "peak_rss_mb": f"ru_maxrss, median of {n_rounds} processes",
    }
    lines = [
        f"{name:<16} {values[name]:>12.4f} {unit:<3} ({samples[name]})"
        for name, unit in END_TO_END.items()
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, lines


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    first = traced[0]["trace"]
    metrics = {}
    for boundary, fields in LAYER_METRICS.items():
        calls = first[boundary]["calls"]
        distinct = first[boundary].get("distinct", 0) / calls if calls else 0.0
        for field in fields:
            if field == "calls":
                value, unit = calls, "count"
            elif field == "distinct_ratio":
                value, unit = distinct, "ratio"
            elif field == "repeat_ratio":
                value, unit = (1.0 - distinct if calls else 0.0), "ratio"
            else:
                value, unit = statistics.median(r["trace"][boundary][field] for r in traced), "s"
            metrics[f"{boundary}.{field}"] = {"value": value, "unit": unit}
    metrics[OVERHEAD_METRIC] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced),
        "unit": "ratio",
    }
    return metrics


def trace_problems(traced: list[dict], untraced: list[dict]) -> list[str]:
    problems = []
    counts = [
        {b: (s["calls"], s.get("distinct")) for b, s in r["trace"].items()} for r in traced
    ]
    if any(c != counts[0] for c in counts):
        problems.append("traced rounds of identical inputs made different call counts")
    if any(not r["restored"] for r in traced):
        problems.append("the tracer left a wrapped name in place")
    digests = {r["stream_sha256"] for r in traced + untraced}
    if len(digests) != 1:
        problems.append("traced and untraced rounds produced different streams")
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running round before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "grrcheck").is_dir():
        print(f"error: no grrcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    n_rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one caller, "
          f"{'traced ' if args.trace else ''}{n_rounds} rounds, one process each")
    if args.trace:
        # untraced and traced rounds on the same inputs, alternating which goes first
        specs = [(0, trace) for pair in range(max(1, n_rounds // 2))
                 for trace in ((False, True) if pair % 2 == 0 else (True, False))]
    else:
        specs = [(r, False) for r in range(n_rounds)]
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        rounds = run_rounds(args.workload, args.seed, specs, deadline, spans)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_rounds(args.workload, args.seed, rounds)
    if args.trace:
        traced = [r for r in rounds if "trace" in r]
        untraced = [r for r in rounds if "trace" not in r]
        problems += trace_problems(traced, untraced)
        metrics = layer_metrics(traced, untraced)
        print(f"times: median of {len(traced)} traced rounds; counts: one traced "
              "round, identical in every traced round")
        width = max(map(len, metrics))
        for name, m in metrics.items():
            print(f"{name:<{width}} {m['value']:>14.6g} {m['unit']}")
        print(f"spans of the first traced round: {spans.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(rounds)
        print("\n".join(lines))
    factors = [r["speed_factor"] for r in rounds]
    print(f"times scaled to the reference host: speed factors {min(factors):.3f}"
          f"-{max(factors):.3f}, raw median wall_s "
          f"{statistics.median(r['raw_wall_s'] for r in rounds):.4f} s")

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"failed_ratio     {failed}/{attempted} ops")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
