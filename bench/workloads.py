"""The benchmark's workloads: seeded inputs, the timed operation, and the checks.

Every workload is a closed loop with one caller in one single-threaded
process: the next operation starts when the previous one has returned.  A
*round* is one cold process (see ``worker.py``) that builds its inputs and
then runs and times every operation of the round; ``run.py`` starts the
rounds one after another and aggregates them.

* ``model-sweep``   a seeded uniform sample, without replacement, of the
  registered main-theorem catalogue, called through ``grr.check_main_theorem``
  with the suite's own labels.
* ``sheaf-queries`` a seeded stream of single-instance
  ``grrcheck verify main-theorem --geometry ... --sheaf ...`` queries through
  ``cli.main``, stdout captured.  Every query builds a fresh tower.
* ``formal-classes`` ``suites.suite_integrality(13)`` followed by
  ``suites.suite_series_identities(8)`` as one operation; no geometry code
  runs and the seed is ignored.

Inputs depend only on (workload, seed, round index), so the same seed gives
the same inputs in every run and every round of a run draws fresh ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from itertools import product
from pathlib import Path

from grrcheck import cli, grr, suites
from grrcheck.grr import MorphismDatum

BENCH_DIR = Path(__file__).resolve().parent
CATALOGUE_DIGESTS = BENCH_DIR / "catalogue_digests.txt"

MODEL_SWEEP_OPS = 1200  # per round; p99 then has 12 samples beyond it
SHEAF_QUERY_OPS = 200  # per round; p90 then has 20 samples beyond it
SHEAF_MAX_DIM = 4
SHEAF_MAX_SYM = 5
FORMAL_INTEGRALITY_DEGREE = 13
FORMAL_SERIES_DEGREE = 8


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def catalogue() -> list[tuple[str, int, tuple[int, ...], int]]:
    """Every main-theorem instance of the registered towers, in suite order:
    (tower name, base prefix, line-bundle coefficients, codimension n)."""
    out = []
    for name, _levels, bases in suites.MODEL_TOWERS:
        tower = suites.model_tower(name)
        for base in bases:
            n_max = min(3, tower.prefix(base).dim + 1)
            for coeffs in product(range(-2, 3), repeat=tower.n_levels):
                out.extend((name, base, coeffs, n) for n in range(n_max + 1))
    return out


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{round_index}")


def _divisor(rng: random.Random, n_levels: int, lo: int = -2, hi: int = 2) -> str:
    """A divisor on the first n_levels hyperplanes, written as the parser reads it."""
    terms = [(rng.randint(lo, hi), f"xi{k}") for k in range(1, n_levels + 1)]
    terms = [(c, name) for c, name in terms if c]
    if not terms:
        return "0"
    text = ""
    for i, (c, name) in enumerate(terms):
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if i == 0:
            text = body if c > 0 else f"-{body}"
        else:
            text += (" + " if c > 0 else " - ") + body
    return text


def _nonzero_divisor(rng: random.Random, n_levels: int, lo: int, hi: int) -> str:
    while True:
        text = _divisor(rng, n_levels, lo, hi)
        if text != "0":
            return text


def _geometry(rng: random.Random) -> tuple[str, list[int]]:
    """1-3 levels of total dimension <= SHEAF_MAX_DIM; above the first level
    each bundle is trivial or a sum of twisted line bundles, half and half."""
    n_levels = rng.randint(1, 3)
    dim = rng.randint(n_levels, SHEAF_MAX_DIM)
    cuts = sorted(rng.sample(range(1, dim), n_levels - 1))
    ranks = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    text = "point"
    for k, r in enumerate(ranks):
        if k == 0 or rng.random() < 0.5:
            bundle = f"trivial {r + 1}"
        else:
            bundle = "[" + ", ".join(_divisor(rng, k) for _ in range(r + 1)) + "]"
        text = f"P({bundle}) over {text}"
    return text, ranks


def _effective(rng: random.Random, n_levels: int) -> list[str]:
    return [f"O({_divisor(rng, n_levels)})" for _ in range(rng.randint(1, 3))]


def _class_term(rng: random.Random, n_levels: int) -> str:
    kind = rng.choice(("line", "dual", "twist", "sym", "wedge"))
    if kind == "line":
        return f"O({_divisor(rng, n_levels)})"
    summands = _effective(rng, n_levels)
    inner = " + ".join(summands)
    if kind == "dual":
        return f"dual({inner})"
    if kind == "twist":
        return f"twist({_nonzero_divisor(rng, n_levels, -2, 2)}, {inner})"
    if kind == "sym":
        return f"sym({rng.randint(1, SHEAF_MAX_SYM)}, {inner})"
    return f"wedge({rng.randint(1, len(summands))}, {inner})"


def sheaf_query(rng: random.Random) -> list[str]:
    """One ``verify main-theorem`` argv: a sum or difference of 1-3 class
    terms on a random tower, a random base prefix and codimension n <=
    min(3, dim base + 1), and one divisor cut on a quarter of the queries."""
    geometry, ranks = _geometry(rng)
    n_levels = len(ranks)
    sheaf = _class_term(rng, n_levels)
    for _ in range(rng.randint(0, 2)):
        sheaf += rng.choice((" + ", " - ")) + _class_term(rng, n_levels)
    base = rng.randint(0, n_levels - 1)
    n = rng.randint(0, min(3, sum(ranks[:base]) + 1))
    argv = ["verify", "main-theorem", "--geometry", geometry, "--sheaf", sheaf,
            "--base-levels", str(base), "-n", str(n)]
    if rng.random() < 0.25:
        argv += ["--cut", _nonzero_divisor(rng, n_levels, 0, 2)]
    return argv


def make_inputs(workload: str, seed: int, round_index: int) -> list:
    """The round's inputs; a model-sweep input is (catalogue index, instance)."""
    rng = _rng(workload, seed, round_index)
    if workload == "model-sweep":
        cat = catalogue()
        return [(i, cat[i]) for i in rng.sample(range(len(cat)), MODEL_SWEEP_OPS)]
    if workload == "sheaf-queries":
        return [sheaf_query(rng) for _ in range(SHEAF_QUERY_OPS)]
    if workload == "formal-classes":
        return [(FORMAL_INTEGRALITY_DEGREE, FORMAL_SERIES_DEGREE)]
    raise ValueError(f"unknown workload {workload!r}")


def catalogue_id(cat) -> str:
    return hashlib.sha256(repr(cat).encode()).hexdigest()


def load_catalogue_digests() -> list[str]:
    """One report digest per catalogue instance, in catalogue order."""
    header, *digests = CATALOGUE_DIGESTS.read_text().split()
    cat = catalogue()
    if header != catalogue_id(cat) or len(digests) != len(cat):
        raise RuntimeError(f"the registered catalogue differs from {CATALOGUE_DIGESTS.name}")
    return digests


# ---------------------------------------------------------------------------
# operations: each returns (report stream lines, every verdict passed)
# ---------------------------------------------------------------------------


def model_sweep_op(instance) -> tuple[list[str], bool]:
    name, base, coeffs, n = instance
    tower = suites.model_tower(name)
    label = "O(" + ",".join(map(str, coeffs)) + ")"
    datum = MorphismDatum(tower, base, f"{name}->prefix{base}")
    reports = grr.check_main_theorem(datum, tower.line(coeffs), n, label)
    return [r.to_json() for r in reports], all(r.passed for r in reports)


def sheaf_query_op(argv: list[str]) -> tuple[list[str], bool]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    ok = code == 0 and bool(lines) and all(json.loads(x)["verdict"] == "pass" for x in lines)
    return lines, ok


def formal_classes_op(degrees: tuple[int, int]) -> tuple[list[str], bool]:
    integrality, series = degrees
    reports = suites.suite_integrality(integrality) + suites.suite_series_identities(series)
    return [r.to_json() for r in reports], all(r.passed for r in reports)


def op_digest(lines: list[str]) -> str:
    """Short digest of one operation's reports, as stored in catalogue_digests.txt."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


def run_round(workload: str, seed: int, round_index: int, tracer=None) -> dict:
    """Build the round's inputs, then run them with ``run_ops``."""
    return run_ops(workload, make_inputs(workload, seed, round_index), tracer)


def run_ops(workload: str, inputs: list, tracer=None) -> dict:
    """Run and time every op, and check every result.

    An op fails when it raises, when the CLI exits non-zero, when a verdict is
    not ``pass``, or (model-sweep) when its reports differ from the recorded
    catalogue digest.  With a tracer, the tracer is installed for the timed
    phase only and removed before returning.
    """
    digests = None
    if workload == "model-sweep":
        digests = load_catalogue_digests()
        op = lambda inp: model_sweep_op(inp[1])  # noqa: E731
    else:
        op = sheaf_query_op if workload == "sheaf-queries" else formal_classes_op

    stream = hashlib.sha256()
    latencies: list[float] = []
    failures: list[str] = []
    if tracer is not None:
        tracer.install()
    t_first_op = time.perf_counter()
    try:
        for i, inp in enumerate(inputs):
            started = time.perf_counter()
            try:
                if tracer is None:
                    lines, ok = op(inp)
                else:
                    with tracer.op(i):
                        lines, ok = op(inp)
            except Exception as exc:  # a raising op is a failed op; keep going
                lines, ok = [f"{type(exc).__name__}: {exc}"], False
            latencies.append((time.perf_counter() - started) * 1000.0)
            if ok and digests is not None and op_digest(lines) != digests[inp[0]]:
                ok = False
                lines = lines + ["report digest differs from catalogue_digests.txt"]
            if not ok:
                failures.append(f"op {i}: {inputs[i]!r}: {lines[-1][:300]}")
            stream.update("".join(line + "\n" for line in lines).encode())
        wall_s = time.perf_counter() - t_first_op
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "attempted": len(inputs),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_ms": latencies,
        "wall_s": wall_s,
        "t_first_op": t_first_op,
        "stream_sha256": stream.hexdigest(),
    }
