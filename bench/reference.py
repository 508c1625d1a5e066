"""Record or check the benchmark's reference outputs.

Usage:
    python3 bench/reference.py           # recompute, compare with the stored files
    python3 bench/reference.py --write   # recompute and store

It produces two files next to this script:

* ``catalogue_digests.txt``: the sha256 of the model-sweep catalogue's
  instance list, then one short digest of the report stream of every
  catalogue instance, in catalogue order.  model-sweep checks every op
  against it, whatever the seed.
* ``reference.json``: the stream sha256 of every round a 30-second run makes
  at the default seed, and a one-off baseline outside the gated workloads:
  the sha256, report count and cold wall time of ``grrcheck verify all`` and
  of every suite, with the Python version and the machine they were timed on.

Checking compares every digest and ignores the wall times.  It exits 1 when
a digest differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from grrcheck.suites import SUITES  # noqa: E402

RUN_SECONDS = 30


def catalogue_digests() -> str:
    cat = workloads.catalogue()
    digests = []
    for instance in cat:
        lines, ok = workloads.model_sweep_op(instance)
        if not ok:
            raise SystemExit(f"catalogue instance {instance} does not pass")
        digests.append(workloads.op_digest(lines))
    return "\n".join([workloads.catalogue_id(cat)] + digests) + "\n"


def round_digests() -> dict[str, list[str]]:
    out = {}
    for workload in run.WORKLOADS:
        n_rounds = max(1, round(RUN_SECONDS / run.NOMINAL_ROUND_S[workload]))
        if workload == "formal-classes":
            n_rounds = 1  # seed-independent: every round must give this stream
        out[workload] = []
        for r in range(n_rounds):
            result = workloads.run_round(workload, run.DEFAULT_SEED, r)
            if result["failed"]:
                raise SystemExit(f"{workload} round {r} failed: {result['failures']}")
            out[workload].append(result["stream_sha256"])
    return out


def cli_stream(*args: str) -> dict:
    """sha256, report count and wall time of one cold ``grrcheck verify`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "grrcheck.cli", "verify", *args],
                          capture_output=True, env=env, cwd=ROOT)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"verify {' '.join(args)} exited {proc.returncode}")
    return {
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "reports": proc.stdout.count(b"\n"),
        "cold_wall_s": round(wall, 2),
    }


def _streams(baseline: dict) -> dict:
    """(sha256, report count) of ``verify all`` and of every suite."""
    runs = {"all": baseline["verify_all"], **baseline["suites"]}
    return {name: (r["sha256"], r["reports"]) for name, r in runs.items()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    digests_path = BENCH_DIR / "catalogue_digests.txt"
    reference_path = run.REFERENCE

    catalogue = catalogue_digests()
    if write:
        digests_path.write_text(catalogue)
    reference = {
        "default_seed": run.DEFAULT_SEED,
        "round_sha256": round_digests(),
        "baseline": {
            "python": platform.python_version(),
            "machine": f"{cpu_model()}, {os.cpu_count()} cpus",
            "verify_all": cli_stream("all"),
            "suites": {name: cli_stream(name) for name in sorted(SUITES)},
        },
    }
    if write:
        reference_path.write_text(json.dumps(reference, indent=2) + "\n")
        print(f"wrote {digests_path.name} and {reference_path.name}")
        return 0

    stored = json.loads(reference_path.read_text())
    problems = []
    if digests_path.read_text() != catalogue:
        problems.append("catalogue digests differ")
    if stored["round_sha256"] != reference["round_sha256"]:
        problems.append("default-seed round streams differ")
    was, now = (_streams(r["baseline"]) for r in (stored, reference))
    problems += [f"verify {name} stream differs" for name in now if now[name] != was.get(name)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print("reference outputs " + ("differ" if problems else "match"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
