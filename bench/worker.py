"""One benchmark round in a fresh process; prints the round's result as JSON.

Usage: python3 bench/worker.py WORKLOAD SEED ROUND TRACE SPAWN_TIME [SPANS_PATH]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` runs from
process start to the first timed op: interpreter start, imports, input
generation and, for model-sweep, building the catalogue towers.
"""

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, round_index, trace, spawn_time = argv[:5]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace == "1" else None
    result = workloads.run_round(workload, int(seed), int(round_index), tracer)
    result["round"] = int(round_index)
    t_first_op = result.pop("t_first_op")
    result["setup_s"] = t_first_op - float(spawn_time)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["restored"] = tracer.restored()
        if len(argv) > 5:
            tracer.write_spans(Path(argv[5]), t_first_op)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
