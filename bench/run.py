"""Benchmark of the season pipeline: one workload per run.

    python3 bench/run.py --workload {fit,sample,exact} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics from a separately traced run.  The
last line of standard output is the result as one JSON object; the line
before it holds the environment and the check details.  Spans of a traced
run and the op's scratch files go under ``.bench_out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit", "sample", "exact")

# One client, one process, one thread: BLAS must not spread an op over cores.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "season" / "__init__.py").is_file():
        print(f"error: no season package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                  work_root=ROOT / ".bench_out")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
