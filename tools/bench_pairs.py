"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload exact \
        --seeds 2601-2610 --out BENCH_26.json

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in the parent checkout and once in the change checkout,
one run at a time; the side that runs first alternates from pair to pair.
T is BENCHMARK.json's ``run_seconds`` and the workload names are its
``workloads``.
With several ``--workload`` options the workloads are interleaved, and each
takes the next block of seeds: with seeds 2601-2610 and workloads exact and
fit, exact runs seeds 2601-2610 and fit 2611-2620.  The file is rewritten
after every pair, so an interrupted run keeps the pairs it finished.

Each run's entry is its result line as ``bench/run.py`` printed it, plus
the raw wall times and the statistical miss share of its details line.
The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles (numpy's linear interpolation), the pairs
the change wins in the direction of the metric's ``better`` (ties count
for neither side), the relative change of the median and the parent's
interquartile range.  The raw wall times are summarised alike under
``wall``.  The benchmark's files are only read, never written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
# Raw wall times of the details line; speed_vs_nominal has no better direction.
WALL = ("ops_per_s", "op_p50_ms", "setup_s", "speed_vs_nominal")


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"need FIRST-LAST with 0 <= FIRST <= LAST, got {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its result line, raw wall times and miss share."""
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    details, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {**result, "wall": details["wall"],
            "statistical_miss_share": details["statistical_miss_share"]}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    return {"better": better, "parent": p, "change": c,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "median_change": c["median"] / p["median"] - 1.0,
            "parent_iqr": p["q3"] - p["q1"]}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-workload summary of pairs, for the end-to-end metrics of BENCHMARK.json."""
    better = {m["name"]: m["better"] for m in metrics}
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        side = {s: [r[s] for r in rows] for s in SIDES}
        entry = {"pairs": len(rows),
                 "failed_ops": {s: sum(r["failed"] for r in side[s]) for s in SIDES},
                 "attempted_ops": {s: sum(r["attempted"] for r in side[s]) for s in SIDES},
                 "all_correct": all(r["correct"] for s in SIDES for r in side[s])}
        for name in better:
            entry[name] = _compare(*([r["metrics"][name]["value"] for r in side[s]]
                                     for s in SIDES), better[name])
        entry["wall"] = {}
        for name in WALL:
            values = [[r["wall"][name] for r in side[s]] for s in SIDES]
            entry["wall"][name] = (_compare(*values, better[name]) if name in better
                                   else dict(zip(SIDES, map(_quartiles, values))))
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", required=True, type=_seed_range,
                        help="FIRST-LAST: one pair per seed, per workload")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    n = len(args.seeds)
    doc = {"command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} "
                      "--trace 0",
           "checkouts": {"parent": args.parent.name, "change": args.change.name},
           "pairs": [], "summary": {}}
    for i in range(n):
        for k, workload in enumerate(args.workload):
            seed = args.seeds[0] + k * n + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for s in order:
                pair[s] = run_once(getattr(args, s), workload, seed, seconds)
            doc["pairs"].append(pair)
            doc["summary"] = summarize(doc["pairs"], bench["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(workload, seed, *(round(pair[s]["metrics"]["ops_per_s"]["value"], 3)
                                    for s in SIDES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
