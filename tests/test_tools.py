"""tools/bench_pairs.py: the summariser on synthetic result rows and the argument parsing."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_row(ops, p50, *, failed=0, correct=True):
    """A run entry as bench_pairs.run_once builds it, with the other metrics fixed."""
    values = {"ops_per_s": ops, "op_p50_ms": p50, "setup_s": 0.3, "peak_rss_mb": 40.0}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
            "wall": {"ops_per_s": ops, "op_p50_ms": p50, "setup_s": 0.3,
                     "speed_vs_nominal": 1.0},
            "statistical_miss_share": 0.0}


def pairs_of(parent, change, workload="exact"):
    return [{"workload": workload, "seed": i, "first": "parent", "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_quartiles_wins_and_change():
    parent = [run_row(v, 1000.0 / v) for v in (100.0, 110.0, 120.0, 130.0, 140.0)]
    change = [run_row(v, 1000.0 / v, failed=1 if v == 125.0 else 0)
              for v in (150.0, 110.0, 125.0, 100.0, 160.0)]
    s = bench_pairs.summarize(pairs_of(parent, change), METRICS)["exact"]
    assert s["pairs"] == 5 and s["all_correct"]
    assert s["failed_ops"] == {"parent": 0, "change": 1}
    assert s["attempted_ops"] == {"parent": 500, "change": 500}
    ops = s["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["parent"] == {"median": 120.0, "q1": 110.0, "q3": 130.0}
    assert ops["change"] == {"median": 125.0, "q1": 110.0, "q3": 150.0}
    assert ops["change_wins"] == 3  # 150, 125 and 160 win; the tie at 110 counts for neither
    assert ops["median_change"] == pytest.approx(125.0 / 120.0 - 1.0)
    assert ops["parent_iqr"] == 20.0
    p50 = s["op_p50_ms"]
    assert p50["better"] == "lower" and p50["change_wins"] == 3
    assert s["setup_s"]["change_wins"] == 0  # equal everywhere: all ties
    assert s["wall"]["ops_per_s"] == ops
    assert s["wall"]["speed_vs_nominal"] == {
        side: {"median": 1.0, "q1": 1.0, "q3": 1.0} for side in ("parent", "change")}


def test_summary_is_per_workload_and_marks_incorrect_runs():
    rows = (pairs_of([run_row(10.0, 100.0)], [run_row(11.0, 90.0)], "fit")
            + pairs_of([run_row(300.0, 3.0)], [run_row(330.0, 2.9, correct=False)], "exact"))
    summary = bench_pairs.summarize(rows, METRICS)
    assert list(summary) == ["fit", "exact"]
    assert summary["fit"]["all_correct"] and not summary["exact"]["all_correct"]
    assert summary["fit"]["ops_per_s"]["change_wins"] == 1
    assert summary["fit"]["ops_per_s"]["median_change"] == pytest.approx(0.1)


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("2601-2603", [2601, 2602, 2603])])
def test_seed_range(text, seeds):
    assert bench_pairs._seed_range(text) == seeds


@pytest.mark.parametrize("extra", [["--workload", "nope"],
                                   ["--workload", "exact", "--seconds", "10"]])
def test_workloads_and_run_length_come_from_the_benchmark(extra, tmp_path):
    argv = ["--parent", "p", "--change", "c", "--seeds", "1-2", "--out", str(tmp_path / "o.json")]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + extra)
    assert not (tmp_path / "o.json").exists()
