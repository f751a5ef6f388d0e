"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest -q bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FitSizes, SampleSizes  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "fit": FitSizes(n_train=200, width=4, steps=20, n_eval=500),
    "sample": SampleSizes(k_levels=4, n_train=64, width=4, steps=20, n_chains=200,
                          langevin_steps=10),
    "exact": None,  # already tiny at full size
}


# Calls each workload must reach through a wrapped name, and calls it must not make.
USED = {
    "fit": ["discriminator.grads", "discriminator.train", "discriminator.h_batch",
            "refine.solve_lambda", "metrics.est_gain_direct"],
    "sample": ["discriminator.grads", "discriminator.h_batch", "discriminator.input_grad",
               "refine.refined_score", "samplers.reverse_em", "distributions.score"],
    "exact": ["oracle.primal_sup_tabular", "oracle.dual_grid_min",
              "distributions.discrete_ratio", "refine.solve_lambda",
              "refine.refine_discrete", "metrics.est_DfH"],
}
UNUSED = {
    "fit": ["samplers.reverse_em", "oracle.primal_sup_tabular"],
    "sample": ["oracle.primal_sup_tabular", "distributions.discrete_ratio"],
    "exact": ["discriminator.grads", "samplers.reverse_em"],
}


def tiny_run(name, tmp_path, *, trace, seed=3):
    return harness.run(name, seed, 0.01, trace, work_root=tmp_path, sizes=TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    result, details = tiny_run(name, tmp_path, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > workloads.WORKLOADS[name].setup_repeats
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"} <= set(
        details["environment"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_span_tree_is_well_formed(name, tmp_path):
    result, details = tiny_run(name, tmp_path, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    assert all(calls[n] > 0 for n in USED[name]) and all(calls[n] == 0 for n in UNUSED[name])
    if name == "exact":  # full size: the golden-section search dominates
        assert next(iter(details["self_share_top"])) == "oracle.primal_sup_tabular"

    rows = json.loads(Path(details["spans_file"]).read_text())["spans"]
    roots = {}
    for i, (span_name, start, end, parent, op, self_ns) in enumerate(rows):
        assert start <= end and self_ns >= 0
        if parent is None:
            assert op not in roots, f"op {op} has two roots"
            roots[op] = span_name
        else:
            p = rows[parent]
            assert parent < i and p[4] == op and p[1] <= start and end <= p[2]
    ops = {i: spans.OP_ROOT for i in range(details["traced_ops"])}
    assert roots == {-1: spans.SETUP_ROOT, **ops}


def _bound_objects():
    """Every attribute of the season modules and of the layers' classes, by identity."""
    seen = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "season" or mod_name.startswith("season."):
            for attr, value in vars(module).items():
                seen[(mod_name, attr)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        seen[(mod_name, attr, cattr)] = cvalue
    return seen


def test_traced_run_restores_every_original(tmp_path):
    from season import discriminator, distributions, refine, samplers

    originals = {
        "grads": discriminator.grads,
        "input_grad": discriminator.input_grad,
        "h_batch": discriminator.Discriminator.h_batch,
        "score": distributions.GaussianMixture.score,
    }
    before = _bound_objects()
    tiny_run("sample", tmp_path, trace=True)
    after = _bound_objects()
    assert discriminator.grads is originals["grads"]
    assert samplers.input_grad is originals["input_grad"]
    assert refine.input_grad is originals["input_grad"]
    assert discriminator.Discriminator.__dict__["h_batch"] is originals["h_batch"]
    assert distributions.GaussianMixture.__dict__["score"] is originals["score"]
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert not any(isinstance(h, spans._ClampCounter)
                   for h in discriminator.logger.handlers)


def test_counts_repeat_exactly_per_seed(tmp_path):
    first, _ = tiny_run("exact", tmp_path, trace=True)
    second, _ = tiny_run("exact", tmp_path, trace=True)
    counts = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "rows")]
    assert [first["metrics"][n]["value"] for n in counts] == \
           [second["metrics"][n]["value"] for n in counts]


def test_nan_chain_counts_as_failed_op(tmp_path, monkeypatch):
    from season import samplers

    real = samplers.reverse_em

    def nan_first_chain(*args, **kwargs):
        y = real(*args, **kwargs)
        y[0] = np.nan
        return y

    monkeypatch.setattr(samplers, "reverse_em", nan_first_chain)
    result, details = tiny_run("sample", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ops_per_s"]["value"] == 0.0
    assert details["failure_reasons"]["nonfinite_guided"] == result["attempted"]


def _pushforward_at_boundary(monkeypatch, ops):
    """Make concordance_run return an infinite pushforward gain on the given calls."""
    from season import experiments
    from season.metrics import MCEstimate

    real = experiments.concordance_run
    calls = count()

    def patched(*args, **kwargs):
        direct, push = real(*args, **kwargs)
        if next(calls) in ops:
            push = MCEstimate(-np.inf, np.nan, direct.n)
        return direct, push

    monkeypatch.setattr(experiments, "concordance_run", patched)


def test_rare_statistical_miss_is_recorded_and_leaves_the_run_correct(tmp_path,
                                                                      monkeypatch):
    _pushforward_at_boundary(monkeypatch, ops={0})
    result, details = tiny_run("fit", tmp_path, trace=False)
    assert result["attempted"] > 2 and result["failed"] == 0
    assert result["correct"]
    assert details["statistical_miss_share"] == 1 / result["attempted"]
    assert details["failure_reasons"] == {"pushforward_at_boundary": 1}


def test_frequent_statistical_miss_makes_the_run_incorrect(tmp_path, monkeypatch):
    _pushforward_at_boundary(monkeypatch, ops=range(10**6))
    result, details = tiny_run("fit", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == 0 and details["statistical_miss_share"] == 1.0
    assert details["failure_reasons"] == {"pushforward_at_boundary": result["attempted"]}


def test_guidance_that_does_nothing_makes_the_run_incorrect(tmp_path, monkeypatch):
    from season import samplers

    real = samplers.reverse_em
    monkeypatch.setattr(samplers, "reverse_em", lambda score, cfg, *guidance: real(score, cfg))
    result, details = tiny_run("sample", tmp_path, trace=False)
    assert not result["correct"]
    assert details["failure_reasons"]["guided_not_better"] == result["attempted"]


def test_csv_from_an_earlier_op_fails_the_check(tmp_path, monkeypatch):
    from season import samplers

    real = samplers.export_samples_csv
    calls = count()

    def first_only(*args):
        if next(calls) == 0:
            real(*args)

    monkeypatch.setattr(samplers, "export_samples_csv", first_only)
    result, details = tiny_run("sample", tmp_path, trace=False)
    assert not result["correct"]
    assert details["failure_reasons"] == {"csv_content": result["attempted"] - 1}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
