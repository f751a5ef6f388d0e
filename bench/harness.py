"""Run one workload: set-up, then either the timed phase or the traced phase.

Timed phase (trace off): a closed loop with one client in one thread.  Each
op starts when the previous one has returned and been checked, until the
run length has passed.  It gives the end-to-end metrics.

Traced phase (trace on): a fixed number of ops, derived from the run length
so that counts repeat exactly per seed.  The set-up and those ops run once
untraced and once traced; the ratio of the two wall times is the tracing
overhead.  It gives the per-layer metrics.

Set-up is timed ``setup_repeats`` times (a workload attribute).  Each
repeat imports the benchmark and the program in a fresh interpreter, builds
the workload's inputs and runs one untimed warm-up op; ``setup_s`` is the
median of the repeats.

Every end-to-end time is rescaled to the nominal speed of the workload's
reference kernel, measured just before and after each op and each in-process
set-up (see ``reference.py``).  The fresh interpreter's import time is not
rescaled: no kernel tracks it.  The details line also gives the raw wall times.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np
import scipy

from reference import references
from spans import PER_LAYER, SETUP_ROOT, Tracer
from workloads import WORKLOADS, derive_seed

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Seed streams derived from the benchmark seed.
_SETUP_STREAM, _WARMUP_STREAM, _OP_STREAM = 0, 1, 2


@dataclass
class Tally:
    """Ops attempted and failed, statistical misses, reasons and the worst check details.

    An op fails when it raises or a check of its output fails.  An op that
    only misses a statistical rule returned a valid output and is not a
    failed op; the run as a whole is incorrect once such misses are more
    frequent than ``max_soft_share`` allows.
    """

    soft: frozenset = frozenset()
    max_soft_share: float = 0.0
    attempted: int = 0
    failed: int = 0
    missed: int = 0
    reasons: Counter = field(default_factory=Counter)
    worst: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def add(self, failures: list[str], details: dict) -> None:
        self.attempted += 1
        hard = any(f not in self.soft for f in failures)
        self.failed += hard
        self.missed += bool(failures) and not hard
        self.reasons.update(failures)
        for key, value in details.items():
            self.worst[key] = max(self.worst.get(key, -np.inf), value)

    @property
    def completed(self) -> int:
        """Ops that returned a valid result, even if a statistical rule was missed."""
        return self.attempted - self.failed

    @property
    def correct(self) -> bool:
        """No failed op, and statistical rules missed no more often than allowed."""
        return self.failed == 0 and self.missed <= self.max_soft_share * self.attempted


def run_op(workload, state, op_seed: int, tally: Tally, tracer: Tracer | None = None,
           op_id: int = 0) -> float:
    """Run and check one op; returns its latency in seconds, check excluded."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(state, op_seed)
        else:
            with tracer.op(op_id):
                out = workload.op(state, op_seed)
        latency = time.perf_counter() - start
        failures, details = workload.check(state, op_seed, out)
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        latency = time.perf_counter() - start
        failures, details = [f"raised {type(exc).__name__}"], {}
        if len(tally.errors) < 3:
            tally.errors.append(traceback.format_exc(limit=4))
    tally.add(failures, details)
    return latency


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the benchmark and the program."""
    bench = Path(__file__).resolve().parent
    path = os.pathsep.join([str(bench), str(bench.parent / "src")])
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import harness"], check=True, timeout=120,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=path))
    return time.perf_counter() - start


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_int
        return int(query())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def _metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def run(name: str, seed: int, seconds: float, trace: bool, *, work_root: Path,
        sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details).

    ``result`` is the benchmark's answer: correct, attempted, failed and the
    metrics.  ``details`` holds the environment, failure reasons, the worst
    check values and, for a traced run, the largest self times.
    """
    cls = WORKLOADS[name]
    workload = cls() if sizes is None else cls(sizes)
    tally = Tally(soft=workload.soft_failures, max_soft_share=workload.max_soft_share)
    ref = references()[name]
    setup_seed = derive_seed(seed, _SETUP_STREAM)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment()}
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work_dir = Path(tmp)
        setup_only, setup_total, setup_scaled = [], [], []
        for i in range(1 if trace else workload.setup_repeats):
            imports = import_seconds()
            before = ref.seconds()
            start = time.perf_counter()
            state = workload.setup(setup_seed, work_dir)
            setup_only.append(time.perf_counter() - start)
            run_op(workload, state, derive_seed(seed, _WARMUP_STREAM, i), tally)
            in_process = time.perf_counter() - start
            setup_total.append(imports + in_process)
            setup_scaled.append(imports + in_process * ref.scale(before, ref.seconds()))
        details["setup_runs_s"] = setup_total
        op_seeds = (derive_seed(seed, _OP_STREAM, i) for i in count())

        if trace:
            n_ops = max(1, round(seconds * workload.nominal_ops_per_s / 2))
            seeds = [next(op_seeds) for _ in range(n_ops)]
            untraced = setup_only[0] + sum(run_op(workload, state, s, tally) for s in seeds)
            tracer = Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                with tracer.op(-1, root=SETUP_ROOT):
                    state = workload.setup(setup_seed, work_dir)
                traced = time.perf_counter() - start
                traced += sum(run_op(workload, state, s, tally, tracer, i)
                              for i, s in enumerate(seeds))
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics(overhead_share=traced / untraced - 1.0)
            metrics = _metrics(values, ((n, u) for n, u, _ in PER_LAYER))
            details["traced_ops"] = n_ops
            self_ms = tracer.self_ms_by_span()
            total = sum(self_ms.values())
            details["self_share_top"] = {k: v / total for k, v in list(self_ms.items())[:8]}
            details["spans_file"] = str(_write_spans(tracer, work_root, name, seed))
        else:
            latencies, scaled = [], []
            completed_before = tally.completed
            before = ref.seconds()
            start = time.perf_counter()
            while not latencies or time.perf_counter() - start < seconds:
                latencies.append(run_op(workload, state, next(op_seeds), tally))
                after = ref.seconds()
                scaled.append(latencies[-1] * ref.scale(before, after))
                before = after
            completed = tally.completed - completed_before
            values = {
                "ops_per_s": completed / sum(scaled),
                "op_p50_ms": statistics.median(scaled) * 1e3,
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = _metrics(values, END_TO_END)
            details["timed_ops"] = len(latencies)
            details["wall"] = {
                "ops_per_s": completed / sum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "setup_s": statistics.median(setup_total),
                "speed_vs_nominal": statistics.median(
                    w / s for w, s in zip(latencies, scaled)),
            }
            if len(scaled) >= 100:  # at least ten samples lie beyond the p90
                details["op_p90_ms"] = statistics.quantiles(scaled, n=10)[-1] * 1e3

    details.update(fail_share=tally.failed / tally.attempted,
                   statistical_miss_share=tally.missed / tally.attempted,
                   failure_reasons=dict(tally.reasons),
                   errors=tally.errors, check_worst=tally.worst)
    result = {"correct": tally.correct,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, details


def _write_spans(tracer: Tracer, work_root: Path, name: str, seed: int) -> Path:
    """Write every span, with its self time, once the run has ended."""
    path = work_root / f"spans-{name}-{seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0
    rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], own]
            for s, own in zip(tracer.spans, tracer.self_times_ns())]
    doc = {"columns": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
           "environment": environment(), "spans": rows}
    path.write_text(json.dumps(doc))
    return path
