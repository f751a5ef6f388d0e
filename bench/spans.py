"""Span tracing of the season layers, installed from outside the package.

A Tracer wraps every public function and public method of each layer
module (the names in the module's ``__all__``) and records one span per
call: name, start, end, parent span and op id.  A wrapper is installed at
every name a caller looks the function up through: the defining module,
every other ``season`` module that imported it by name, and the class
attribute for methods.  ``uninstall`` puts every original object back.

Spans are recorded only inside ``Tracer.op``; calls made outside one (the
benchmark's own checks, say) pass straight through.  Self time is a span's
duration minus the durations of its direct children, which are disjoint
because the benchmark runs one thread.

``season.generators`` gets no spans: its callables are ufunc handles on a
frozen dataclass, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("discriminator", "refine", "samplers", "distributions", "oracle", "metrics",
          "experiments")

# Root span names.  Set-up roots train the sample workload's discriminators;
# op roots are the benchmark's orchestration of one op and count as
# experiments self time.
SETUP_ROOT = "setup"
OP_ROOT = "op"
# Time spent in the tracer's own counting hooks, kept out of every layer.
HOOK = "trace.hook"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("discriminator.grads.calls", "count", "lower"),
    ("discriminator.grads.ms", "ms", "lower"),
    ("discriminator.grads.rows_per_s", "rows/s", "higher"),
    ("discriminator.grads_per_fit", "count", "lower"),
    ("discriminator.train.calls", "count", "lower"),
    ("discriminator.train.self_ms", "ms", "lower"),
    ("discriminator.fits_converged_share", "fraction", "higher"),
    ("discriminator.clamped_outputs", "count", "lower"),
    ("discriminator.h_batch.calls", "count", "lower"),
    ("discriminator.h_batch.ms", "ms", "lower"),
    ("discriminator.input_grad.calls", "count", "lower"),
    ("discriminator.input_grad.ms", "ms", "lower"),
    ("discriminator.forward_rows", "rows", "lower"),
    ("refine.solve_lambda.calls", "count", "lower"),
    ("refine.solve_lambda.ms", "ms", "lower"),
    ("refine.solve_lambda.ms_per_call", "ms", "lower"),
    ("refine.refined_score.calls", "count", "lower"),
    ("refine.refined_score.ms", "ms", "lower"),
    ("refine.refine_continuous.ms", "ms", "lower"),
    ("refine.refine_discrete.calls", "count", "lower"),
    ("refine.refine_discrete.ms", "ms", "lower"),
    ("refine.lambda_residual_max", "abs", "lower"),
    ("samplers.reverse_em.calls", "count", "lower"),
    ("samplers.reverse_em.self_ms", "ms", "lower"),
    ("samplers.langevin.self_ms", "ms", "lower"),
    ("samplers.chain_steps_per_s", "steps/s", "higher"),
    ("samplers.nonfinite_chains", "count", "lower"),
    ("samplers.export_samples_csv.ms", "ms", "lower"),
    ("samplers.export_samples_csv.bytes", "bytes", "lower"),
    ("distributions.score.calls", "count", "lower"),
    ("distributions.score.ms", "ms", "lower"),
    ("distributions.sample.ms", "ms", "lower"),
    ("distributions.discrete_ratio.calls", "count", "lower"),
    ("distributions.discrete_ratio.ms", "ms", "lower"),
    ("oracle.primal_sup_tabular.calls", "count", "lower"),
    ("oracle.primal_sup_tabular.ms", "ms", "lower"),
    ("oracle.dual_grid_min.calls", "count", "lower"),
    ("oracle.dual_grid_min.ms", "ms", "lower"),
    ("oracle.dual_grid_min.grid_rows", "rows", "lower"),
    ("metrics.est_gain_direct.calls", "count", "lower"),
    ("metrics.est_gain_direct.ms", "ms", "lower"),
    ("metrics.est_gain_pushforward.ms", "ms", "lower"),
    ("metrics.est_DfH.calls", "count", "lower"),
    ("metrics.est_DfH.ms", "ms", "lower"),
    ("experiments.self_ms", "ms", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _lambda_residual(disc, gen, mu_ref, lam) -> float:
    """|E_mu[f'^-1(h - lam)] - 1| for the arguments and result of one solve_lambda."""
    from season.discriminator import TabularDiscriminator
    from season.distributions import DiscreteDistribution

    if isinstance(mu_ref, DiscreteDistribution):
        w = mu_ref.weights
        if isinstance(disc, TabularDiscriminator):
            h = disc.h_for(mu_ref)
        else:
            h = disc.h_batch(mu_ref.support)
    else:
        h = disc.h_batch(np.atleast_2d(np.asarray(mu_ref, dtype=float)))
        w = np.full(h.shape[0], 1.0 / h.shape[0])
    return abs(float(w @ np.asarray(gen.f_prime_inv(h - lam))) - 1.0)


class _ClampCounter(logging.Handler):
    """Counts outputs clamped into dom f*, from the season.discriminator warnings."""

    def __init__(self, counters: Counter):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("clamped") and record.args:
            self.counters["clamped_outputs"] += int(record.args[0])


class Tracer:
    """Records spans and counters at the public boundaries of each layer."""

    def __init__(self):
        # each span is [name, start_ns, end_ns, parent index or None, op id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.lambda_residual_max = 0.0
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []
        self._clamps = _ClampCounter(self.counters)
        self._posts = {
            "discriminator.grads": self._post_grads,
            "discriminator.train": self._post_train,
            "discriminator.h_batch": self._post_rows,
            "discriminator.forward_batch": self._post_rows,
            "discriminator.input_grad": self._post_rows,
            "discriminator.linear_objective_grads": self._post_rows,
            "refine.solve_lambda": self._post_solve_lambda,
            "samplers.reverse_em": self._post_reverse_em,
            "samplers.langevin": self._post_langevin,
            "samplers.export_samples_csv": self._post_export,
            "oracle.simplex_grid": self._post_grid,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of each layer, at every name."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"season.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for name, fn in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, name, self._wrap(f"{layer}.{name}", fn))
        for name, module in list(sys.modules.items()):
            if name == "season" or name.startswith("season."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])
        logging.getLogger("season.discriminator").addHandler(self._clamps)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of patching."""
        logging.getLogger("season.discriminator").removeHandler(self._clamps)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        post = self._posts.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                # The hook's own calls make no spans; its time is a span of its
                # own, so that it does not land in the caller's self time.
                hook = [HOOK, clock(), 0, stack[-1], self._op]
                spans.append(hook)
                op, self._op = self._op, None
                try:
                    post(result, *args, **kwargs)
                finally:
                    self._op = op
                    hook[2] = clock()
            return result

        return traced

    @contextmanager
    def op(self, op_id, root: str = OP_ROOT):
        """Record the calls made inside the block as one span tree."""
        span = [root, time.perf_counter_ns(), 0, None, op_id]
        self._stack[:] = [len(self.spans)]
        self.spans.append(span)
        self._op = op_id
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._op = None
            self._stack.clear()

    # -- counters at the same boundaries ----------------------------------

    def _post_grads(self, result, disc, gen, samples_nu, samples_mu):
        rows = _rows(samples_nu) + _rows(samples_mu)
        self.counters["grads_rows"] += rows
        self.counters["forward_rows"] += rows

    def _post_train(self, result, *args, **kwargs):
        from season.discriminator import Discriminator

        if isinstance(result, Discriminator):
            self.counters["net_fits"] += 1
            self.counters["fits_converged"] += bool(result.converged)

    def _post_rows(self, result, disc, x, *args):
        self.counters["forward_rows"] += _rows(x)

    def _post_solve_lambda(self, lam, disc, gen, mu_ref, **kwargs):
        residual = _lambda_residual(disc, gen, mu_ref, lam)
        self.lambda_residual_max = max(self.lambda_residual_max, residual)

    def _post_chains(self, batch, steps: int, n_chains: int):
        self.counters["chain_steps"] += steps * n_chains
        self.counters["nonfinite_chains"] += int((~np.isfinite(batch).all(axis=1)).sum())

    def _post_reverse_em(self, batch, score, cfg, *args, **kwargs):
        self._post_chains(batch, cfg.K, cfg.n_chains)

    def _post_langevin(self, batch, score, cfg):
        self._post_chains(batch, cfg.n_steps, cfg.n_chains)

    def _post_export(self, result, path, batch, seed):
        self.counters["csv_bytes"] += os.path.getsize(path)

    def _post_grid(self, grid, *args, **kwargs):
        self.counters["grid_rows"] += int(grid.shape[0])

    # -- reading the trace --------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span: its duration minus its direct children's."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def _totals(self) -> tuple[Counter, dict, dict]:
        """Calls, summed self time and summed duration (ns) per span name."""
        calls: Counter = Counter()
        self_ns: dict[str, int] = defaultdict(int)
        incl_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times_ns()):
            name = span[0]
            calls[name] += 1
            self_ns[name] += own
            incl_ns[name] += span[2] - span[1]
        return calls, self_ns, incl_ns

    def layer_metrics(self, overhead_share: float) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER, summed over the traced spans."""
        calls, self_ns, incl_ns = self._totals()
        c = self.counters

        def ms(name):
            return self_ns[name] / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        sampler_s = (incl_ns["samplers.reverse_em"] + incl_ns["samplers.langevin"]) / 1e9
        experiments_ns = sum(v for k, v in self_ns.items()
                             if k == OP_ROOT or k.startswith("experiments."))
        values = {
            "discriminator.grads.calls": calls["discriminator.grads"],
            "discriminator.grads.ms": ms("discriminator.grads"),
            "discriminator.grads.rows_per_s": ratio(c["grads_rows"],
                                                    self_ns["discriminator.grads"] / 1e9),
            "discriminator.grads_per_fit": ratio(calls["discriminator.grads"], c["net_fits"]),
            "discriminator.train.calls": calls["discriminator.train"],
            "discriminator.train.self_ms": ms("discriminator.train"),
            "discriminator.fits_converged_share": ratio(c["fits_converged"], c["net_fits"]),
            "discriminator.clamped_outputs": c["clamped_outputs"],
            "discriminator.h_batch.calls": calls["discriminator.h_batch"],
            "discriminator.h_batch.ms": ms("discriminator.h_batch"),
            "discriminator.input_grad.calls": calls["discriminator.input_grad"],
            "discriminator.input_grad.ms": ms("discriminator.input_grad"),
            "discriminator.forward_rows": c["forward_rows"],
            "refine.solve_lambda.calls": calls["refine.solve_lambda"],
            "refine.solve_lambda.ms": ms("refine.solve_lambda"),
            "refine.solve_lambda.ms_per_call": ratio(ms("refine.solve_lambda"),
                                                     calls["refine.solve_lambda"]),
            "refine.refined_score.calls": calls["refine.refined_score"],
            "refine.refined_score.ms": ms("refine.refined_score"),
            "refine.refine_continuous.ms": ms("refine.refine_continuous"),
            "refine.refine_discrete.calls": calls["refine.refine_discrete"],
            "refine.refine_discrete.ms": ms("refine.refine_discrete"),
            "refine.lambda_residual_max": self.lambda_residual_max,
            "samplers.reverse_em.calls": calls["samplers.reverse_em"],
            "samplers.reverse_em.self_ms": ms("samplers.reverse_em"),
            "samplers.langevin.self_ms": ms("samplers.langevin"),
            "samplers.chain_steps_per_s": ratio(c["chain_steps"], sampler_s),
            "samplers.nonfinite_chains": c["nonfinite_chains"],
            "samplers.export_samples_csv.ms": ms("samplers.export_samples_csv"),
            "samplers.export_samples_csv.bytes": c["csv_bytes"],
            "distributions.score.calls": calls["distributions.score"],
            "distributions.score.ms": ms("distributions.score"),
            "distributions.sample.ms": ms("distributions.sample"),
            "distributions.discrete_ratio.calls": calls["distributions.discrete_ratio"],
            "distributions.discrete_ratio.ms": ms("distributions.discrete_ratio"),
            "oracle.primal_sup_tabular.calls": calls["oracle.primal_sup_tabular"],
            "oracle.primal_sup_tabular.ms": ms("oracle.primal_sup_tabular"),
            "oracle.dual_grid_min.calls": calls["oracle.dual_grid_min"],
            "oracle.dual_grid_min.ms": ms("oracle.dual_grid_min"),
            "oracle.dual_grid_min.grid_rows": c["grid_rows"],
            "metrics.est_gain_direct.calls": calls["metrics.est_gain_direct"],
            "metrics.est_gain_direct.ms": ms("metrics.est_gain_direct"),
            "metrics.est_gain_pushforward.ms": ms("metrics.est_gain_pushforward"),
            "metrics.est_DfH.calls": calls["metrics.est_DfH"],
            "metrics.est_DfH.ms": ms("metrics.est_DfH"),
            "experiments.self_ms": experiments_ns / 1e6,
            "trace.overhead_share": overhead_share,
        }
        return {name: values[name] for name, _, _ in PER_LAYER}

    def self_ms_by_span(self) -> dict[str, float]:
        """Self time in ms per span name, largest first."""
        _, self_ns, _ = self._totals()
        return {k: v / 1e6 for k, v in sorted(self_ns.items(), key=lambda kv: -kv[1])}
