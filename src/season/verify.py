"""The paper's 11 acceptance criteria as one table, run by `season verify`.

`CRITERIA` holds each criterion once: its number, a short title, its suite
(core, identity, bounds or samplers), a check function returning
CheckResults whose details state their tolerances, and the time limit the
criterion states, if any.  Pass/fail rules and tolerances live only in these
check functions; the results they read carry values.  `BoundReport` alone keeps
`holds` and its `tol`: both are keys of the bound_report.json that `season run`
and `season bounds` write.  The table's order is the run order, so suites
run in the order their first entries appear.  `run_suite` times every entry,
appends a failed `time-limit` check when one runs over its limit, and
returns the report as plain JSON data, which `season verify` prints.  Only
each criterion's `seconds` varies between runs of the same code: the
time-limit check's detail states the limit alone.  The acceptance tests
assert on the report of `season verify all` and keep no checks of their own.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import generators as G
from .discriminator import Discriminator, grads, init_discriminator, input_grad
from .distributions import OUSchedule, as_generator, ou_params
from .experiments import (
    bound_trials,
    concordance_run,
    identity_discrete_experiment,
    random_discrete_pair,
    refinement_benefit_experiment,
)
from .generators import GENERATOR_NAMES, TWO_LOG_TWO, get_generator
from .metrics import (
    ConvergenceBoundInputs,
    convergence_bound,
    exact_fdiv,
    fdiv_kl_lemma_check,
    slow_rate_term,
    vi_duality_check,
)
from .oracle import HSpec, dual_grid_min, simplex_grid, strong_duality_check
from .samplers import LangevinConfig, ReverseDiffusionConfig, langevin, reverse_em

__all__ = ["CheckResult", "Criterion", "CRITERIA", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy comparisons give numpy.bool_, which json cannot serialize
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    suite: str
    check: Callable[[], list[CheckResult]]
    time_limit: Optional[float] = None  # seconds, where the criterion states one

    def run(self) -> dict:
        """This criterion's entry in the report: its checks, pass flag and wall time."""
        start = time.perf_counter()
        checks = list(self.check())
        seconds = time.perf_counter() - start
        if self.time_limit is not None:
            checks.append(CheckResult("time-limit", seconds < self.time_limit,
                                      f"limit {self.time_limit:g} s"))
        return {"criterion": self.number, "title": self.title,
                "passed": all(c.passed for c in checks), "seconds": round(seconds, 3),
                "checks": [asdict(c) for c in checks]}


_GENERATORS = [get_generator(n) for n in GENERATOR_NAMES]


def _check(name: str, errors, tol: float) -> CheckResult:
    """Pass when the largest error is within tol; a NaN error fails."""
    err = float(np.max(errors))
    return CheckResult(name, err <= tol, f"max err {err:.3e} vs tol {tol:.1e}")


def _main_identity() -> list[CheckResult]:
    rows = identity_discrete_experiment(n_instances=100, seed=7)
    return [_check("identity-residual", [r["residual"] for r in rows], 1e-9)]


def _rich_recovery() -> list[CheckResult]:
    rows = identity_discrete_experiment(n_instances=100, seed=7)
    return [_check("rich-recovery-tv", [r["tv_to_nu"] for r in rows], 1e-10),
            _check("lambda-at-optimum", [abs(r["lambda_h"]) for r in rows], 1e-10)]


def _strong_duality() -> list[CheckResult]:
    ball = HSpec("ball", 0.5)
    rng = as_generator(21)
    certificates, grid_gaps = [], []
    for _ in range(20):
        nu, mu = random_discrete_pair(rng, 3, floor=0.2)
        for gen in _GENERATORS:
            res = strong_duality_check(nu, mu, gen, ball)
            certificates.append(res)
            grid_gaps.append(dual_grid_min(nu, mu, gen, ball).value - res.primal)
    for k in (4, 8, 16, 32, 64):
        for _ in range(4):
            nu, mu = random_discrete_pair(rng, k)
            certificates += [strong_duality_check(nu, mu, gen, ball) for gen in _GENERATORS]
    return [_check("strong-duality-gap", np.abs(grid_gaps), 2.0 / 200.0),
            CheckResult("strong-duality-grid-fine-enough",
                        not any(g > 10.0 * (1.0 / 200.0) for g in grid_gaps),
                        "no gap above 10/200 on 20 pairs x 3 generators"),
            _check("strong-duality-certificate-gap",
                   [abs(r.gap) / max(1.0, abs(r.primal)) for r in certificates], 1e-12),
            _check("strong-duality-certificate-mass",
                   [r.mass_error for r in certificates], 1e-12)]


def _f_core() -> list[CheckResult]:
    checks = []
    t_grid = np.logspace(-3, 3, 50)
    t_pred = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    etas = np.arange(0.1, 0.95, 0.1)
    link_etas = np.linspace(0.02, 0.98, 25)
    for gen in _GENERATORS:
        fy = np.abs(np.asarray(gen.f(t_grid))
                    + np.asarray(gen.conjugate_fn(gen.f_prime(t_grid)))
                    - t_grid * np.asarray(gen.f_prime(t_grid)))
        checks.append(_check(f"fenchel-young[{gen.name}]", fy, 1e-10))

        lo, hi = gen.conjugate_domain
        s_grid = np.linspace(max(lo, -6.0), min(hi - 1e-3, 6.0), 41)
        eps = 1e-6
        fd = (np.asarray(gen.conjugate_fn(s_grid + eps))
              - np.asarray(gen.conjugate_fn(s_grid - eps))) / (2 * eps)
        inv = np.asarray(gen.f_prime_inv(s_grid))
        checks.append(_check(f"conjugate-derivative[{gen.name}]",
                             np.abs(fd - inv) / np.maximum(np.abs(inv), 1.0), 1e-6))
        checks.append(_check(f"conjugate-geq-identity[{gen.name}]",
                             s_grid - np.asarray(gen.conjugate_fn(s_grid)), 1e-12))

        pos = -np.asarray(gen.f_prime(t_pred / (1 - t_pred)))
        neg = np.asarray(gen.conjugate_fn(gen.f_prime(t_pred / (1 - t_pred))))
        losses = [(eta, eta * pos + (1 - eta) * neg) for eta in etas]
        checks.append(_check(f"properness-argmin[{gen.name}]",
                             [abs(t_pred[int(np.argmin(loss))] - eta) for eta, loss in losses],
                             2 * (t_pred[1] - t_pred[0])))
        checks.append(_check(f"bayes-closed-form[{gen.name}]",
                             [abs(float(loss.min()) - G.bayes_pointwise_loss(gen, float(eta)))
                              for eta, loss in losses], 1e-6))

        checks.append(_check(f"link-roundtrip[{gen.name}]",
                             [abs(G.inverse_link(gen, G.link(gen, e)) - e) for e in link_etas],
                             1e-12))
        zs = [G.link(gen, e) for e in link_etas]
        checks.append(CheckResult(f"link-monotone[{gen.name}]",
                                  all(a < b for a, b in zip(zs, zs[1:])),
                                  "strictly increasing on a 25-point eta grid"))

    js = get_generator("js_shifted")
    sym = [(G.bayes_pointwise_loss(js, float(e)) + 2 * (1 - e) * math.log(2))
           - (G.bayes_pointwise_loss(js, float(1 - e)) + 2 * e * math.log(2))
           for e in np.linspace(0.01, 0.99, 99)]
    checks.append(_check("js-bayes-symmetry-affine-corrected", np.abs(sym), 1e-12))
    checks.append(_check("js-f-at-zero", abs(G.eval_f(js, 0.0) - TWO_LOG_TWO), 0.0))
    return checks


def _gain_concordance() -> list[CheckResult]:
    checks = []
    for seed in range(10):
        direct, push = concordance_run(seed, n_eval=10_000)
        checks.append(CheckResult(
            f"gain-estimator-concordance[seed={seed}]",
            abs(direct.value - push.value) <= 3.0 * math.hypot(direct.stderr, push.stderr),
            f"direct {direct.value:.4f}+-{direct.stderr:.4f} vs push "
            f"{push.value:.4f}+-{push.stderr:.4f}, tol 3 combined SE"))
    return checks


def _central_differences(params: np.ndarray, objective: Callable[[], float],
                         eps: float = 1e-5) -> np.ndarray:
    """Central differences of objective() in each entry of params, perturbed in place."""
    fd = np.empty(params.size)
    for i, original in enumerate(params):
        params[i] = original + eps
        up = objective()
        params[i] = original - eps
        fd[i] = (up - objective()) / (2 * eps)
        params[i] = original
    return fd


def _gradient_suite() -> list[CheckResult]:
    rng = np.random.default_rng(3)
    eps = 1e-5
    param_errs, input_errs = [], []
    for trial in range(20):
        gen = _GENERATORS[trial % len(_GENERATORS)]
        width = int(rng.integers(3, 7))
        dim = int(rng.integers(1, 3))
        disc = init_discriminator(gen, dim, width, seed=int(rng.integers(1 << 30)))
        disc.bias = float(rng.uniform(-0.3, 0.1))
        x_nu = rng.standard_normal((8, dim))
        x_mu = rng.standard_normal((10, dim))
        analytic, _, _ = grads(disc, gen, x_nu, x_mu)
        fd = _central_differences(disc.params, lambda: grads(disc, gen, x_nu, x_mu)[1])
        param_errs.append(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0))

        x_probe = rng.standard_normal((25, dim))
        gin = input_grad(disc, x_probe)[1]
        for j, shift in enumerate(eps * np.eye(dim)):
            fd = (disc.h_batch(x_probe + shift) - disc.h_batch(x_probe - shift)) / (2 * eps)
            input_errs.append(np.abs(gin[:, j] - fd) / np.maximum(np.abs(fd), 1.0))
    return [_check("parameter-gradients-20-nets", np.concatenate(param_errs), 1e-4),
            _check("input-gradients-20-nets", np.concatenate(input_errs), 1e-4)]


def _neutral_guidance(T: float, K: int, n_chains: int, seed: int):
    """Unguided and constant-discriminator-guided reverse EM on the N(0, 1) score."""
    cfg = ReverseDiffusionConfig(schedule=OUSchedule(1.0, T), K=K,
                                 n_chains=n_chains, dim=1, seed=seed)
    js = get_generator("js_shifted")
    neutral = [Discriminator(js, 1, 4) for _ in range(K)]
    return reverse_em(lambda x, k: -x, cfg), reverse_em(lambda x, k: -x, cfg, js, neutral)


def _sampling() -> list[CheckResult]:
    cfg = LangevinConfig(step_size=1e-3, n_steps=5000, n_chains=10_000, dim=1, seed=0)
    out = langevin(lambda x: -x, cfg)
    se = out.std(ddof=1) / math.sqrt(cfg.n_chains)
    checks = [
        CheckResult("ula-normal-mean", abs(out.mean()) <= 3 * se,
                    f"mean {out.mean():+.4f}, tol 3 SE = {3 * se:.4f}"),
        _check("ula-normal-variance", abs(out.var(ddof=1) - 1.0), 0.05),
        CheckResult("ula-deterministic", np.array_equal(out, langevin(lambda x: -x, cfg)),
                    "same seed, bit-identical batches"),
    ]
    unguided, guided = _neutral_guidance(3.0, 200, 10_000, seed=1)
    se = unguided.std(ddof=1) / math.sqrt(unguided.shape[0])
    checks.append(CheckResult("reverse-em-moments", abs(unguided.mean()) <= 3 * se,
                              f"mean {unguided.mean():+.4f}, tol 3 SE = {3 * se:.4f}"))
    checks.append(CheckResult("guidance-neutrality[T=3,K=200]", np.array_equal(unguided, guided),
                              "constant discriminators leave trajectories bit-identical"))
    unguided, guided = _neutral_guidance(2.0, 50, 2000, seed=5)
    checks.append(CheckResult("guidance-neutrality[T=2,K=50]", np.array_equal(unguided, guided),
                              "constant discriminators leave trajectories bit-identical"))
    return checks


def _refinement_benefit() -> list[CheckResult]:
    wins = sum(refinement_benefit_experiment(seed).improved for seed in range(10))
    return [CheckResult("guided-beats-unguided", wins >= 8,
                        f"guided W1 lower on {wins}/10 seeds, need >= 8")]


def _generalization_bound() -> list[CheckResult]:
    sr = slow_rate_term(1.0, 0.05, 200)
    reports = bound_trials(n_trials=100, seed=13)
    held = sum(r.holds for r in reports)
    margin = min(r.rhs - r.d_H_lhs for r in reports)
    # the criterion prints 0.173083, a misrounding of 2 sqrt(ln 20 / 400) = 0.17308184
    return [_check("slow-rate-value", abs(sr - 2.0 * math.sqrt(math.log(20.0) / 400.0)), 1e-15),
            _check("slow-rate-six-decimals", abs(sr - 0.173082), 1e-6),
            CheckResult("bound-holds-95", held >= 95,
                        f"held in {held}/100 trials, need >= 95; smallest margin {margin:.4f}")]


def _appendix_lemmas() -> list[CheckResult]:
    rng = as_generator(5)
    kl, js = get_generator("kl"), get_generator("js_shifted")
    excess, lemma_ok = [], True
    for _ in range(1000):
        nu, mu = random_discrete_pair(rng, int(rng.integers(2, 5)))
        excess.append(exact_fdiv(nu, mu, js) - exact_fdiv(nu, mu, kl))
        lemma_ok = lemma_ok and all(c.lhs <= c.rhs + 1e-12 for c in
                                    (fdiv_kl_lemma_check(nu, mu, g) for g in _GENERATORS))
    checks = [_check("bose-einstein-kl", excess, 1e-12),
              CheckResult("fdiv-kl-lemma", lemma_ok,
                          "witness bound held within 1e-12 on 1000 random pairs")]

    zero = convergence_bound(ConvergenceBoundInputs(0, 0, 0, 1, 1.0, 10, 1.0, 0.0))
    checks.append(_check("convergence-zero", abs(zero), 0.0))
    rng = as_generator(6)
    drops = []
    for _ in range(100):
        base = ConvergenceBoundInputs(
            eps_theta=float(rng.uniform(0, 2)), L=float(rng.uniform(0, 2)),
            m2=float(rng.uniform(0, 2)), d=int(rng.integers(1, 3)),
            T=float(rng.uniform(0.5, 3)), K=int(rng.integers(5, 50)),
            norm_H=float(rng.uniform(0.5, 2)), forward_gap_If=float(rng.uniform(0, 1)),
        )
        v0 = convergence_bound(base)
        for fld in ("eps_theta", "L", "m2"):
            bumped = {**base.__dict__, fld: getattr(base, fld) + float(rng.uniform(0.01, 1.0))}
            drops.append(v0 - convergence_bound(ConvergenceBoundInputs(**bumped)))
    checks.append(_check("convergence-monotone", drops, 1e-12))

    ts = as_generator(8).uniform(0, 3.0, size=20)
    ou = []
    for beta in (1.0, 1.3):
        sched = OUSchedule(beta, 3.0)
        ou += [abs(m * m + s * s - 1.0) for m, s in (ou_params(sched, float(t)) for t in ts)]
    checks.append(_check("ou-identity", ou, 1e-10))
    return checks


def _vi_duality() -> list[CheckResult]:
    residuals = []
    rng = as_generator(9)
    for _ in range(50):
        mu, _ = random_discrete_pair(rng, 3)
        residuals.append(vi_duality_check(mu, rng.uniform(-1, 2, size=3)).residual)
    rng = as_generator(9)
    for _ in range(100):
        mu, _ = random_discrete_pair(rng, 3, floor=0.15)
        residuals.append(vi_duality_check(mu, rng.uniform(-1.5, 1.5, 3)).residual)
    checks = [_check("vi-duality", residuals, 1e-10)]

    mu, _ = random_discrete_pair(rng, 3, floor=0.15)
    L = rng.uniform(-1, 1, 3)
    res = vi_duality_check(mu, L)
    grid = simplex_grid()
    interior = grid[np.all(grid > 0, axis=1)]
    obj = interior @ L + np.sum(interior * np.log(interior / mu.weights), axis=1)
    tv = 0.5 * float(np.abs(interior[int(np.argmin(obj))] - res.gibbs.weights).sum())
    checks.append(_check("gibbs-at-or-below-simplex-grid", res.rhs - obj.min(), 1e-12))
    checks.append(_check("gibbs-is-grid-minimiser-tv", tv, 0.03))
    return checks


CRITERIA = (
    Criterion(4, "f core", "core", _f_core),
    Criterion(6, "gradient suite", "core", _gradient_suite),
    Criterion(1, "main identity", "identity", _main_identity, time_limit=5.0),
    Criterion(2, "rich recovery", "identity", _rich_recovery),
    Criterion(3, "strong duality", "identity", _strong_duality),
    Criterion(5, "gain estimator concordance", "bounds", _gain_concordance),
    Criterion(9, "generalization bound", "bounds", _generalization_bound),
    Criterion(10, "appendix lemmas", "bounds", _appendix_lemmas),
    Criterion(11, "vi duality", "bounds", _vi_duality),
    Criterion(7, "sampling", "samplers", _sampling),
    Criterion(8, "refinement benefit", "samplers", _refinement_benefit, time_limit=120.0),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CRITERIA))


def run_suite(name: str) -> dict:
    """The report of one suite's criteria in table order, or of every suite for "all"."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    suites = []
    for suite in SUITES if name == "all" else (name,):
        criteria = [c.run() for c in CRITERIA if c.suite == suite]
        suites.append({"suite": suite, "passed": all(c["passed"] for c in criteria),
                       "criteria": criteria})
    return {"suites": suites, "passed": all(s["passed"] for s in suites)}
