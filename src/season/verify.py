"""Self-contained property suites behind `season verify`.

Each check returns a CheckResult; suites bundle them and report a single
pass flag plus machine-readable details.  The same checks back the
acceptance tests, so a clean checkout verifies end to end from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import generators as G
from .distributions import as_generator, constant_schedule, gaussian_mixture, ou_params
from .experiments import (
    bound_trials,
    concordance_run,
    identity_discrete_experiment,
    random_discrete_pair,
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
from .oracle import HSpec, strong_duality_check
from .samplers import LangevinConfig, ReverseDiffusionConfig, langevin, reverse_em
from .discriminator import TrainConfig, train, zero_discriminator

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # numpy comparisons give numpy.bool_, which json cannot serialize
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check(name: str, err: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(err <= tol), f"max err {err:.3e} vs tol {tol:.1e}")


def _core_checks() -> list[CheckResult]:
    checks = []
    t_grid = np.logspace(-3, 3, 50)
    for name in GENERATOR_NAMES:
        gen = get_generator(name)
        fy = np.abs(
            np.asarray(gen.f(t_grid))
            + np.asarray(gen.conjugate_fn(gen.f_prime(t_grid)))
            - t_grid * np.asarray(gen.f_prime(t_grid))
        ).max()
        checks.append(_check(f"fenchel-young[{name}]", float(fy), 1e-10))

        lo, hi = gen.conjugate_domain
        s_grid = np.linspace(max(lo, -6.0), min(hi - 1e-3, 6.0), 41)
        eps = 1e-6
        fd = (np.asarray(gen.conjugate_fn(s_grid + eps))
              - np.asarray(gen.conjugate_fn(s_grid - eps))) / (2 * eps)
        rel = np.abs(fd - np.asarray(gen.f_prime_inv(s_grid)))
        rel /= np.maximum(np.abs(np.asarray(gen.f_prime_inv(s_grid))), 1.0)
        checks.append(_check(f"conjugate-derivative[{name}]", float(rel.max()), 1e-6))

        gap = float((s_grid - np.asarray(gen.conjugate_fn(s_grid))).max())
        checks.append(CheckResult(f"conjugate-geq-identity[{name}]", gap <= 1e-12,
                                  f"max s - f*(s) = {gap:.3e}"))

        t_pred = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        losses_pos = -np.asarray(gen.f_prime(t_pred / (1 - t_pred)))
        losses_neg = np.asarray(gen.conjugate_fn(gen.f_prime(t_pred / (1 - t_pred))))
        worst = 0.0
        for eta in np.arange(0.1, 0.95, 0.1):
            pointwise = eta * losses_pos + (1 - eta) * losses_neg
            argmin = t_pred[int(np.argmin(pointwise))]
            worst = max(worst, abs(argmin - eta))
            bayes = G.bayes_pointwise_loss(gen, float(eta))
            if abs(pointwise.min() - bayes) > 1e-6:
                checks.append(CheckResult(f"bayes-closed-form[{name}]", False,
                                          f"eta={eta}: grid inf {pointwise.min()} vs {bayes}"))
                break
        else:
            checks.append(CheckResult(f"bayes-closed-form[{name}]", True, "grid infimum matched"))
        checks.append(_check(f"properness-argmin[{name}]", worst, 2e-4))

    js = get_generator("js_shifted")
    etas = np.linspace(0.01, 0.99, 99)
    sym = max(
        abs((G.bayes_pointwise_loss(js, float(e)) + 2 * (1 - e) * math.log(2))
            - (G.bayes_pointwise_loss(js, float(1 - e)) + 2 * e * math.log(2)))
        for e in etas
    )
    checks.append(_check("js-bayes-symmetry-affine-corrected", sym, 1e-12))
    checks.append(_check("js-f-at-zero", abs(G.eval_f(js, 0.0) - TWO_LOG_TWO), 0.0))

    for name in GENERATOR_NAMES:
        gen = get_generator(name)
        errs = [abs(G.inverse_link(gen, G.link(gen, e)) - e)
                for e in np.linspace(0.02, 0.98, 25)]
        checks.append(_check(f"link-roundtrip[{name}]", max(errs), 1e-12))
        zs = [G.link(gen, e) for e in np.linspace(0.02, 0.98, 25)]
        checks.append(CheckResult(f"link-monotone[{name}]",
                                  all(a < b for a, b in zip(zs, zs[1:])),
                                  "strictly increasing on eta grid"))
    return checks


def _identity_checks() -> list[CheckResult]:
    rows = identity_discrete_experiment(n_instances=100, seed=7)
    res = max(r["residual"] for r in rows)
    tv = max(r["tv_to_nu"] for r in rows)
    lam = max(abs(r["lambda"]) for r in rows)
    return [
        _check("identity-residual", res, 1e-9),
        _check("rich-recovery-tv", tv, 1e-10),
        _check("lambda-at-optimum", lam, 1e-10),
    ]


def _duality_checks() -> list[CheckResult]:
    checks = []
    rng = as_generator(21)
    worst = 0.0
    coarse = False
    for trial in range(20):
        nu, mu = random_discrete_pair(rng, 3, floor=0.2)
        for name in GENERATOR_NAMES:
            res = strong_duality_check(nu, mu, get_generator(name), HSpec("ball", 0.5))
            worst = max(worst, abs(res.gap))
            coarse = coarse or res.too_coarse
    checks.append(_check("strong-duality-gap", worst, 2.0 / 200.0))
    checks.append(CheckResult("strong-duality-grid-fine-enough", not coarse,
                              "no instance flagged the grid as too coarse"))
    return checks


def _bounds_checks() -> list[CheckResult]:
    checks = []
    sr = slow_rate_term(1.0, 0.05, 200)
    exact = 2.0 * math.sqrt(math.log(20.0) / 400.0)  # 2 sqrt(ln(1/delta) / (2n))
    checks.append(_check("slow-rate-value", abs(sr - exact), 1e-15))

    held, _ = bound_trials(n_trials=100, seed=13)
    checks.append(CheckResult("bound-holds-95", held >= 95, f"held in {held}/100 trials"))

    rng = as_generator(5)
    kl = get_generator("kl")
    js = get_generator("js_shifted")
    bose_ok = True
    lemma_ok = True
    for _ in range(1000):
        nu, mu = random_discrete_pair(rng, int(rng.integers(2, 5)))
        i_js = exact_fdiv(nu, mu, js)
        i_kl = exact_fdiv(nu, mu, kl)
        bose_ok = bose_ok and (i_js <= i_kl + 1e-12)
        for name in GENERATOR_NAMES:
            lemma_ok = lemma_ok and fdiv_kl_lemma_check(nu, mu, get_generator(name)).holds
    checks.append(CheckResult("bose-einstein-kl", bose_ok, "I_js <= KL on 1000 random pairs"))
    checks.append(CheckResult("fdiv-kl-lemma", lemma_ok, "witness bound held on all pairs"))

    zero = convergence_bound(ConvergenceBoundInputs(0, 0, 0, 1, 1.0, 10, 1.0, 0.0))
    checks.append(_check("convergence-zero", abs(zero), 0.0))
    rng = as_generator(6)
    mono_ok = True
    for _ in range(100):
        base = ConvergenceBoundInputs(
            eps_theta=float(rng.uniform(0, 2)), L=float(rng.uniform(0, 2)),
            m2=float(rng.uniform(0, 2)), d=int(rng.integers(1, 3)),
            T=float(rng.uniform(0.5, 3)), K=int(rng.integers(5, 50)),
            norm_H=float(rng.uniform(0.5, 2)), forward_gap_If=float(rng.uniform(0, 1)),
        )
        v0 = convergence_bound(base)
        for fld in ("eps_theta", "L", "m2"):
            bumped = {**base.__dict__, fld: getattr(base, fld) + rng.uniform(0.01, 1.0)}
            if convergence_bound(ConvergenceBoundInputs(**bumped)) < v0 - 1e-12:
                mono_ok = False
    checks.append(CheckResult("convergence-monotone", mono_ok, "nondecreasing in each input"))

    sched = constant_schedule(1.0, 3.0)
    rng = as_generator(8)
    worst = max(
        abs(ou_params(sched, float(t))[0] ** 2 + ou_params(sched, float(t))[1] ** 2 - 1.0)
        for t in rng.uniform(0, 3.0, size=20)
    )
    checks.append(_check("ou-identity", worst, 1e-10))

    rng = as_generator(9)
    vi_ok = True
    for _ in range(50):
        nu, _ = random_discrete_pair(rng, 3)
        res = vi_duality_check(nu, rng.uniform(-1, 2, size=3))
        vi_ok = vi_ok and res.holds
    checks.append(CheckResult("vi-duality", vi_ok, "log-partition identity <= 1e-10"))

    direct, push = concordance_run(3)
    checks.append(CheckResult(
        "gain-estimator-concordance", direct.agrees_with(push),
        f"direct {direct.value:.4f}+-{direct.stderr:.4f} vs push {push.value:.4f}+-{push.stderr:.4f}",
    ))
    return checks


def _sampler_checks() -> list[CheckResult]:
    checks = []
    cfg = LangevinConfig(step_size=1e-3, n_steps=5000, n_chains=10_000, dim=1, seed=0)
    out = langevin(lambda x: -x, cfg)
    se = out.std(ddof=1) / math.sqrt(cfg.n_chains)
    checks.append(CheckResult("ula-normal-mean", abs(out.mean()) <= 3 * se,
                              f"mean {out.mean():.4f}, 3se {3 * se:.4f}"))
    var = out.var(ddof=1)
    checks.append(CheckResult("ula-normal-variance", abs(var - 1.0) <= 0.05,
                              f"variance {var:.4f}"))

    out2 = langevin(lambda x: -x, cfg)
    checks.append(CheckResult("ula-deterministic", bool(np.array_equal(out, out2)),
                              "same seed, bit-identical batches"))

    sched = constant_schedule(1.0, 3.0)
    rcfg = ReverseDiffusionConfig(schedule=sched, K=200, n_chains=10_000, dim=1, seed=1)
    unguided = reverse_em(lambda x, k: -x, rcfg)
    se = unguided.std(ddof=1) / math.sqrt(rcfg.n_chains)
    checks.append(CheckResult("reverse-em-moments", abs(unguided.mean()) <= 3 * se,
                              f"mean {unguided.mean():.4f}"))
    js = get_generator("js_shifted")
    neutral = [zero_discriminator(js, 1) for _ in range(rcfg.K)]
    guided = reverse_em(lambda x, k: -x, rcfg, js, neutral)
    checks.append(CheckResult("guidance-neutrality", bool(np.array_equal(unguided, guided)),
                              "constant discriminators leave trajectories bit-identical"))
    return checks


SUITES = {
    "core": (_core_checks,),
    "identity": (_identity_checks, _duality_checks),
    "bounds": (_bounds_checks,),
    "samplers": (_sampler_checks,),
}


def run_suite(name: str) -> list[SuiteReport]:
    if name == "all":
        return [run_suite(s)[0] for s in SUITES]
    if name not in SUITES:
        raise KeyError(name)
    checks: list[CheckResult] = []
    for fn in SUITES[name]:
        checks.extend(fn())
    return [SuiteReport(suite=name, checks=checks)]
