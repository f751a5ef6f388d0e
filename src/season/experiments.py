"""Named experiment pipelines shared by the CLI and the acceptance suite.

identity: on random finite instances, check that the refined model closes
the variational gap exactly, d_H(nu, mu_H) = D(nu, mu) - I_f(mu_H : mu),
with every term an exact sum at the tabular optimum.

refine-1d: the cross-entropy instantiation end to end; per-noise-level
discriminators steer reverse diffusion away from a deliberately wrong
base model, measured by the 1-Wasserstein distance to held-out data.

bounds: a known-population discrete world where the generalization bound
can be assembled term by term and checked across seeded trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discriminator import TrainConfig, exact_tabular, train
from .distributions import (
    DiscreteDistribution,
    GaussianMixture,
    as_generator,
    constant_schedule,
    discrete_ratio,
    gaussian_mixture,
    noise_sample,
    noised_mixture,
    split_seeds,
)
from .errors import DomainError
from .generators import GENERATOR_NAMES, GeneratorSpec, get_generator
from .metrics import (
    BoundReport,
    MCEstimate,
    est_gain_direct,
    est_gain_pushforward,
    est_DfH,
    exact_fdiv,
    generalization_report,
    ipm_at_witness,
    ipm_tabular_exact,
    _masked_dot,
    _mc,
    _tabular_sup,
)
from .oracle import HSpec, primal_sup_tabular
from .refine import _refined_weights, refine_discrete, solve_lambda
from .samplers import ReverseDiffusionConfig, reverse_em, w1_1d

__all__ = [
    "random_discrete_pair",
    "IdentityTerms",
    "identity_terms",
    "identity_discrete_experiment",
    "RefinementBenefit",
    "refinement_benefit_experiment",
    "population_rademacher",
    "bound_trial",
    "bound_trials",
    "concordance_run",
]


def random_discrete_pair(rng, k: int, floor: float = 0.05
                         ) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """A random (nu, mu) pair on a shared 1-d support with floored weights."""
    rng = as_generator(rng)
    support = rng.standard_normal((k, 1))

    def weights():
        w = rng.uniform(floor, 1.0, size=k)
        return w / w.sum()

    return (DiscreteDistribution(support, weights()),
            DiscreteDistribution(support, weights()))


@dataclass(frozen=True)
class IdentityTerms:
    """Exact terms of the refinement identity at the tabular optimum."""

    d_H: float
    D_fH: float
    gain: float
    residual: float
    lambda_h: float
    tv_to_nu: float  # total variation between the refined model and nu


def identity_terms(nu: DiscreteDistribution, mu: DiscreteDistribution,
                   gen: GeneratorSpec) -> IdentityTerms:
    """Compute all identity terms exactly with the rich tabular class.

    d_H is evaluated at the attained witness h* (the sup over the class is
    reached there), D at the tabular optimum, and the gain as the exact
    I_f(refined : mu), with lambda solved once.
    """
    tab = exact_tabular(nu, mu, gen)
    d_value = est_DfH(tab, nu, mu).value
    lam = solve_lambda(tab, gen, mu)
    refined = refine_discrete(mu, tab, lam=lam)
    gain = exact_fdiv(refined, mu, gen)
    d_h = ipm_at_witness(tab.values, nu, refined)
    residual = abs(d_h - (d_value - gain))
    nu_aligned = discrete_ratio(nu, mu) * mu.weights
    tv = 0.5 * float(np.abs(refined.weights - nu_aligned).sum())
    return IdentityTerms(d_H=d_h, D_fH=d_value, gain=gain, residual=residual,
                         lambda_h=lam, tv_to_nu=tv)


def identity_discrete_experiment(n_instances: int = 100, seed: int = 0) -> list[dict]:
    """Rows of identity terms over random instances on 2 to 4 points and all generators."""
    rng = as_generator(seed)
    rows = []
    for i in range(n_instances):
        k = int(rng.choice((2, 3, 4)))
        nu, mu = random_discrete_pair(rng, k)
        for name in GENERATOR_NAMES:
            terms = identity_terms(nu, mu, get_generator(name))
            rows.append({
                "instance_id": f"{name}-{i:04d}",
                "d_H": terms.d_H,
                "D_fH": terms.D_fH,
                "gain": terms.gain,
                "residual": terms.residual,
                "lambda": terms.lambda_h,
                "tv_to_nu": terms.tv_to_nu,
            })
    return rows


@dataclass(frozen=True)
class RefinementBenefit:
    w1_unguided: float
    w1_guided: float
    improved: bool
    seed: int
    samples_unguided: np.ndarray = field(repr=False)  # (n_chains, 1) final chains
    samples_guided: np.ndarray = field(repr=False)


def _bimodal_pair() -> tuple[GaussianMixture, GaussianMixture]:
    """Data distribution and a base model with deliberately wrong weights."""
    data = gaussian_mixture([[-2.0], [2.0]], [[[0.25]], [[0.25]]], [0.5, 0.5])
    base = gaussian_mixture([[-2.0], [2.0]], [[[0.25]], [[0.25]]], [0.25, 0.75])
    return data, base


def refinement_benefit_experiment(seed: int, *, k_levels: int = 16, t_horizon: float = 2.0,
                                  n_train: int = 512, n_chains: int = 2000,
                                  disc_width: int = 16, disc_steps: int = 300,
                                  disc_lr: float = 0.25) -> RefinementBenefit:
    """Guided vs unguided reverse diffusion from a miscalibrated base model.

    The base score is exact for the wrong-weight mixture at every level;
    per-level cross-entropy discriminators supply the correction.
    """
    gen = get_generator("js_shifted")
    data, base = _bimodal_pair()
    schedule = constant_schedule(1.0, t_horizon)
    s = t_horizon / k_levels

    rng_data, rng_model, rng_noise_d, rng_noise_m, rng_eval = split_seeds(seed, 5)
    x_data = data.sample(rng_data, n_train)
    x_model = base.sample(rng_model, n_train)

    discs = []
    for k in range(k_levels):
        u = t_horizon - (k + 1) * s  # forward time of level tau_{k+1}
        noisy_data = noise_sample(x_data, schedule, u, rng_noise_d)
        noisy_model = noise_sample(x_model, schedule, u, rng_noise_m)
        cfg = TrainConfig(width=disc_width, steps=disc_steps, step_size=disc_lr,
                          seed=1000 * seed + k)
        discs.append(train(gen, noisy_data, noisy_model, cfg))

    level_models = [noised_mixture(base, schedule, t_horizon - k * s)
                    for k in range(k_levels)]

    def score(x, k):
        return level_models[k].score(x)

    cfg = ReverseDiffusionConfig(schedule=schedule, K=k_levels, n_chains=n_chains,
                                 dim=1, seed=seed)
    unguided = reverse_em(score, cfg)
    guided = reverse_em(score, cfg, gen, discs)

    x_eval = data.sample(rng_eval, n_chains)
    w1_u = w1_1d(unguided, x_eval)
    w1_g = w1_1d(guided, x_eval)
    return RefinementBenefit(
        w1_unguided=w1_u, w1_guided=w1_g, improved=bool(w1_g < w1_u), seed=seed,
        samples_unguided=unguided, samples_guided=guided,
    )


_BOUND_SUPPORT = np.array([[0.0], [1.0], [2.0], [3.0]])
_BOUND_POPULATION = np.array([0.4, 0.3, 0.2, 0.1])
_BOUND_MODEL = np.array([0.25, 0.25, 0.25, 0.25])
_RADEMACHER_DRAWS = 400


def default_bound_world() -> tuple[DiscreteDistribution, DiscreteDistribution]:
    return (DiscreteDistribution(_BOUND_SUPPORT, _BOUND_POPULATION),
            DiscreteDistribution(_BOUND_SUPPORT, _BOUND_MODEL))


def population_rademacher(population: DiscreteDistribution, n: int, *, norm: float = 1.0,
                          seed: int = 0) -> MCEstimate:
    """Rademacher complexity of the norm-ball tabular class under the population.

    A Monte Carlo mean over 400 draws.  Each draw resamples X ~ P^n and
    signs; the per-draw sup is exact (group repeated points, sup = norm/n
    * sum_groups |sum zeta|).
    """
    rng = as_generator(seed)
    draws = np.empty(_RADEMACHER_DRAWS)
    for d in range(_RADEMACHER_DRAWS):
        idx = rng.choice(population.n, size=n, p=population.weights)
        zeta = rng.choice([-1.0, 1.0], size=n)
        draws[d] = _tabular_sup(norm, idx, zeta)
    return _mc(draws)


def empirical_from_draws(population: DiscreteDistribution, rng, n: int) -> DiscreteDistribution:
    idx = as_generator(rng).choice(population.n, size=n, p=population.weights)
    counts = np.bincount(idx, minlength=population.n).astype(float)
    return DiscreteDistribution(population.support, counts / n)


def bound_trial(seed: int, *, gen_name: str = "js_shifted", n: int = 200,
                delta: float = 0.05, norm: float = 1.0,
                rademacher: Optional[float] = None,
                population: Optional[DiscreteDistribution] = None,
                model: Optional[DiscreteDistribution] = None) -> BoundReport:
    """One seeded generalization-bound trial in the known-population world.

    The duality terms use the additively closed ball class (so the
    identity between D, the gain, and the empirical IPM is exact); the
    capacity and concentration terms use the ball with ||H|| = norm.  The
    two classes induce the same IPM on probability measures because
    constants cancel in mean differences.  population and model are given
    together or not at all, for the default world.
    """
    if n < 1 or not 0.0 < delta < 1.0:
        raise DomainError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    if (population is None) != (model is None):
        raise DomainError("give both population and model, or neither for the default world")
    gen = get_generator(gen_name)
    if population is None:
        population, model = default_bound_world()
    rng = as_generator(seed)
    p_hat = empirical_from_draws(population, rng, n)
    if rademacher is None:
        rademacher = population_rademacher(population, n, norm=norm,
                                           seed=seed + 10_000).value
    d_value, h_star = primal_sup_tabular(p_hat, model, gen, HSpec("ball", norm))
    ratios, weights = _refined_weights(model, h_star, None)
    gain = _masked_dot(model.weights, np.asarray(gen.f(ratios)))
    lhs = ipm_tabular_exact(population, model.reweighted(weights), norm)
    return generalization_report(lhs, d_value, gain, rademacher,
                                 norm_H=norm, delta=delta, n=n)


def bound_trials(n_trials: int = 100, seed: int = 0, **kwargs) -> tuple[int, list[BoundReport]]:
    """Run seeded trials; returns (number of trials where the bound held, reports)."""
    population, model = default_bound_world()
    norm = kwargs.pop("norm", 1.0)
    n = kwargs.pop("n", 200)
    rad = population_rademacher(population, n, norm=norm, seed=seed).value
    reports = [
        bound_trial(seed + 1 + t, n=n, norm=norm, rademacher=rad,
                    population=population, model=model, **kwargs)
        for t in range(n_trials)
    ]
    return sum(r.holds for r in reports), reports


_CONCORDANCE_STEP_SIZE = 0.5


def concordance_run(seed: int, *, n_eval: int = 10_000, n_train: int = 4000,
                    width: int = 16, steps: int = 600) -> tuple[MCEstimate, MCEstimate]:
    """Direct vs pushforward gain estimators on a 1-d Gaussian toy.

    Trains a cross-entropy discriminator between N(1,1) data and an N(0,1)
    model, recenters its free bias so the population normalizer vanishes,
    then estimates the gain both ways on one fresh model batch.
    """
    gen = get_generator("js_shifted")
    data = gaussian_mixture([[1.0]], [[[1.0]]], [1.0])
    model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
    rng_nu, rng_mu, rng_cal, rng_eval = split_seeds(seed, 4)
    disc = train(gen, data.sample(rng_nu, n_train), model.sample(rng_mu, n_train),
                 TrainConfig(width=width, steps=steps, step_size=_CONCORDANCE_STEP_SIZE,
                             seed=seed))
    calibration = model.sample(rng_cal, 100_000)
    disc = disc.copy()
    disc.bias -= solve_lambda(disc, gen, calibration)
    batch = model.sample(rng_eval, n_eval)
    direct = est_gain_direct(disc, batch)
    push = est_gain_pushforward(disc, batch)
    return direct, push
