"""Named experiment pipelines shared by the CLI and the acceptance suite.

identity: on random finite instances, check that the refined model closes
the variational gap exactly, d_H(nu, mu_H) = D(nu, mu) - I_f(mu_H : mu),
with every term an exact sum at the tabular optimum.

refine-1d: the cross-entropy instantiation end to end; per-noise-level
discriminators steer reverse diffusion away from a deliberately wrong
base model, measured by the 1-Wasserstein distance to held-out data.

bounds: a known-population discrete world where the generalization bound
can be assembled term by term, its Rademacher term in closed form, and
checked across seeded trials.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
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
    ipm_at_witness,
    ipm_tabular_exact,
    slow_rate_term,
    _masked_dot,
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

    nu = DiscreteDistribution(support, weights())  # nu's weights are drawn first
    return nu, nu.reweighted(weights())


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
            rows.append({"instance_id": f"{name}-{i:04d}", **asdict(terms)})
    return rows


@dataclass(frozen=True)
class RefinementBenefit:
    w1_unguided: float
    w1_guided: float
    improved: bool
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
        w1_unguided=w1_u, w1_guided=w1_g, improved=bool(w1_g < w1_u),
        samples_unguided=unguided, samples_guided=guided,
    )


_BOUND_SUPPORT = np.array([[0.0], [1.0], [2.0], [3.0]])
_BOUND_POPULATION = np.array([0.4, 0.3, 0.2, 0.1])
_BOUND_MODEL = np.array([0.25, 0.25, 0.25, 0.25])


def default_bound_world() -> tuple[DiscreteDistribution, DiscreteDistribution]:
    return (DiscreteDistribution(_BOUND_SUPPORT, _BOUND_POPULATION),
            DiscreteDistribution(_BOUND_SUPPORT, _BOUND_MODEL))


def population_rademacher(population: DiscreteDistribution, n: int, *, norm: float = 1.0,
                          seed: int = 0) -> MCEstimate:
    """Rademacher complexity of the norm-ball tabular class under the population.

    Exact, so stderr is 0.  One draw's sup is norm/n * sum_j |S_{N_j}|,
    where N_j ~ Binomial(n, p_j) counts support point j among the n draws
    and S_m is a sum of m random signs.  By linearity the expectation is
    norm/n * sum_j E[a(N_j)] with a(m) = E|S_m|, which satisfies a(0) = 0
    and a(2k + 1) = a(2k + 2) = a(2k - 1) (2k + 1)/(2k).  The binomial pmf
    is taken in log space.  The sample size n must be at least 1.  seed
    does not change the result.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    m = np.arange(n + 1)
    half = np.arange(1, (n + 1) // 2)
    a = np.r_[0.0, np.repeat(np.cumprod(np.r_[1.0, (2 * half + 1) / (2 * half)]), 2)[:n]]
    log_fact = np.r_[0.0, np.cumsum(np.log(m[1:]))]
    log_choose = log_fact[n] - log_fact - log_fact[::-1]
    total = 0.0
    for p in population.weights:
        with np.errstate(divide="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
        # a zero count contributes 0 even where its log-probability is -inf
        log_pmf = (log_choose + np.multiply(m, log_p, out=np.zeros(n + 1), where=m > 0)
                   + np.multiply(n - m, log_q, out=np.zeros(n + 1), where=m < n))
        total += np.exp(log_pmf) @ a
    return MCEstimate(norm / n * float(total), 0.0, population.n)


def empirical_from_draws(population: DiscreteDistribution, rng, n: int) -> DiscreteDistribution:
    idx = as_generator(rng).choice(population.n, size=n, p=population.weights)
    counts = np.bincount(idx, minlength=population.n).astype(float)
    return population.reweighted(counts / n)


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
    constants cancel in mean differences.  rademacher defaults to
    population_rademacher's exact value.  population and model are given
    together or not at all, for the default world.
    """
    slow_rate = slow_rate_term(norm, delta, n)
    if (population is None) != (model is None):
        raise DomainError("give both population and model, or neither for the default world")
    gen = get_generator(gen_name)
    if population is None:
        population, model = default_bound_world()
    rng = as_generator(seed)
    p_hat = empirical_from_draws(population, rng, n)
    if rademacher is None:
        rademacher = population_rademacher(population, n, norm=norm).value
    d_value, h_star = primal_sup_tabular(p_hat, model, gen, HSpec("ball", norm))
    ratios, weights = _refined_weights(model, h_star, None)
    gain = _masked_dot(model.weights, np.asarray(gen.f(ratios)))
    lhs = ipm_tabular_exact(population, model.reweighted(weights), norm)
    return BoundReport(d_H_lhs=lhs, D_fH=d_value, gain_If=gain, rademacher=rademacher,
                       slow_rate=slow_rate, delta=delta, n=n, norm_H=norm)


def bound_trials(n_trials: int = 100, seed: int = 0, **kwargs) -> list[BoundReport]:
    """Run seeded trials seed + 1, ..., seed + n_trials; returns their reports."""
    return [bound_trial(seed + 1 + t, **kwargs) for t in range(n_trials)]


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
