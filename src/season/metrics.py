"""Estimators and exact calculators for divergences, gains, and bounds.

Conventions: the f-divergence takes its expectation under the second
argument, I_f(nu : mu) = E_mu[f(d nu / d mu)], and the variational
objective is R(h) = E_nu[h] - E_mu[f* o h].  On finite supports every
quantity here is an exact weighted sum; on sample batches the estimators
are Monte Carlo means that report their standard errors.  The estimators
that take a discriminator read the generator f from it (disc.generator),
the f its h was fitted under.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Sequence

import numpy as np

from .discriminator import _h_values
from .distributions import DiscreteDistribution, _row_positions, discrete_ratio
from .errors import AbsoluteContinuityError, DomainError
from .generators import GeneratorSpec, get_generator
from .refine import _solve_lambda

__all__ = [
    "MCEstimate",
    "BoundReport",
    "ConvergenceBoundInputs",
    "LemmaCheck",
    "VIDualityResult",
    "exact_fdiv",
    "est_gain_direct",
    "est_gain_pushforward",
    "est_DfH",
    "ipm_tabular_exact",
    "ipm_at_witness",
    "slow_rate_term",
    "convergence_bound",
    "fdiv_kl_lemma_check",
    "vi_duality_check",
]


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int


def _mc(values: np.ndarray) -> MCEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise DomainError("sample batches need at least one row")
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return MCEstimate(float(values.mean()), se, n)


def _masked_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """sum w_i v_i skipping zero-weight terms, so 0 * (+-inf) contributes 0."""
    mask = weights != 0
    return float((weights[mask] * values[mask]).sum())  # an empty sum is 0.0


def _expect(dist, values: np.ndarray) -> MCEstimate:
    """E of values under dist: exact (stderr 0) if finite, Monte Carlo on a batch."""
    if isinstance(dist, DiscreteDistribution):
        return MCEstimate(_masked_dot(dist.weights, values), 0.0, dist.n)
    return _mc(values)


def exact_fdiv(nu: DiscreteDistribution, mu: DiscreteDistribution,
               gen: GeneratorSpec) -> float:
    """I_f(nu : mu) = sum_i mu_i f(nu_i / mu_i); +inf without absolute continuity."""
    try:
        ratio = discrete_ratio(nu, mu)
    except AbsoluteContinuityError:
        return math.inf
    return _masked_dot(mu.weights, np.asarray(gen.f(ratio)))


def est_gain_direct(disc, mu_ref) -> MCEstimate:
    """Refinement gain I_f(mu_refined : mu) = E_mu[f(f'^-1(h - lambda))].

    Exact on a finite mu (stderr 0), Monte Carlo on a sample batch.
    """
    gen = disc.generator
    h = _h_values(disc, mu_ref)
    lam = _solve_lambda(gen, h, mu_ref)
    vals = np.asarray(gen.f(np.asarray(gen.f_prime_inv(h - lam))))
    return _expect(mu_ref, vals)


def est_gain_pushforward(disc, mu_ref) -> MCEstimate:
    """Gain through the class-probability pushforward: E_mu[f(eta / (1 - eta))].

    eta is recovered from h as f'^-1(h) / (1 + f'^-1(h)); identical to the
    direct estimator when lambda = 0.  Exact on a finite mu (stderr 0),
    Monte Carlo on a sample batch.  There is no domain check: where h
    exceeds sup dom f*, f'^-1(h) < 0 and the mean is not finite (-inf for
    js_shifted).
    """
    gen = disc.generator
    h = _h_values(disc, mu_ref)
    r = np.asarray(gen.f_prime_inv(h))
    eta = r / (1.0 + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.where(eta < 1.0, eta / (1.0 - eta), np.inf)
    vals = np.asarray(gen.f(odds))
    return _expect(mu_ref, vals)


def est_DfH(disc, nu_eval, mu_eval) -> MCEstimate:
    """Plug-in value of R(h) = E_nu[h] - E_mu[f* o h].

    Each expectation is an exact sum on a finite distribution (stderr 0;
    the exact sup when both are finite and disc is the tabular optimum)
    and a Monte Carlo mean on a sample batch.  n is the smaller batch
    size, or the smaller support size when both sides are finite.
    """
    a = _expect(nu_eval, _h_values(disc, nu_eval))
    b = _expect(mu_eval, np.asarray(disc.generator.conjugate_fn(_h_values(disc, mu_eval))))
    batch_n = [e.n for d, e in ((nu_eval, a), (mu_eval, b))
               if not isinstance(d, DiscreteDistribution)]
    return MCEstimate(a.value - b.value, math.hypot(a.stderr, b.stderr),
                      min(batch_n, default=min(a.n, b.n)))


def _aligned_weights(nu: DiscreteDistribution, mu: DiscreteDistribution):
    """Weights of nu and mu on the union of their supports: nu's points, then mu's others."""
    index = _row_positions(mu.support, nu.support)
    extra = index < 0
    index[extra] = nu.n + np.arange(int(extra.sum()))
    wn = np.concatenate([nu.weights, np.zeros(int(extra.sum()))])
    wm = np.zeros(wn.size)
    wm[index] = mu.weights
    return wn, wm


def ipm_tabular_exact(nu: DiscreteDistribution, mu: DiscreteDistribution,
                      norm: float = 1.0) -> float:
    """Exact sup over the per-point class with |h_i| <= norm: norm * l1(nu - mu)."""
    wn, wm = _aligned_weights(nu, mu)
    return norm * float(np.abs(wn - wm).sum())


def ipm_at_witness(h_values: np.ndarray, nu: DiscreteDistribution,
                   mu: DiscreteDistribution) -> float:
    """Mean difference sum_i (nu_i - mu_i) h_i at a given witness on mu's support.

    Zero-weight differences skip +-inf witness values.  This is the exact
    IPM whenever the witness attains the sup over the class.
    """
    diff = discrete_ratio(nu, mu) * mu.weights - mu.weights
    return _masked_dot(diff, np.asarray(h_values, dtype=float))


def slow_rate_term(norm_H: float, delta: float, n: int) -> float:
    """2 ||H|| sqrt(ln(1/delta) / (2n)), the concentration penalty."""
    if not (0.0 < delta < 1.0) or n < 1:
        raise DomainError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    if not (math.isfinite(norm_H) and norm_H >= 0):
        raise DomainError(f"norm_H must be finite and nonnegative, got {norm_H}")
    return 2.0 * norm_H * math.sqrt(math.log(1.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class BoundReport:
    """All terms of the generalization bound, with provenance."""

    d_H_lhs: float
    D_fH: float
    gain_If: float
    rademacher: float
    slow_rate: float
    delta: float
    n: int
    norm_H: float
    tol: ClassVar[float] = 1e-9

    @property
    def rhs(self) -> float:
        return self.D_fH - self.gain_If + self.rademacher + self.slow_rate

    @property
    def holds(self) -> bool:
        return bool(self.d_H_lhs <= self.rhs + self.tol)

    def to_dict(self) -> dict:
        return {**asdict(self), "rhs": self.rhs, "tol": self.tol, "holds": self.holds}


@dataclass(frozen=True)
class ConvergenceBoundInputs:
    """Ingredients of the sampling convergence bound."""

    eps_theta: float  # score approximation error
    L: float  # Lipschitz constant of the noised scores
    m2: float  # second-moment bound of the data
    d: int
    T: float
    K: int
    norm_H: float
    forward_gap_If: float  # I_f between fully noised data and the prior

    def __post_init__(self):
        vals = (self.eps_theta, self.L, self.m2, self.T, self.norm_H, self.forward_gap_If)
        if not all(math.isfinite(v) and v >= 0 for v in vals) or self.d < 1 or self.K < 1:
            raise DomainError("convergence-bound inputs must be finite and nonnegative, "
                              "with d >= 1 and K >= 1")

    @property
    def s(self) -> float:
        return self.T / self.K


def convergence_bound(inp: ConvergenceBoundInputs) -> float:
    """||H|| (1 - exp(-(eps^2 + L^2 d s + L^2 m2^2 s^2) T)) + forward gap."""
    s = inp.s
    rate = inp.eps_theta ** 2 + inp.L ** 2 * inp.d * s + inp.L ** 2 * inp.m2 ** 2 * s ** 2
    return inp.norm_H * (-math.expm1(-rate * inp.T)) + inp.forward_gap_If


@dataclass(frozen=True)
class LemmaCheck:
    lhs: float
    rhs: float


def fdiv_kl_lemma_check(nu: DiscreteDistribution, mu: DiscreteDistribution,
                        gen: GeneratorSpec) -> LemmaCheck:
    """Both sides of I_f(nu : mu) <= sup_i |f'(r_i)| sqrt(KL(nu : mu)), exactly."""
    ratio = discrete_ratio(nu, mu)
    lhs = exact_fdiv(nu, mu, gen)
    kl = exact_fdiv(nu, mu, get_generator("kl"))
    with np.errstate(divide="ignore"):
        wit = np.abs(np.asarray(gen.f_prime(ratio[mu.weights > 0])))
    rhs = float(wit.max()) * math.sqrt(kl)
    return LemmaCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class VIDualityResult:
    lhs: float  # log sum mu exp(-L), the log-partition value
    rhs: float  # E_gibbs[L] + KL(gibbs : mu), the objective at the Gibbs posterior
    gibbs: DiscreteDistribution
    residual: float  # |lhs + rhs|, zero up to rounding


def vi_duality_check(mu: DiscreteDistribution, L_values: Sequence[float]) -> VIDualityResult:
    """Log-partition duality: log sum mu e^-L = -(E_gibbs[L] + KL(gibbs : mu)).

    The Gibbs posterior gibbs_i proportional to mu_i e^-L_i minimizes
    E_Q[L] + KL(Q : mu) over all Q on the support.  Returns both sides
    and the residual |lhs + rhs|; criterion 11 of `verify` bounds it.
    """
    L = np.asarray(L_values, dtype=float)
    if L.shape != (mu.n,):
        raise DomainError(f"need one loss value per support point, got shape {L.shape}")
    logw = np.log(mu.weights) - L
    m = logw.max()
    g = np.exp(logw - m)
    lhs = float(m + math.log(g.sum()))
    g /= g.sum()
    gibbs = mu.reweighted(g)
    rhs = _masked_dot(g, L) + exact_fdiv(gibbs, mu, get_generator("kl"))
    return VIDualityResult(lhs=lhs, rhs=rhs, gibbs=gibbs, residual=abs(lhs + rhs))
