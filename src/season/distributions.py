"""Toy data and model distributions plus the forward noising process.

Provides finite discrete distributions, Gaussian mixtures (the one
continuous model type) with exact log-densities, scores, samplers and
noised laws, and the mean-reverting (Ornstein-Uhlenbeck) forward process
of constant rate beta, X_t | X_0 ~ N(m_t X_0, sigma_t^2 I) with
m_t = exp(-beta t) and sigma_t^2 = 1 - m_t^2.

Everything is immutable after construction.  Samplers take explicit seed
state; `split_seeds` derives independent per-worker streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AbsoluteContinuityError, DomainError, malformed_input

__all__ = [
    "DiscreteDistribution",
    "GaussianMixture",
    "OUSchedule",
    "as_generator",
    "as_batch",
    "split_seeds",
    "check_score_consistency",
    "gaussian_mixture",
    "constant_schedule",
    "ou_params",
    "noise_sample",
    "noised_mixture",
    "discrete_ratio",
    "model_from_spec",
]

SeedLike = Union[int, np.random.Generator]


def as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_batch(x) -> np.ndarray:
    """Points as an (n, d) float array; a 1-d input is n points in R^1."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError(f"points must be (n,) or (n, d), got shape {x.shape}")
    return x


def split_seeds(seed: int, n: int) -> list[np.random.Generator]:
    """Derive n independent generators from one root seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _row_positions(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Index in `reference` of each row of `points`, or -1 where it is absent.

    Rows match when their float64 bytes are equal.  A row repeated in
    `reference` maps to its last occurrence.  This is the one place that
    aligns supports.
    """
    index = {row.tobytes(): i for i, row in enumerate(reference)}
    return np.array([index.get(row.tobytes(), -1) for row in points], dtype=np.intp)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite support points in R^d with probability weights.

    Weights must be nonnegative and sum to 1 within 1e-12; support points
    must be distinct.  1-d input supports are reshaped to (n, 1).
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = as_batch(self.support)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (support.shape[0],):
            raise DomainError(
                f"weights shape {weights.shape} does not match {support.shape[0]} support points"
            )
        if np.any(weights < 0):
            raise DomainError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {total!r}, not 1")
        if not np.array_equal(_row_positions(support, support), np.arange(support.shape[0])):
            raise DomainError("support points must be distinct")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def reweighted(self, weights: np.ndarray) -> "DiscreteDistribution":
        return DiscreteDistribution(self.support, weights)

    def sample(self, rng: SeedLike, n: int) -> np.ndarray:
        rng = as_generator(rng)
        idx = rng.choice(self.n, size=n, p=self.weights)
        return self.support[idx]


def _log_sum_exp(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-sum-exp over the rows of (k, n) terms, one column per point.

    Returns the column maxima m, exp(comp - m) and its column sums, so that
    log sum_j exp(comp_j) = m + log(sums) and exp(comp - m) / sums are the
    normalized weights.
    """
    m = comp.max(axis=0)
    terms = np.exp(comp - m)
    return m, terms, terms.sum(axis=0)


class GaussianMixture:
    """Closed-form Gaussian mixture in low dimension.

    means are k points as `as_batch` reads them; covs is one (k, d, d) array.
    """

    def __init__(self, means, covs, weights):
        means = as_batch(means)
        k, d = means.shape
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (k,):
            raise DomainError(f"{k} components but weights shape {weights.shape}")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("mixture weights must be nonnegative and sum to 1")
        covs = np.asarray(covs, dtype=float)
        if covs.shape != (k, d, d):
            raise DomainError(f"covariances have shape {covs.shape}, expected ({k}, {d}, {d})")
        covs = 0.5 * (covs + covs.swapaxes(1, 2))
        try:
            chols = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariances must be symmetric positive definite") from exc

        self.means = _freeze(means)
        self.covs = _freeze(covs)
        self.weights = _freeze(weights)
        self._chols = chols
        self._precisions = np.linalg.inv(covs)
        self._log_norm = -0.5 * (
            d * math.log(2.0 * math.pi) + 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        )
        self.k = k
        self.dim = d

    def _components(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log(w_j N(x; m_j, C_j)), shape (k, n), and C_j^-1 (x - m_j), shape (k, d, n).

        Both are component- and feature-major, so each reduction over
        components or coordinates runs with the n points contiguous.
        """
        diff = x.T - self.means[:, :, None]
        prec_diff = self._precisions @ diff
        mahalanobis = (diff * prec_diff).sum(axis=1)
        comp = (self._log_norm[:, None] - 0.5 * mahalanobis) + np.log(self.weights)[:, None]
        return comp, prec_diff

    def log_density(self, x: np.ndarray) -> np.ndarray:
        m, _, total = _log_sum_exp(self._components(as_batch(x))[0])
        return m + np.log(total)

    def score(self, x: np.ndarray) -> np.ndarray:
        comp, prec_diff = self._components(as_batch(x))
        _, resp, total = _log_sum_exp(comp)
        resp /= total
        return -(resp[:, None, :] * prec_diff).sum(axis=0).T

    def sample(self, rng: SeedLike, n: int) -> np.ndarray:
        rng = as_generator(rng)
        idx = rng.choice(self.k, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        out = np.einsum("nde,ne->nd", self._chols[idx], z)
        return out + self.means[idx]

    def noised(self, m: float, sigma: float) -> "GaussianMixture":
        """Mixture of X_t = m X_0 + sigma Z: means scaled, covs m^2 C + sigma^2 I."""
        return GaussianMixture(m * self.means, m * m * self.covs + sigma * sigma * np.eye(self.dim),
                               self.weights)


_SCORE_PROBES = 100
_SCORE_RTOL = 1e-4


def check_score_consistency(model: GaussianMixture, rng: SeedLike = 0) -> float:
    """Compare score against central differences of log_density at 100 probes.

    Returns the worst relative error; raises DomainError beyond 1e-4.
    """
    rng = as_generator(rng)
    x = model.sample(rng, _SCORE_PROBES)
    s = model.score(x)
    fd = np.empty_like(s)
    h = 1e-6 * (1.0 + np.abs(x))
    for j in range(model.dim):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h[:, j]
        xm[:, j] -= h[:, j]
        fd[:, j] = (model.log_density(xp) - model.log_density(xm)) / (2.0 * h[:, j])
    scale = np.maximum(np.linalg.norm(s, axis=1), 1.0)
    err = float((np.linalg.norm(fd - s, axis=1) / scale).max())
    if err > _SCORE_RTOL:
        raise DomainError("score disagrees with finite differences: "
                          f"rel err {err:.3e} > {_SCORE_RTOL}")
    return err


def gaussian_mixture(means, covs, weights) -> GaussianMixture:
    """Build a Gaussian mixture, checking its score against finite differences."""
    model = GaussianMixture(means, covs, weights)
    check_score_consistency(model)
    return model


@dataclass(frozen=True)
class OUSchedule:
    """Constant rate beta on the horizon [0, T] of the forward noising process."""

    beta: float
    T: float

    def __post_init__(self):
        beta, T = float(self.beta), float(self.T)
        if not (math.isfinite(beta) and beta > 0 and math.isfinite(T) and T > 0):
            raise DomainError(f"noise schedule needs finite beta > 0 and T > 0, "
                              f"got beta = {self.beta}, T = {self.T}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "T", T)


def constant_schedule(beta: float, T: float) -> OUSchedule:
    return OUSchedule(beta, T)


def ou_params(schedule: OUSchedule, t: float) -> tuple[float, float]:
    """Transition parameters (m_t, sigma_t) of X_t | X_0 ~ N(m_t X_0, sigma_t^2 I)."""
    if not (0.0 <= t <= schedule.T):
        raise DomainError(f"t = {t} outside [0, {schedule.T}]")
    integ = schedule.beta * t
    m = math.exp(-integ)
    sigma2 = -math.expm1(-2.0 * integ)
    return m, math.sqrt(max(sigma2, 0.0))


def noise_sample(x0: np.ndarray, schedule: OUSchedule, t: float, seed: SeedLike) -> np.ndarray:
    """Forward-noise points: m_t x0 + sigma_t Z, deterministic per seed."""
    rng = as_generator(seed)
    x0 = as_batch(x0)
    m, sigma = ou_params(schedule, t)
    if sigma == 0.0:
        return x0.copy()
    return m * x0 + sigma * rng.standard_normal(x0.shape)


def noised_mixture(model: GaussianMixture, schedule: OUSchedule, t: float) -> GaussianMixture:
    """Exact law of the forward-noised mixture at time t."""
    m, sigma = ou_params(schedule, t)
    if sigma == 0.0:
        return model
    return model.noised(m, sigma)


def discrete_ratio(nu: DiscreteDistribution, mu: DiscreteDistribution) -> np.ndarray:
    """Per-point density ratio d nu / d mu aligned to mu's support.

    Points of mu that nu misses get ratio 0.  Raises
    AbsoluteContinuityError when nu has mass outside mu's support or at a
    point where mu has weight 0 (the +inf divergence case).
    """
    index = _row_positions(nu.support, mu.support)
    outside = (index < 0) & (nu.weights > 0)
    if outside.any():
        j = int(np.flatnonzero(outside)[0])
        raise AbsoluteContinuityError(
            f"nu has mass {nu.weights[j]} at {nu.support[j]} outside mu's support"
        )
    inside = index >= 0
    nu_aligned = np.zeros(mu.n)
    nu_aligned[index[inside]] = nu.weights[inside]
    ratio = np.zeros(mu.n)
    pos = mu.weights > 0
    if np.any(nu_aligned[~pos] > 0):
        bad = np.flatnonzero(~pos & (nu_aligned > 0))[0]
        raise AbsoluteContinuityError(
            f"nu has mass at {mu.support[bad]} where mu has weight 0"
        )
    ratio[pos] = nu_aligned[pos] / mu.weights[pos]
    return ratio


@malformed_input("distribution spec")
def model_from_spec(spec: dict):
    """Build a distribution from a JSON-able config fragment.

    {"type": "discrete", "support": [...], "weights": [...]} or
    {"type": "gaussian_mixture", "means": [...], "covs": [...], "weights": [...]}
    with covs one (k, d, d) array.
    """
    if not isinstance(spec, dict):
        raise DomainError("distribution spec must be a JSON object")
    kind = spec.get("type")
    if kind == "discrete":
        return DiscreteDistribution(np.asarray(spec["support"]), np.asarray(spec["weights"]))
    if kind == "gaussian_mixture":
        return gaussian_mixture(spec["means"], spec["covs"], spec["weights"])
    raise DomainError(f"unknown distribution type {kind!r}")
