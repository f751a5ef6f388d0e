"""Toy data and model distributions plus the forward noising process.

Provides finite discrete distributions, Gaussian-mixture continuous models
with exact log-densities and scores, the standard Gaussian prior, and the
mean-reverting (Ornstein-Uhlenbeck) forward process X_t | X_0 ~
N(m_t X_0, sigma_t^2 I) with m_t = exp(-int_0^t beta) and
sigma_t^2 = 1 - m_t^2.

Everything is immutable after construction.  Samplers take explicit seed
state; `split_seeds` derives independent per-worker streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad

from .errors import AbsoluteContinuityError, DomainError

__all__ = [
    "DiscreteDistribution",
    "ContinuousModel",
    "GaussianMixture",
    "OUSchedule",
    "as_generator",
    "split_seeds",
    "check_score_consistency",
    "gaussian_mixture",
    "standard_normal_model",
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
        support = np.asarray(self.support, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2:
            raise DomainError(f"support must be (n,) or (n, d), got shape {support.shape}")
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


@dataclass(frozen=True)
class ContinuousModel:
    """Density / score / sampler handle bundle for a toy distribution.

    log_density maps (n, d) -> (n,), score maps (n, d) -> (n, d), and
    sampler maps (rng, n) -> (n, d).  `mixture` carries the closed-form
    parameters when the model is a Gaussian mixture, which keeps exact
    noised versions available.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    mixture: Optional["GaussianMixture"] = None

    def sample(self, seed: SeedLike, n: int) -> np.ndarray:
        return self.sampler(as_generator(seed), n)


class GaussianMixture:
    """Closed-form Gaussian mixture in low dimension."""

    def __init__(self, means, covs, weights):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        k, d = means.shape
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (k,):
            raise DomainError(f"{k} components but weights shape {weights.shape}")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("mixture weights must be nonnegative and sum to 1")
        covs_arr = np.empty((k, d, d))
        for i, c in enumerate(covs):
            c = np.asarray(c, dtype=float)
            if c.ndim == 0:
                c = np.eye(d) * float(c)
            elif c.ndim == 1:
                if c.shape != (d,):
                    raise DomainError(f"diagonal cov {i} has wrong length {c.shape}")
                c = np.diag(c)
            if c.shape != (d, d):
                raise DomainError(f"cov {i} has shape {c.shape}, expected ({d}, {d})")
            covs_arr[i] = 0.5 * (c + c.T)
        try:
            chols = np.linalg.cholesky(covs_arr)
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariances must be symmetric positive definite") from exc

        self.means = _freeze(means)
        self.covs = _freeze(covs_arr)
        self.weights = _freeze(weights)
        self._chols = chols
        self._precisions = np.linalg.inv(covs_arr)
        self._log_norm = -0.5 * (
            d * math.log(2.0 * math.pi) + 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        )
        self.k = k
        self.dim = d

    def _component_log_densities(self, x: np.ndarray) -> np.ndarray:
        # returns (n, k)
        diff = x[:, None, :] - self.means[None, :, :]  # (n, k, d)
        quad_form = np.einsum("nkd,kde,nke->nk", diff, self._precisions, diff)
        return self._log_norm[None, :] - 0.5 * quad_form

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        comp = self._component_log_densities(x) + np.log(self.weights)[None, :]
        m = comp.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(comp - m).sum(axis=1, keepdims=True)))[:, 0]

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        comp = self._component_log_densities(x) + np.log(self.weights)[None, :]
        m = comp.max(axis=1, keepdims=True)
        resp = np.exp(comp - m)
        resp /= resp.sum(axis=1, keepdims=True)
        diff = x[:, None, :] - self.means[None, :, :]
        comp_scores = -np.einsum("kde,nke->nkd", self._precisions, diff)
        return np.einsum("nk,nkd->nd", resp, comp_scores)

    def sample(self, rng: SeedLike, n: int) -> np.ndarray:
        rng = as_generator(rng)
        idx = rng.choice(self.k, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        out = np.einsum("nde,ne->nd", self._chols[idx], z)
        return out + self.means[idx]

    def noised(self, m: float, sigma: float) -> "GaussianMixture":
        """Mixture of X_t = m X_0 + sigma Z: means scaled, covs m^2 C + sigma^2 I."""
        return GaussianMixture(
            m * self.means,
            [m * m * c + sigma * sigma * np.eye(self.dim) for c in self.covs],
            self.weights,
        )

    def as_model(self) -> ContinuousModel:
        return ContinuousModel(
            dim=self.dim,
            log_density=self.log_density,
            score=self.score,
            sampler=self.sample,
            mixture=self,
        )


def check_score_consistency(model: ContinuousModel, rng: SeedLike = 0, n_probes: int = 100,
                            rtol: float = 1e-4) -> float:
    """Compare score against central differences of log_density at probes.

    Returns the worst relative error; raises DomainError beyond rtol.
    """
    rng = as_generator(rng)
    x = model.sample(rng, n_probes)
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
    if err > rtol:
        raise DomainError(f"score disagrees with finite differences: rel err {err:.3e} > {rtol}")
    return err


def gaussian_mixture(means, covs, weights, *, validate: bool = True) -> ContinuousModel:
    """Build a Gaussian-mixture ContinuousModel with exact score and sampler."""
    model = GaussianMixture(means, covs, weights).as_model()
    if validate:
        check_score_consistency(model)
    return model


def standard_normal_model(dim: int) -> ContinuousModel:
    """The d-dimensional standard Gaussian prior."""
    return gaussian_mixture(np.zeros((1, dim)), [np.eye(dim)], [1.0], validate=False)


@dataclass(frozen=True)
class OUSchedule:
    """Weight function beta on [0, T] for the forward noising process."""

    beta: Callable[[float], float]
    T: float
    constant: Optional[float] = field(default=None)

    def integral(self, t: float) -> float:
        """int_0^t beta, closed form when beta is constant."""
        if self.constant is not None:
            return self.constant * t
        val, _ = quad(self.beta, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
        return val


def constant_schedule(beta: float = 1.0, T: float = 1.0) -> OUSchedule:
    if beta <= 0 or T <= 0:
        raise DomainError("beta and T must be positive")
    return OUSchedule(beta=lambda _t, _b=beta: _b, T=T, constant=float(beta))


def ou_params(schedule: OUSchedule, t: float) -> tuple[float, float]:
    """Transition parameters (m_t, sigma_t) of X_t | X_0 ~ N(m_t X_0, sigma_t^2 I)."""
    if not (0.0 <= t <= schedule.T):
        raise DomainError(f"t = {t} outside [0, {schedule.T}]")
    integ = schedule.integral(t)
    m = math.exp(-integ)
    sigma2 = -math.expm1(-2.0 * integ)
    return m, math.sqrt(max(sigma2, 0.0))


def noise_sample(x0: np.ndarray, schedule: OUSchedule, t: float, seed: SeedLike) -> np.ndarray:
    """Forward-noise points: m_t x0 + sigma_t Z, deterministic per seed."""
    rng = as_generator(seed)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    m, sigma = ou_params(schedule, t)
    if sigma == 0.0:
        return x0.copy()
    return m * x0 + sigma * rng.standard_normal(x0.shape)


def noised_mixture(model: ContinuousModel, schedule: OUSchedule, t: float) -> ContinuousModel:
    """Exact law of the forward-noised mixture at time t."""
    if model.mixture is None:
        raise DomainError("noised_mixture needs a model with Gaussian-mixture parameters")
    m, sigma = ou_params(schedule, t)
    if sigma == 0.0:
        return model
    return model.mixture.noised(m, sigma).as_model()


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


def model_from_spec(spec: dict):
    """Build a distribution from a JSON-able config fragment.

    {"type": "discrete", "support": [...], "weights": [...]} or
    {"type": "gaussian_mixture", "means": [...], "covs": [...], "weights": [...]}.
    """
    if not isinstance(spec, dict):
        raise DomainError("distribution spec must be a JSON object")
    kind = spec.get("type")
    if kind == "discrete":
        try:
            return DiscreteDistribution(np.asarray(spec["support"]), np.asarray(spec["weights"]))
        except KeyError as exc:
            raise DomainError(f"discrete spec missing field {exc}") from None
    if kind == "gaussian_mixture":
        try:
            return gaussian_mixture(spec["means"], spec["covs"], spec["weights"])
        except KeyError as exc:
            raise DomainError(f"gaussian_mixture spec missing field {exc}") from None
    raise DomainError(f"unknown distribution type {kind!r}")
