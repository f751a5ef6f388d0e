"""Toy data and model distributions plus the forward noising process.

Provides finite discrete distributions, Gaussian mixtures (the one
continuous model type) with exact log-densities, scores, samplers and
noised laws, and the mean-reverting (Ornstein-Uhlenbeck) forward process
of constant rate beta, X_t | X_0 ~ N(m_t X_0, sigma_t^2 I) with
m_t = exp(-beta t) and sigma_t^2 = 1 - m_t^2.

Everything is immutable after construction.  Samplers take explicit seed
state; `split_seeds` derives independent per-worker streams.

Finite supports follow two rules.  A support is checked once, at its first
construction: `DiscreteDistribution.reweighted` and the tabular
discriminators the exact oracles build share that read-only array and never
check it again.  A shared support is aligned by identity: where two
supports are the same array, `_alignment` returns None and no row is looked
up; distinct arrays, byte-equal or not, go through `_row_positions`.
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


def _check_sample_size(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"sample size n must be an integer >= 0, got {n!r}")


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

    Rows match when their float64 bytes are equal, so 0.0 and -0.0 differ;
    both support classes store -0.0 as 0.0.  `reference` must hold distinct
    rows, as every support does once it is checked, at its first
    construction.  Byte-equal arrays skip the lookup and get a fresh,
    writable arange.  This is the one lookup of distinct supports; a
    support shared by identity never reaches it (`_alignment`).
    """
    if points.shape == reference.shape and points.tobytes() == reference.tobytes():
        return np.arange(points.shape[0])
    index = {row.tobytes(): i for i, row in enumerate(reference)}
    return np.array([index.get(row.tobytes(), -1) for row in points], dtype=np.intp)


def _alignment(points: np.ndarray, reference: np.ndarray) -> np.ndarray | None:
    """None when `points` is `reference`, else `_row_positions(points, reference)`.

    The one place that decides whether two supports need aligning: the same
    array, shared through `reweighted` or an exact oracle, is aligned by
    identity, so `discrete_ratio` and `TabularDiscriminator.h_for` use the
    weights or values as they are.
    """
    return None if points is reference else _row_positions(points, reference)


def _checked_support(support) -> np.ndarray:
    """A read-only copy of support points as `as_batch` reads them: finite and distinct.

    -0.0 is stored as 0.0, so that equal points have equal bytes.  The one
    support check, for distributions and tabular discriminators alike, run
    once, at a support's first construction; whatever shares the result
    does not run it again.
    """
    support = as_batch(support) + 0.0  # a fresh array, so made read-only in place
    if not np.isfinite(support).all():
        raise DomainError("support points must be finite")
    if len({row.tobytes() for row in support}) < support.shape[0]:
        raise DomainError("support points must be distinct")
    support.setflags(write=False)
    return support


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _json_numbers(value, what: str) -> np.ndarray:
    """A JSON value as a float array, once every leaf is a JSON number.

    numpy alone would read true as 1.0 and "0.5" as 0.5.  Any leaf that is
    not an int or a float, bool included, raises TypeError, which the
    `malformed_input` readers report as a malformed input.  The one number
    check of the distribution-spec and checkpoint readers.
    """
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(reversed(leaf))
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise TypeError(f"{what}: expected numbers, got {type(leaf).__name__}")
    return np.asarray(value, dtype=float)


def _checked_weights(weights, n: int) -> np.ndarray:
    """A read-only copy of n weights: finite, nonnegative, summing to 1 within 1e-12.

    The one weight check, for support points and mixture components alike.
    """
    weights = np.array(weights, dtype=float)
    if weights.shape != (n,):
        raise DomainError(f"weights have shape {weights.shape}, expected ({n},)")
    if not np.isfinite(weights).all():
        raise DomainError("weights must be finite")
    if (weights < 0).any():
        raise DomainError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"weights sum to {total!r}, not 1")
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite support points in R^d with probability weights.

    Support points must be finite and distinct, with -0.0 read as 0.0;
    weights must be finite, nonnegative and sum to 1 within 1e-12.  1-d input
    supports are reshaped to (n, 1).  Both are stored as read-only copies;
    `reweighted` checks and copies only the new weights and shares the support.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = _checked_support(self.support)
        object.__setattr__(self, "weights", _checked_weights(self.weights, support.shape[0]))
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def reweighted(self, weights: np.ndarray) -> "DiscreteDistribution":
        """The same support, shared since it is checked and read-only, with new weights.

        The support is checked once, when `self` was built, and not again
        here; the shared array is aligned with `self`'s by identity.
        """
        other = object.__new__(DiscreteDistribution)
        object.__setattr__(other, "support", self.support)
        object.__setattr__(other, "weights", _checked_weights(weights, self.n))
        return other

    def sample(self, rng: SeedLike, n: int) -> np.ndarray:
        _check_sample_size(n)
        rng = as_generator(rng)
        idx = rng.choice(self.n, size=n, p=self.weights)
        return self.support[idx]


def _log_sum_exp(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-sum-exp over the rows of (k, n) terms, one column per point.

    Returns the column maxima m, exp(comp - m) and its column sums, so that
    log sum_j exp(comp_j) = m + log(sums) and exp(comp - m) / sums are the
    normalized weights.  comp is overwritten with exp(comp - m).
    """
    m = comp.max(axis=0)
    comp -= m
    terms = np.exp(comp, out=comp)
    return m, terms, terms.sum(axis=0)


class GaussianMixture:
    """Closed-form Gaussian mixture in low dimension.

    means are k points as `as_batch` reads them; covs is one (k, d, d) array
    of symmetric positive definite matrices.  Means and covariances must be
    finite; weights follow `DiscreteDistribution`'s rule, and a zero weight
    keeps its component but never samples it.
    """

    def __init__(self, means, covs, weights):
        try:
            means = as_batch(means)
        except DomainError as exc:
            raise DomainError(f"means: {exc}") from None
        k, d = means.shape
        weights = _checked_weights(weights, k)
        covs = np.asarray(covs, dtype=float)
        if covs.shape != (k, d, d):
            raise DomainError(f"covariances have shape {covs.shape}, expected ({k}, {d}, {d})")
        for name, value in (("means", means), ("covariances", covs)):
            if not np.isfinite(value).all():
                raise DomainError(f"mixture {name} must be finite")
        asymmetric = (covs != covs.swapaxes(1, 2)).any(axis=(1, 2))
        if asymmetric.any():
            raise DomainError(f"covariance {int(np.flatnonzero(asymmetric)[0])} is not symmetric")
        try:
            chols = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariances must be symmetric positive definite") from exc

        self.means = _freeze(means)
        self.covs = _freeze(covs)
        self.weights = weights
        self._chols = chols
        self._precisions = np.linalg.inv(covs)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)[:, None]
        self._log_norm = -0.5 * (
            d * math.log(2.0 * math.pi) + 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        )
        self.k = k
        self.dim = d

    def _components(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log(w_j N(x; m_j, C_j)), shape (k, n), and C_j^-1 (x - m_j), shape (k, d, n).

        Both are component- and feature-major, so each reduction over
        components or coordinates runs with the n points contiguous.  The
        temporaries are updated in place, in the order of
        (log_norm - 0.5 * mahalanobis) + log(w), so the bits do not change.
        """
        diff = x.T - self.means[:, :, None]
        prec_diff = self._precisions @ diff
        diff *= prec_diff
        comp = diff.sum(axis=1)
        comp *= -0.5
        comp += self._log_norm[:, None]
        comp += self._log_weights
        return comp, prec_diff

    def log_density(self, x: np.ndarray) -> np.ndarray:
        m, _, total = _log_sum_exp(self._components(as_batch(x))[0])
        return m + np.log(total)

    def score(self, x: np.ndarray) -> np.ndarray:
        comp, prec_diff = self._components(as_batch(x))
        _, resp, total = _log_sum_exp(comp)
        resp /= total
        prec_diff *= resp[:, None, :]
        s = prec_diff.sum(axis=0)
        return np.negative(s, out=s).T

    def sample(self, rng: SeedLike, n: int) -> np.ndarray:
        _check_sample_size(n)
        rng = as_generator(rng)
        idx = rng.choice(self.k, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        out = np.einsum("nde,ne->nd", self._chols[idx], z)
        return out + self.means[idx]


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


# Only `bench/workloads.py` calls these names; outside `__all__`, so that the
# benchmark's tracer wraps each class's methods once.  ROADMAP item 6 drops them.
gaussian_mixture, constant_schedule = GaussianMixture, OUSchedule


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
    """Exact law of the forward-noised mixture at time t.

    X_t = m_t X_0 + sigma_t Z scales the means by m_t and maps each
    covariance C to m_t^2 C + sigma_t^2 I.
    """
    m, sigma = ou_params(schedule, t)
    if sigma == 0.0:
        return model
    return GaussianMixture(m * model.means, m * m * model.covs + sigma * sigma * np.eye(model.dim),
                           model.weights)


def discrete_ratio(nu: DiscreteDistribution, mu: DiscreteDistribution) -> np.ndarray:
    """Per-point density ratio d nu / d mu aligned to mu's support.

    Points of mu that nu misses get ratio 0.  Raises
    AbsoluteContinuityError when nu has mass outside mu's support or at a
    point where mu has weight 0 (the +inf divergence case).  Neither
    support is checked here; each was checked once, at its first
    construction.  A support shared by identity takes nu's weights as
    they are; a distinct one is looked up row by row, and rows of nu are
    masked only when some lie outside mu's support.
    """
    nu_w = nu.weights
    index = _alignment(nu.support, mu.support)
    if index is not None:  # distinct supports: scatter nu's weights onto mu's points
        if (index < 0).any():
            outside = (index < 0) & (nu_w > 0)
            if outside.any():
                j = int(np.flatnonzero(outside)[0])
                raise AbsoluteContinuityError(
                    f"nu has mass {nu_w[j]} at {nu.support[j]} outside mu's support"
                )
            index, nu_w = index[index >= 0], nu_w[index >= 0]
        aligned = np.zeros(mu.n)
        aligned[index] = nu_w
        nu_w = aligned
    pos = mu.weights > 0
    stray = ~pos & (nu_w > 0)
    if stray.any():
        raise AbsoluteContinuityError(
            f"nu has mass at {mu.support[np.flatnonzero(stray)[0]]} where mu has weight 0"
        )
    return np.divide(nu_w, mu.weights, out=np.zeros(mu.n), where=pos)


@malformed_input("distribution spec")
def model_from_spec(spec: dict):
    """Build a distribution from a JSON-able config fragment.

    {"type": "discrete", "support": [...], "weights": [...]} or
    {"type": "gaussian_mixture", "means": [...], "covs": [...], "weights": [...]}
    with covs one (k, d, d) array.  Every entry must be a JSON number, not a
    bool or a string.
    """
    if not isinstance(spec, dict):
        raise DomainError("distribution spec must be a JSON object")
    kind = spec.get("type")
    if kind == "discrete":
        build, keys = DiscreteDistribution, ("support", "weights")
    elif kind == "gaussian_mixture":
        build, keys = GaussianMixture, ("means", "covs", "weights")
    else:
        raise DomainError(f"unknown distribution type {kind!r}")
    return build(*(_json_numbers(spec[key], key) for key in keys))
