"""Brute-force ground truth on small discrete instances.

The dual problem inf_Q [d_H(nu, Q) + I_f(Q : mu)] is minimized over a
probability-simplex grid, and the primal sup of R(h) over tabular classes
is computed exactly (rich class, constants) or by a certified 1-d concave
search (sup-norm ball closed under additive constants).  These are the
independent checks for strong duality and for the refinement identity.

For the additively closed ball {g + c : ||g||_inf <= B}, the coordinate
separability of R(h) means the optimum has h_i = clip(theta_i, w, w + 2B)
with theta_i = f'(nu_i / mu_i) and a scalar window offset w; R as a
function of w is concave, so the golden-section search shared with
`generators.conjugate_numeric` (a fixed 300 steps) is exact up to float
precision.  R(h) is evaluated as the same zero-weight-skipping sums that
`metrics.est_DfH` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discriminator import TabularDiscriminator, exact_tabular
from .distributions import DiscreteDistribution, discrete_ratio
from .errors import DomainError
from .generators import GeneratorSpec, _golden_max
from .metrics import _masked_dot

__all__ = [
    "HSpec",
    "DualResult",
    "DualityCheck",
    "exact_optimal_h",
    "simplex_grid",
    "dual_grid_min",
    "primal_sup_tabular",
    "strong_duality_check",
]


def exact_optimal_h(nu: DiscreteDistribution, mu: DiscreteDistribution,
                    gen: GeneratorSpec) -> TabularDiscriminator:
    """The variational witness h_i = f'(nu_i / mu_i); -inf where nu vanishes."""
    return exact_tabular(nu, mu, gen)


@dataclass(frozen=True)
class HSpec:
    """Discriminator class over a finite support.

    kind "rich": all per-point functions (unbounded).
    kind "constants": constant functions only.
    kind "ball": {g + c : ||g||_inf <= norm, c real}, additively closed.
    """

    kind: str
    norm: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rich", "constants", "ball"):
            raise DomainError(f"unknown class kind {self.kind!r}")
        if self.kind == "ball" and self.norm <= 0:
            raise DomainError("ball class needs a positive norm")


def simplex_grid(k: int, resolution: float = 1.0 / 200.0) -> np.ndarray:
    """All weight vectors with entries that are multiples of the resolution."""
    n = round(1.0 / resolution)
    if k < 2 or k > 4:
        raise DomainError("simplex grid supports 2 to 4 points")
    if k == 2:
        i = np.arange(n + 1)
        grid = np.stack([i, n - i], axis=1)
    elif k == 3:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = i + j <= n
        grid = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1)
    else:
        blocks = []
        for i in range(n + 1):
            rem = n - i
            a, b = np.meshgrid(np.arange(rem + 1), np.arange(rem + 1), indexing="ij")
            keep = a + b <= rem
            blocks.append(np.stack([
                np.full(keep.sum(), i), a[keep], b[keep], rem - a[keep] - b[keep],
            ], axis=1))
        grid = np.concatenate(blocks, axis=0)
    return grid.astype(float) / n


def _ipm_term(h_spec: HSpec, nu_w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d_H(nu, Q) for each grid row q."""
    if h_spec.kind == "constants":
        return np.zeros(q.shape[0])
    l1 = np.abs(nu_w[None, :] - q).sum(axis=1)
    if h_spec.kind == "ball":
        return h_spec.norm * l1
    return np.where(l1 == 0.0, 0.0, np.inf)  # rich class


@dataclass(frozen=True)
class DualResult:
    q_star: DiscreteDistribution
    value: float


def dual_grid_min(nu: DiscreteDistribution, mu: DiscreteDistribution, gen: GeneratorSpec,
                  h_spec: HSpec, resolution: float = 1.0 / 200.0) -> DualResult:
    """Minimize d_H(nu, Q) + I_f(Q : mu) over the simplex grid.

    The known stationary candidates nu and mu are appended to the grid so
    the rich and constants cases are exact.
    """
    if nu.n > 4:
        raise DomainError("grid search is limited to supports of at most 4 points")
    nu_w = discrete_ratio(nu, mu) * mu.weights
    grid = simplex_grid(mu.n, resolution)
    grid = np.vstack([grid, nu_w[None, :], mu.weights[None, :]])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = grid / mu.weights[None, :]
        fvals = np.asarray(gen.f(ratios))
    pos = mu.weights[None, :] > 0
    terms = np.where(pos, fvals * mu.weights[None, :], np.where(grid > 0, np.inf, 0.0))
    fdiv = terms.sum(axis=1)
    total = _ipm_term(h_spec, nu_w, grid) + fdiv
    best = int(np.argmin(total))
    q = grid[best] / grid[best].sum()
    return DualResult(q_star=DiscreteDistribution(mu.support, q), value=float(total[best]))


def primal_sup_tabular(nu: DiscreteDistribution, mu: DiscreteDistribution,
                       gen: GeneratorSpec, h_spec: HSpec) -> tuple[float, TabularDiscriminator]:
    """Exact (or certified) sup of R(h) over the tabular class h_spec."""
    nu_w = discrete_ratio(nu, mu) * mu.weights
    mu_w = mu.weights

    def plugin_value(h: np.ndarray) -> float:
        return _masked_dot(nu_w, h) - _masked_dot(mu_w, np.asarray(gen.conjugate_fn(h)))

    if h_spec.kind == "rich":
        tab = exact_optimal_h(nu, mu, gen)
        return plugin_value(tab.values), tab
    if h_spec.kind == "constants":
        c = float(gen.f_prime(1.0))
        values = np.full(mu.n, c)
        return 0.0, TabularDiscriminator(mu.support, values, generator_name=gen.name)

    with np.errstate(divide="ignore"):
        theta = np.asarray(gen.f_prime(discrete_ratio(nu, mu)))
    width = 2.0 * h_spec.norm
    finite = theta[np.isfinite(theta)]
    c0 = float(gen.f_prime(1.0))
    lo = min(finite.min() if finite.size else c0, c0) - width - 1.0
    hi = max(finite.max() if finite.size else c0, c0) + 1.0
    hi_dom = gen.conjugate_domain[1]
    if math.isfinite(hi_dom):
        hi = min(hi, hi_dom - width - 1e-12)
    if lo >= hi:
        lo = hi - 1.0

    w_star, best = _golden_max(lambda w: plugin_value(np.clip(theta, w, w + width)), lo, hi)
    h_star = np.clip(theta, w_star, w_star + width)
    return best, TabularDiscriminator(mu.support, h_star, generator_name=gen.name)


@dataclass(frozen=True)
class DualityCheck:
    primal: float
    dual: float
    gap: float
    resolution: float
    within_tolerance: bool  # |gap| <= 2 * resolution
    too_coarse: bool  # gap > 10 * resolution, grid cannot certify


def strong_duality_check(nu: DiscreteDistribution, mu: DiscreteDistribution,
                         gen: GeneratorSpec, h_spec: HSpec,
                         resolution: float = 1.0 / 200.0) -> DualityCheck:
    """Compare the tabular primal sup against the simplex-grid dual minimum."""
    primal, _ = primal_sup_tabular(nu, mu, gen, h_spec)
    dual = dual_grid_min(nu, mu, gen, h_spec, resolution).value
    gap = dual - primal  # grid dual overshoots the true common value
    return DualityCheck(
        primal=primal, dual=dual, gap=gap, resolution=resolution,
        within_tolerance=bool(abs(gap) <= 2.0 * resolution),
        too_coarse=bool(gap > 10.0 * resolution),
    )
