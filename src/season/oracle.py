"""Exact ground truth on small discrete instances.

The primal sup of R(h) over tabular classes is computed exactly: in closed
form for the rich class and the constants, and from a scalar first-order
condition for the sup-norm ball closed under additive constants.  Strong
duality is certified, not searched for.  Weak duality gives

    R(h) <= d_H(nu, Q) + I_f(Q : mu)

for every h in the class and every distribution Q, so a Q whose dual
objective equals R(h*) at the primal optimum h* makes both optimal.
`strong_duality_check` evaluates the dual objective at Q* = mu f'^-1(h*):
Q* = nu for the rich class, Q* = mu for the constants, and for the ball
of radius B

    Q*_j = clip(nu_j, mu_j f'^-1(w), mu_j f'^-1(w + 2B)),

the dual's own first-order condition with the simplex multiplier at
w + B.  Q* has mass 1 exactly when lambda = 0 at h*, so the check reports
|sum Q* - 1| next to the gap, and a wrong window shows in both.  The call
needs no grid, so it works at any support size.

The dual problem inf_Q [d_H(nu, Q) + I_f(Q : mu)] is also minimized
exhaustively over a probability-simplex grid of 2 to 4 points, as an
independent cross-check that criterion 3 runs.  The grid is a cached
read-only integer lattice; since each coordinate takes only n + 1 values,
the dual's two terms are tabulated per coordinate value and gathered per
grid point, with the same sums a row-by-row evaluation of the float grid
gives.

For the additively closed ball {g + c : ||g||_inf <= B}, R(h) separates
over coordinates, so the optimum is h_i = clip(theta_i, w, w + 2B) with
theta_i = f'(nu_i / mu_i) and a scalar window offset w.  As a function
of w, R is concave and C^1 with slope

    R'(w) = sum_{theta_i < w} (nu_i - mu_i f'^-1(w))
          + sum_{theta_i > w + 2B} (nu_i - mu_i f'^-1(w + 2B));

a free coordinate adds 0, since f'^-1(theta_i) = nu_i / mu_i.  The sup is
R at the root of R'(w) = 0, found by the Brent root finder of `refine`
on a bracket where R' changes sign, reusing the slopes at its ends; when
R' does not change sign there, the bracket endpoint is the maximizer.
R'(w) = 0 is E_mu[f'^-1(h*)] = 1, so lambda = 0 at the optimum h* of
this additively closed class, which the tests check.  R(h) is evaluated
as the same zero-weight-skipping sums that `metrics.est_DfH` uses, and
zero-weight points are left out of R' as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discriminator import TabularDiscriminator
from .distributions import DiscreteDistribution, discrete_ratio
from .errors import DomainError
from .generators import GeneratorSpec
from .metrics import _masked_dot
from .refine import _brentq

__all__ = [
    "HSpec",
    "DualResult",
    "DualityCheck",
    "simplex_grid",
    "dual_grid_min",
    "primal_sup_tabular",
    "strong_duality_check",
]


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
        if self.kind == "ball" and not (math.isfinite(self.norm) and self.norm > 0):
            raise DomainError(f"ball class needs a finite positive norm, got {self.norm}")


@functools.lru_cache(maxsize=8)
def _lattice(k: int, n: int) -> np.ndarray:
    """Read-only integer points of n times the k-simplex, one column per point.

    Column order is lexicographic.  Each of the first k - 1 coordinates
    repeats every partial point once per value 0..its remaining mass,
    counted up from a cumsum offset; the last coordinate takes the rest.
    """
    if k < 2 or k > 4:
        raise DomainError("simplex grid supports 2 to 4 points")
    rem = np.array([n])
    coords: list[np.ndarray] = []
    for _ in range(k - 1):
        counts = rem + 1
        parent = np.repeat(np.arange(rem.size), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        coords = [c[parent] for c in coords] + [value]
        rem = rem[parent] - value
    lattice = np.stack(coords + [rem]).astype(np.min_scalar_type(n))
    lattice.flags.writeable = False
    return lattice


def simplex_grid(k: int, resolution: float = 1.0 / 200.0) -> np.ndarray:
    """All weight vectors with entries that are multiples of the resolution (read-only)."""
    n = round(1.0 / resolution)
    grid = np.ascontiguousarray(_lattice(k, n).T) / n
    grid.flags.writeable = False
    return grid


def _ipm_term(h_spec: HSpec, l1: np.ndarray) -> np.ndarray:
    """d_H(nu, Q) for each row Q, from its L1 distance to nu."""
    if h_spec.kind == "constants":
        return np.zeros_like(l1)
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

    The search is exhaustive over every grid point, independent of the
    primal search, and the known stationary candidates nu and mu are
    appended so the rich and constants cases are exact.  Coordinate j of
    a grid point takes one of the n + 1 values i / n, so the terms
    |nu_j - q_j| and mu_j f(q_j / mu_j) are tabulated once per value and
    coordinate and gathered per point: f runs on (n + 3) * k values, not
    on every grid entry.  Each point's terms are summed left to right
    over j, as a row sum of the full grid would, in place; the candidates
    are scored apart and joined to the grid's totals before the argmin.
    """
    if nu.n > 4:
        raise DomainError("grid search is limited to supports of at most 4 points")
    n = round(1.0 / resolution)
    lattice = _lattice(mu.n, n)
    mu_w = mu.weights
    nu_w = discrete_ratio(nu, mu) * mu_w
    levels = np.repeat((np.arange(n + 1) / n)[:, None], mu.n, axis=1)
    points = np.vstack([levels, nu_w, mu_w])  # rows 0..n are the levels i / n
    with np.errstate(divide="ignore", invalid="ignore"):
        fvals = np.asarray(gen.f(points / mu_w))
        fterms = np.where(mu_w > 0, fvals * mu_w, np.where(points > 0, np.inf, 0.0))
    table = np.stack([np.abs(nu_w - points), fterms], axis=2)  # (n + 3, k, 2)
    sums = np.take(table[:, 0], lattice[0], axis=0)
    for j in range(1, mu.n):
        sums += np.take(table[:, j], lattice[j], axis=0)
    candidates = table[n + 1:].sum(axis=1)  # nu and mu, scored after the grid
    total = np.concatenate([_ipm_term(h_spec, s[:, 0]) + s[:, 1] for s in (sums, candidates)])
    best = int(np.argmin(total))
    g = lattice.shape[1]
    q = lattice[:, best] / n if best < g else points[n + 1 + best - g]
    return DualResult(q_star=DiscreteDistribution(mu.support, q / q.sum()),
                      value=float(total[best]))


def _window_slope(w: float, gen: GeneratorSpec, theta: np.ndarray, nu_w: np.ndarray,
                  mu_w: np.ndarray, width: float) -> float:
    """R'(w) of the window clip(theta, w, w + width): clipped coordinates only.

    One f'^-1 call serves both ends; masking after the product sums the same terms.
    """
    r_lo, r_hi = gen.f_prime_inv(np.array([w, w + width]))
    return (float((nu_w - mu_w * r_lo)[theta < w].sum())
            + float((nu_w - mu_w * r_hi)[theta > w + width].sum()))


def _primal_sup(ratio: np.ndarray, mu_w: np.ndarray, gen: GeneratorSpec,
                h_spec: HSpec) -> tuple[float, np.ndarray]:
    """`primal_sup_tabular` on the ratio nu / mu and mu's weights: the sup and h*'s values."""
    nu_w = ratio * mu_w

    def plugin_value(h: np.ndarray) -> float:
        return _masked_dot(nu_w, h) - _masked_dot(mu_w, np.asarray(gen.conjugate_fn(h)))

    if h_spec.kind == "constants":
        return 0.0, np.full(mu_w.size, float(gen.f_prime(1.0)))
    with np.errstate(divide="ignore"):
        theta = np.asarray(gen.f_prime(ratio))  # the rich optimum, -inf where nu vanishes
    if h_spec.kind == "rich":
        return plugin_value(theta), theta

    width = 2.0 * h_spec.norm
    finite = theta[np.isfinite(theta)]
    c0 = float(gen.f_prime(1.0))
    lo = min(finite.min() if finite.size else c0, c0) - width - 1.0
    hi = max(finite.max() if finite.size else c0, c0) + 1.0
    hi_dom = gen.conjugate_domain[1]
    if math.isfinite(hi_dom):
        hi = min(hi, hi_dom - width - 1e-12)  # still above lo, since f'(1) < hi_dom

    live = mu_w > 0
    args = (gen, theta[live], nu_w[live], mu_w[live], width)
    if (slope_lo := _window_slope(lo, *args)) <= 0.0:
        w = lo
    elif (slope_hi := _window_slope(hi, *args)) >= 0.0:
        w = hi
    else:
        # xtol 1e-15 leaves 4 eps |w| as the limit in w, so lambda at h* stays
        # at rounding level (scipy's default 2e-12 left up to 5e-13)
        w = _brentq(_window_slope, lo, hi, args=args, xtol=1e-15, fa=slope_lo, fb=slope_hi)
    h_star = np.clip(theta, w, w + width)
    return plugin_value(h_star), h_star


def primal_sup_tabular(nu: DiscreteDistribution, mu: DiscreteDistribution,
                       gen: GeneratorSpec, h_spec: HSpec) -> tuple[float, TabularDiscriminator]:
    """Exact sup of R(h) over the tabular class h_spec, and the h attaining it.

    The rich class takes theta = f'(nu / mu) and the constants f'(1).  The
    ball class clips theta into the window [w, w + 2B] at the offset w
    where R'(w) = 0 (module docstring), or at the end of the bracket
    [lo, hi] where R' keeps its sign; R is evaluated once, at that w.
    """
    value, h_star = _primal_sup(discrete_ratio(nu, mu), mu.weights, gen, h_spec)
    return value, TabularDiscriminator(gen, mu.support, h_star)


@dataclass(frozen=True)
class DualityCheck:
    primal: float
    dual: float
    gap: float  # dual - primal; the dual objective at Q* equals the primal sup to rounding
    mass_error: float  # |sum Q* - 1|, before Q* is renormalised


def strong_duality_check(nu: DiscreteDistribution, mu: DiscreteDistribution,
                         gen: GeneratorSpec, h_spec: HSpec,
                         resolution: float = 1.0 / 200.0) -> DualityCheck:
    """The tabular primal sup against the dual objective at Q* = mu f'^-1(h*).

    h* is the primal optimum of `primal_sup_tabular`.  Q* = nu for the rich
    class and Q* = mu for the constants; the ball's Q* is renormalised
    before `dual` = B ||nu - Q*||_1 + I_f(Q* : mu) is evaluated, and
    `mass_error` reports how far its mass was from 1.  `dual` is the dual
    objective at a feasible Q, so it bounds the dual minimum from above;
    at Q* it is that minimum (module docstring).  Any support size works.
    `resolution` no longer changes the result.  It stays only because
    `bench/workloads.py` passes it positionally; ROADMAP item 6's change to
    the benchmark drops it, as it drops the `gen` parameters.
    """
    ratio = discrete_ratio(nu, mu)
    primal, h_star = _primal_sup(ratio, mu.weights, gen, h_spec)
    live = mu.weights > 0  # nu and every Q* vanish where mu does
    mu_w = mu.weights[live]
    nu_w = ratio[live] * mu_w
    if h_spec.kind == "rich":
        q = nu_w
    elif h_spec.kind == "constants":
        q = mu_w
    else:
        q = mu_w * np.asarray(gen.f_prime_inv(h_star[live]))
    mass = float(q.sum())
    if h_spec.kind == "ball":
        q = q / mass
    dual = (float(_ipm_term(h_spec, np.abs(nu_w - q).sum()))
            + float(mu_w @ np.asarray(gen.f(q / mu_w))))
    return DualityCheck(primal=primal, dual=dual, gap=dual - primal,
                        mass_error=abs(mass - 1.0))
