"""Exact ground truth on small discrete instances.

The discriminator class is the sup-norm ball closed under additive
constants, {g + c : ||g||_inf <= B}, over a finite support.  Its primal
sup of R(h) is computed exactly from a scalar first-order condition, and
strong duality is certified, not searched for.  Weak duality gives

    R(h) <= d_H(nu, Q) + I_f(Q : mu),  d_H(nu, Q) = B ||nu - Q||_1,

for every h in the class and every distribution Q, so a Q whose dual
objective equals R(h*) at the primal optimum h* makes both optimal.
`strong_duality_check` evaluates the dual objective at

    Q*_j = mu_j f'^-1(h*_j) = clip(nu_j, mu_j f'^-1(w), mu_j f'^-1(w + 2B)),

the dual's own first-order condition with the simplex multiplier at
w + B.  Q* has mass 1 exactly when lambda = 0 at h*, so the check reports
|sum Q* - 1| next to the gap, and a wrong window shows in both.  The call
needs no grid, so it works at any support size.

The dual problem inf_Q [d_H(nu, Q) + I_f(Q : mu)] on three-point supports
is also minimized exhaustively over the probability-simplex grid at
resolution 1/200, as an independent cross-check that criterion 3 runs.

R(h) separates over coordinates, so the optimum is h_i = clip(theta_i,
w, w + 2B) with theta_i = f'(nu_i / mu_i) and a scalar window offset w.
As a function of w, R is concave and C^1 with slope

    R'(w) = sum_{theta_i < w} (nu_i - mu_i f'^-1(w))
          + sum_{theta_i > w + 2B} (nu_i - mu_i f'^-1(w + 2B));

a free coordinate adds 0, since f'^-1(theta_i) = nu_i / mu_i.  With nu
and mu both of mass 1 on mu's support, R'(w) = 1 - E_mu[f'^-1(h*(w))],
so R'(w) = 0 is E_mu[f'^-1(h*)] = 1 and lambda = 0 at the optimum h* of
this additively closed class, which the tests check.  The sup is R at
the root of R'(w) = 0, found by the Brent root finder of `refine` on the
bracket [lo, hi], reusing the slopes at its ends:

    lo = f'(1) - 2B - 1,  hi = min(f'(1), max theta - 2B).

At lo every h*_i <= f'(1) - 1, so each f'^-1(h*_i) < 1 and R'(lo) > 0.
At w = f'(1) every h*_i >= f'(1), so R'(w) <= 0.  At w = max theta - 2B
no coordinate lies above the window and each one below it has
f'^-1(w) > nu_i / mu_i, so R'(w) <= 0 again.  hi is therefore the
maximizer exactly when no live theta lies below the window there (a ball
wide enough for the spread of theta), and then no root search runs.
hi + 2B <= max theta lies in dom f*: a live theta at or above sup dom f*
raises DomainError naming its point and ratio.  For the built-ins that
takes a ratio nu / mu that overflowed to +inf, where kl's theta is +inf
and reverse KL's and js_shifted's is -0.0 = sup dom f*.  R(h) is
evaluated as the same zero-weight-skipping sums that `metrics.est_DfH`
uses, and zero-weight points are left out of R' as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminator import TabularDiscriminator, _tabular_on
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
    """The tabular ball {g + c : ||g||_inf <= norm, c real}, closed under additive constants.

    kind must be "ball"; any other kind raises DomainError.  The field stays
    only because `bench/workloads.py` builds `HSpec("ball", 0.5)`; ROADMAP
    item 6's change to the benchmark drops it.
    """

    kind: str
    norm: float = 1.0

    def __post_init__(self):
        if self.kind != "ball":
            raise DomainError(f"unknown class kind {self.kind!r}; the oracle takes \"ball\"")
        if not (math.isfinite(self.norm) and self.norm > 0):
            raise DomainError(f"ball class needs a finite positive norm, got {self.norm}")


_GRID_N = 200  # the grid's resolution is 1 / _GRID_N


def simplex_grid() -> np.ndarray:
    """The 20,301 three-point weight vectors with entries in multiples of 1/200.

    Rows are in lexicographic order; the array is read-only.
    """
    a, ab = np.triu_indices(_GRID_N + 1)  # row a, column a + b of an (n + 1)^2 table
    grid = np.stack([a, ab - a, _GRID_N - ab], axis=1) / _GRID_N
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class DualResult:
    q_star: DiscreteDistribution
    value: float


def dual_grid_min(nu: DiscreteDistribution, mu: DiscreteDistribution, gen: GeneratorSpec,
                  h_spec: HSpec) -> DualResult:
    """Minimize d_H(nu, Q) + I_f(Q : mu) over the simplex grid of a three-point support.

    The search is exhaustive over every point of `simplex_grid()`,
    independent of the primal search.  The stationary candidates nu and mu
    are appended: a wide ball puts Q* at nu, which the grid rarely holds.
    Each row is scored as B ||nu - Q||_1 + sum_j mu_j f(Q_j / mu_j), with
    the f term 0 where mu_j and Q_j vanish and +inf where only mu_j does.
    Raises DomainError unless mu has exactly three points.
    """
    if mu.n != 3:
        raise DomainError(f"grid search needs a three-point support, got {mu.n} points")
    mu_w = mu.weights
    nu_w = discrete_ratio(nu, mu) * mu_w
    points = np.vstack([simplex_grid(), nu_w, mu_w])
    with np.errstate(divide="ignore", invalid="ignore"):
        fvals = np.asarray(gen.f(points / mu_w))
        fterms = np.where(mu_w > 0, fvals * mu_w, np.where(points > 0, np.inf, 0.0))
    total = h_spec.norm * np.abs(nu_w - points).sum(axis=1) + fterms.sum(axis=1)
    best = int(np.argmin(total))
    q = points[best]
    return DualResult(q_star=mu.reweighted(q / q.sum()), value=float(total[best]))


def _window_slope(w: float, gen: GeneratorSpec, theta: np.ndarray, nu_w: np.ndarray,
                  mu_w: np.ndarray, width: float) -> float:
    """R'(w) of the window clip(theta, w, w + width): clipped coordinates only.

    One f'^-1 call serves both ends; masking after the product sums the same terms.
    """
    r_lo, r_hi = gen.f_prime_inv(np.array([w, w + width]))
    return (float((nu_w - mu_w * r_lo)[theta < w].sum())
            + float((nu_w - mu_w * r_hi)[theta > w + width].sum()))


def _primal_sup(ratio: np.ndarray, mu: DiscreteDistribution, gen: GeneratorSpec,
                h_spec: HSpec) -> tuple[float, np.ndarray]:
    """`primal_sup_tabular` on the ratio nu / mu: the sup and h*'s values.

    Raises DomainError when a live theta reaches sup dom f*, where no
    window in dom f* holds it; for the built-ins only a ratio that
    overflowed to +inf does.
    """
    mu_w = mu.weights
    nu_w = ratio * mu_w
    theta = np.asarray(gen.f_prime(ratio))  # -inf where nu vanishes
    width = 2.0 * h_spec.norm
    c0 = float(gen.f_prime(1.0))
    live = mu_w > 0
    top, edge = float(theta[live].max()), gen.conjugate_domain[1]
    if top >= edge:
        j = int(np.flatnonzero(live & (theta >= edge))[0])
        raise DomainError(f"nu / mu = {ratio[j]} at {mu.support[j]} puts f' at "
                          f"sup dom f* = {edge}, outside every window in dom f*")
    lo = c0 - width - 1.0
    hi = min(c0, top - width)  # R'(lo) > 0 >= R'(hi): module docstring
    args = (gen, theta[live], nu_w[live], mu_w[live], width)
    if (slope_hi := _window_slope(hi, *args)) >= 0.0:
        w = hi  # a wide ball: no live theta lies below the window, R'(hi) = 0 to rounding
    else:
        # xtol 1e-15, not scipy's 2e-12 (lambda up to 5e-13), keeps lambda at h* at rounding level
        w = _brentq(_window_slope, lo, hi, args=args, xtol=1e-15,
                    fa=_window_slope(lo, *args), fb=slope_hi)
    h_star = np.clip(theta, w, w + width)
    value = _masked_dot(nu_w, h_star) - _masked_dot(mu_w, np.asarray(gen.conjugate_fn(h_star)))
    return value, h_star


def primal_sup_tabular(nu: DiscreteDistribution, mu: DiscreteDistribution,
                       gen: GeneratorSpec, h_spec: HSpec) -> tuple[float, TabularDiscriminator]:
    """Exact sup of R(h) over the ball h_spec on mu's support, and the h attaining it.

    theta = f'(nu / mu) is clipped into the window [w, w + 2B] at the
    offset w where R'(w) = 0, searched on [f'(1) - 2B - 1, min(f'(1),
    max theta - 2B)] (module docstring).  A ball wider than the spread of
    theta has its root at the upper end, where the search stops after
    one slope; R is evaluated once, at that w.  The sup lies
    between 0 (the constants) and I_f(nu : mu) (every per-point function).
    A ratio whose theta reaches sup dom f* raises DomainError.  The
    returned table shares mu's support array.
    """
    value, h_star = _primal_sup(discrete_ratio(nu, mu), mu, gen, h_spec)
    return value, _tabular_on(gen, mu, h_star)


@dataclass(frozen=True)
class DualityCheck:
    primal: float
    dual: float
    gap: float  # dual - primal; the dual objective at Q* equals the primal sup to rounding
    mass_error: float  # |sum Q* - 1|, before Q* is renormalised


def strong_duality_check(nu: DiscreteDistribution, mu: DiscreteDistribution,
                         gen: GeneratorSpec, h_spec: HSpec,
                         resolution: float = 1.0 / 200.0) -> DualityCheck:
    """The ball's primal sup against the dual objective at Q* = mu f'^-1(h*).

    h* is the primal optimum of `primal_sup_tabular`.  Q* is renormalised
    before `dual` = B ||nu - Q*||_1 + I_f(Q* : mu) is evaluated, and
    `mass_error` reports how far its mass was from 1.  `dual` is the dual
    objective at a feasible Q, so it bounds the dual minimum from above;
    at Q* it is that minimum (module docstring).  Any support size works.
    `resolution` does not change the result.  It stays only because
    `bench/workloads.py` passes it positionally; ROADMAP item 6's change to
    the benchmark drops it, as it drops the `gen` parameters.
    """
    ratio = discrete_ratio(nu, mu)
    primal, h_star = _primal_sup(ratio, mu, gen, h_spec)
    live = mu.weights > 0  # nu and every Q* vanish where mu does
    mu_w = mu.weights[live]
    nu_w = ratio[live] * mu_w
    q = mu_w * np.asarray(gen.f_prime_inv(h_star[live]))
    mass = float(q.sum())
    q = q / mass
    dual = (float(h_spec.norm * np.abs(nu_w - q).sum())
            + float(mu_w @ np.asarray(gen.f(q / mu_w))))
    return DualityCheck(primal=primal, dual=dual, gap=dual - primal,
                        mass_error=abs(mass - 1.0))
