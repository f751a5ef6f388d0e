"""Construct the refined model from a trained discriminator.

The refined model reweights the base model mu by f'^-1(h - lambda): on a
finite support this is an explicit reweighting, on a continuous model it
is exposed as a score field (for samplers) plus an unnormalized density
(for quadrature oracles).  The normalizer lambda solves

    E_mu[f'^-1(h - lambda)] = 1

by Brent's method (scipy.optimize.brentq) on a bracket: the expectation
is strictly decreasing in lambda because f'^-1 is increasing for strictly
convex f, so one end has a closed form and a halving or doubling search
finds the other.  At an exactly optimal discriminator from a class closed
under additive constants the solution is lambda = 0; it is still always
solved rather than assumed, since finitely trained discriminators are
inexact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.optimize import brentq

from .discriminator import Discriminator, _h_values, input_grad
from .distributions import ContinuousModel, DiscreteDistribution, as_generator
from .errors import DegenerateDistributionError, DomainError, LambdaSolveError
from .generators import GeneratorSpec

__all__ = [
    "RefinedModel",
    "solve_lambda",
    "refine_discrete",
    "refine_continuous",
    "refined_score",
    "refined_density_unnormalized",
    "export_refined_csv",
]

_MAX_BRACKET_STEPS = 200


def _excess(lam: float, gen: GeneratorSpec, h: np.ndarray, w: np.ndarray) -> float:
    """E_mu[f'^-1(h - lam)] - 1 for weights w on the values h."""
    return float(w @ np.asarray(gen.f_prime_inv(h - lam))) - 1.0


def solve_lambda(disc, gen: GeneratorSpec,
                 mu_ref: Union[DiscreteDistribution, np.ndarray], *,
                 tol: Optional[float] = None) -> float:
    """Solve E_mu[f'^-1(h - lambda)] = 1 by Brent's method on a bracket.

    mu_ref is either a finite distribution (exact weighted sum, tolerance
    1e-10) or a sample batch from mu (Monte Carlo mean, tolerance 1e-6).

    Zero-weight points are left out.  At lambda = max(h) - f'(1/2) every
    term is at most 1/2, so E < 1 there.  The other end of the bracket
    moves down from it: halving the distance to max(h) - sup dom f* when
    that supremum is finite, doubling the step when it is not.  Raises
    DegenerateDistributionError when h is -inf on all of mu's mass, and
    LambdaSolveError when h is NaN or +inf there, when no bracket is found
    or when the root misses the tolerance.
    """
    h = _h_values(disc, mu_ref)
    if isinstance(mu_ref, DiscreteDistribution):
        w = mu_ref.weights
        tol = 1e-10 if tol is None else tol
    else:
        w = np.full(h.shape[0], 1.0 / h.shape[0])
        tol = 1e-6 if tol is None else tol
    live = w > 0
    h, w = h[live], w[live]
    if np.any(np.isnan(h) | np.isposinf(h)):
        raise LambdaSolveError("discriminator is NaN or +inf on mu")
    finite = np.isfinite(h)
    if not finite.any():
        raise DegenerateDistributionError("discriminator is -inf everywhere on mu")

    top = float(h[finite].max())
    hi = top - float(gen.f_prime(0.5))
    edge = top - gen.conjugate_domain[1]  # -inf when dom f* is unbounded above
    bounded = math.isfinite(edge)
    step = 0.5 * (hi - edge) if bounded else 1.0
    for _ in range(_MAX_BRACKET_STEPS):
        lo = edge + step if bounded else hi - step
        if _excess(lo, gen, h, w) >= 0.0:
            break
        step = 0.5 * step if bounded else 2.0 * step
    else:
        raise LambdaSolveError("expectation never reaches 1; bracket search failed")
    # Near the edge E changes on the scale of lo - edge, so xtol shrinks
    # with it.  h and w go in as args: brentq wraps the function in a
    # reference cycle, and a closure over them would keep them alive until
    # the next cyclic garbage collection.
    lam = brentq(_excess, lo, hi, args=(gen, h, w), xtol=1e-15 * min(1.0, lo - edge),
                 disp=False)
    residual = abs(_excess(lam, gen, h, w))
    if not residual <= tol:
        raise LambdaSolveError(f"root search stalled: |E - 1| = {residual:.3e} > {tol}")
    return lam


def _refined_weights(mu: DiscreteDistribution, disc, gen: GeneratorSpec,
                     lam: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ratios f'^-1(h - lambda) on mu's support and the renormalized weights."""
    h = _h_values(disc, mu)
    if lam is None:
        lam = solve_lambda(disc, gen, mu)
    ratios = np.asarray(gen.f_prime_inv(h - lam))
    weights = mu.weights * ratios
    total = float(weights.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise DegenerateDistributionError(f"refined mass is {total!r}")
    return ratios, weights / total


def refine_discrete(mu: DiscreteDistribution, disc, gen: GeneratorSpec, *,
                    lam: Optional[float] = None) -> DiscreteDistribution:
    """Reweight mu by f'^-1(h - lambda) and renormalize exactly.

    lam=None solves the normalizer equation (the default contract);
    passing lam=0.0 reproduces the ratio-renormalization heuristic used
    when the discriminator class is not closed under additive constants.
    """
    _, weights = _refined_weights(mu, disc, gen, lam)
    return mu.reweighted(weights)


def refined_score(base_score: Callable[[np.ndarray], np.ndarray], disc, gen: GeneratorSpec,
                  x: np.ndarray, *, lam: float = 0.0) -> np.ndarray:
    """Score of the refined model: base score plus the guidance term.

    guidance(x) = (d/ds log f'^-1)(h(x) - lam) * grad_x h(x), with the
    closed-form derivative from the generator (no numeric differentiation).
    """
    if not isinstance(disc, Discriminator):
        raise DomainError("refined_score needs a net discriminator with input gradients")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = disc.h_batch(x) - lam
    lo, hi = gen.conjugate_domain
    if np.any(h <= lo) or np.any(h >= hi):
        bad = int(np.flatnonzero((h <= lo) | (h >= hi))[0])
        raise DomainError(
            f"h - lambda = {h[bad]} at x = {x[bad]} leaves the range of f' {gen.conjugate_domain}"
        )
    factor = np.asarray(gen.log_ratio_deriv(h))[:, None]
    return base_score(x) + factor * input_grad(disc, x)


def refined_density_unnormalized(base: ContinuousModel, disc, gen: GeneratorSpec,
                                 x: np.ndarray, *, lam: float = 0.0) -> np.ndarray:
    """density(x) * f'^-1(h(x) - lam); used by 1-d and 2-d quadrature oracles."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = _h_values(disc, x) - lam
    return np.exp(base.log_density(x)) * np.asarray(gen.f_prime_inv(h))


@dataclass(frozen=True)
class RefinedModel:
    """A continuous refined model: the base reweighted by f'^-1(h - lambda_h)."""

    gen: GeneratorSpec
    disc: object
    lambda_h: float
    base: object
    mc_residual: float = 0.0  # |E_mu[f'^-1(h - lambda)] - 1| recorded at construction
    mc_se: float = 0.0

    def score(self, x: np.ndarray) -> np.ndarray:
        return refined_score(self.base.score, self.disc, self.gen, x, lam=self.lambda_h)

    def unnormalized_density(self, x: np.ndarray) -> np.ndarray:
        return refined_density_unnormalized(self.base, self.disc, self.gen, x, lam=self.lambda_h)


def refine_continuous(base: ContinuousModel, disc, gen: GeneratorSpec, *,
                      n_mc: int = 10_000, seed=0) -> RefinedModel:
    """Build the continuous refined model, solving lambda by Monte Carlo."""
    rng = as_generator(seed)
    batch = base.sample(rng, n_mc)
    lam = solve_lambda(disc, gen, batch)
    ratios = np.asarray(gen.f_prime_inv(_h_values(disc, batch) - lam))
    residual = abs(float(ratios.mean()) - 1.0)
    se = float(ratios.std(ddof=1) / math.sqrt(n_mc))
    return RefinedModel(gen=gen, disc=disc, lambda_h=lam, base=base,
                        mc_residual=residual, mc_se=se)


def export_refined_csv(path, mu: DiscreteDistribution, disc, gen: GeneratorSpec, *,
                       lam: Optional[float] = None) -> None:
    """Write (support, base weight, ratio, refined weight) rows."""
    ratios, weights = _refined_weights(mu, disc, gen, lam)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim_cols = [f"x{j}" for j in range(mu.dim)]
        writer.writerow(dim_cols + ["base_weight", "ratio", "refined_weight"])
        for i in range(mu.n):
            row = [f"{v:.17g}" for v in mu.support[i]]
            row += [f"{mu.weights[i]:.17g}", f"{ratios[i]:.17g}", f"{weights[i]:.17g}"]
            writer.writerow(row)
