"""Construct the refined model from a trained discriminator.

The refined model reweights the base model mu by f'^-1(h - lambda): on a
finite support this is an explicit reweighting, on a continuous model it
is exposed as a score field (for samplers) plus an unnormalized density.
The score field is the inner loop of every sampler, so it runs the net
forward once per call and takes the guidance from one input-only
backward pass.  The normalizer lambda solves

    E_mu[f'^-1(h - lambda)] = 1

by Brent's method (`_brentq`) on a bracket: the expectation
is strictly decreasing in lambda because f'^-1 is increasing for strictly
convex f, so one end has a closed form and a halving or doubling search
finds the other.  At an exactly optimal discriminator from a class closed
under additive constants the solution is lambda = 0; it is still always
solved rather than assumed, since finitely trained discriminators are
inexact.  `solve_lambda` solves it for a discriminator on a finite
distribution or a sample batch; callers that already hold h there solve
it on those values through `_solve_lambda`, so the net runs forward once.
`refined_score` without a given lambda solves it on the h of its own
forward pass, which is how guided reverse diffusion gets one lambda per
noise level from the chains themselves.

The generator f comes from the discriminator: h is fitted under
disc.generator, and only that f makes f'^-1(h - lambda) the density ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .discriminator import Discriminator, _check_generator, _h_values, input_grad
from .distributions import DiscreteDistribution, GaussianMixture, as_batch, as_generator
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
_EXACT_TOL = 1e-10  # |E - 1| allowed on a finite distribution
_MC_TOL = 1e-6  # |E - 1| allowed on a sample batch
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brentq(f: Callable[..., float], a: float, b: float, *, args: tuple = (),
            xtol: float) -> float:
    """A root of f(x, *args) in [a, b] by Brent's method (Brent, 1973, ch. 4).

    A step-for-step port of scipy's brentq.c, with its relative tolerance
    4 eps and its 100 iterations, so roots are bit-identical to
    scipy.optimize.brentq.  Each step interpolates (secant) or
    extrapolates (inverse quadratic) when that step is short enough, and
    bisects otherwise; it stops once half the bracket is below
    (xtol + rtol |x|) / 2.  A NaN value of f, a bracket without a sign
    change and a search that has not converged after 100 steps raise
    LambdaSolveError.
    """

    def value(x: float) -> float:
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise LambdaSolveError(f"root search met NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise LambdaSolveError(f"no sign change on the bracket [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short enough step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise LambdaSolveError(f"root search did not converge in {_BRENT_MAXITER} steps")


def _excess(lam: float, gen: GeneratorSpec, h: np.ndarray, w: np.ndarray) -> float:
    """E_mu[f'^-1(h - lam)] - 1 for weights w on the values h."""
    return float(w @ np.asarray(gen.f_prime_inv(h - lam))) - 1.0


def solve_lambda(disc, gen: GeneratorSpec,
                 mu_ref: Union[DiscreteDistribution, np.ndarray]) -> float:
    """Solve E_mu[f'^-1(h - lambda)] = 1 by Brent's method on a bracket.

    mu_ref is either a finite distribution (exact weighted sum, tolerance
    1e-10) or a sample batch from mu (Monte Carlo mean, tolerance 1e-6).
    It evaluates disc's h there and hands it to `_solve_lambda`.  gen must
    be disc.generator (DomainError otherwise); the benchmark's tracer reads
    it by position, so it stays only until the next change to the
    benchmark.
    """
    _check_generator(disc, gen)
    return _solve_lambda(gen, _h_values(disc, mu_ref), mu_ref)


def _solve_lambda(gen: GeneratorSpec, h: np.ndarray,
                  mu_ref: Union[DiscreteDistribution, np.ndarray]) -> float:
    """Solve E_mu[f'^-1(h - lambda)] = 1 for h already evaluated on mu_ref.

    The weights and the tolerance come from mu_ref as in
    `solve_lambda`; zero-weight points are left out.  At lambda = max(h) -
    f'(1/2) every term is at most 1/2, so E < 1 there.  The other end of
    the bracket moves down from it: halving the distance to max(h) - sup
    dom f* when that supremum is finite, doubling the step when it is not.
    Raises DegenerateDistributionError when h is -inf on all of mu's mass,
    and LambdaSolveError when h is NaN or +inf there, when no bracket is
    found, when the root search fails or when |E - 1| at the root exceeds
    tol.
    """
    if isinstance(mu_ref, DiscreteDistribution):
        w, tol = mu_ref.weights, _EXACT_TOL
    else:
        w, tol = np.full(h.shape[0], 1.0 / h.shape[0]), _MC_TOL
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
    # Near the edge E changes on the scale of lo - edge, so xtol shrinks with it.
    lam = _brentq(_excess, lo, hi, args=(gen, h, w), xtol=1e-15 * min(1.0, lo - edge))
    residual = abs(_excess(lam, gen, h, w))
    if not residual <= tol:
        raise LambdaSolveError(f"root search stalled: |E - 1| = {residual:.3e} > {tol}")
    return lam


def _refined_weights(mu: DiscreteDistribution, disc,
                     lam: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ratios f'^-1(h - lambda) on mu's support and the renormalized weights."""
    gen = disc.generator
    h = _h_values(disc, mu)
    if lam is None:
        lam = _solve_lambda(gen, h, mu)
    ratios = np.asarray(gen.f_prime_inv(h - lam))
    weights = mu.weights * ratios
    total = float(weights.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise DegenerateDistributionError(f"refined mass is {total!r}")
    return ratios, weights / total


def refine_discrete(mu: DiscreteDistribution, disc, *,
                    lam: Optional[float] = None) -> DiscreteDistribution:
    """Reweight mu by f'^-1(h - lambda) and renormalize exactly.

    lam=None solves the normalizer equation (the default contract);
    passing lam=0.0 reproduces the ratio-renormalization heuristic used
    when the discriminator class is not closed under additive constants.
    """
    _, weights = _refined_weights(mu, disc, lam)
    return mu.reweighted(weights)


def refined_score(base_score: Callable[[np.ndarray], np.ndarray], disc, x: np.ndarray, *,
                  lam: Optional[float] = None) -> np.ndarray:
    """Score of the refined model: base score plus the guidance term.

    guidance(x) = (d/ds log f'^-1)(h(x) - lam) * grad_x h(x), with the
    closed-form derivative from the generator (no numeric differentiation).
    The guidance is the input gradient of log f'^-1(h - lam), so it takes
    one forward and one input-only backward pass through `input_grad`.
    lam=None solves the normalizer on the batch itself, the mean of
    f'^-1(h - lam) over x equal to 1, from that forward's h; the solved
    lam keeps every h - lam inside the range of f'.  The domain check runs
    on that forward's h, before the backward pass: h - lam must lie inside
    the range of f', or DomainError names the first point outside it.
    """
    if not isinstance(disc, Discriminator):
        raise DomainError("refined_score needs a net discriminator with input gradients")
    gen = disc.generator
    x = as_batch(x)
    lo, hi = gen.conjugate_domain

    def log_ratio_deriv(h: np.ndarray) -> np.ndarray:
        s = h - (_solve_lambda(gen, h, x) if lam is None else lam)
        if np.any(s <= lo) or np.any(s >= hi):
            bad = int(np.flatnonzero((s <= lo) | (s >= hi))[0])
            raise DomainError(
                f"h - lambda = {s[bad]} at x = {x[bad]} leaves the range of f' "
                f"{gen.conjugate_domain}"
            )
        return gen.log_ratio_deriv(s)

    guidance = input_grad(disc, x, log_ratio_deriv)
    return base_score(x) + guidance


def refined_density_unnormalized(base: GaussianMixture, disc, x: np.ndarray, *,
                                 lam: float = 0.0) -> np.ndarray:
    """density(x) * f'^-1(h(x) - lam), the refined density up to its normalizer."""
    x = as_batch(x)
    h = _h_values(disc, x) - lam
    return np.exp(base.log_density(x)) * np.asarray(disc.generator.f_prime_inv(h))


@dataclass(frozen=True)
class RefinedModel:
    """A continuous refined model: the base reweighted by f'^-1(h - lambda_h)."""

    disc: object
    lambda_h: float
    base: GaussianMixture
    mc_residual: float = 0.0  # |E_mu[f'^-1(h - lambda)] - 1| recorded at construction
    mc_se: float = 0.0

    def score(self, x: np.ndarray) -> np.ndarray:
        return refined_score(self.base.score, self.disc, x, lam=self.lambda_h)


def refine_continuous(base: GaussianMixture, disc, gen: GeneratorSpec, *,
                      n_mc: int = 10_000, seed=0) -> RefinedModel:
    """Build the continuous refined model, solving lambda by Monte Carlo.

    gen must be disc.generator (DomainError otherwise); the benchmark
    passes it by position, so it stays only until the next change to the
    benchmark.
    """
    _check_generator(disc, gen)
    rng = as_generator(seed)
    batch = base.sample(rng, n_mc)
    h = _h_values(disc, batch)
    lam = _solve_lambda(gen, h, batch)
    ratios = np.asarray(gen.f_prime_inv(h - lam))
    residual = abs(float(ratios.mean()) - 1.0)
    se = float(ratios.std(ddof=1) / math.sqrt(n_mc))
    return RefinedModel(disc=disc, lambda_h=lam, base=base,
                        mc_residual=residual, mc_se=se)


def export_refined_csv(path, mu: DiscreteDistribution, disc) -> None:
    """Write (support, base weight, ratio, refined weight) rows, lambda solved on mu."""
    ratios, weights = _refined_weights(mu, disc, None)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim_cols = [f"x{j}" for j in range(mu.dim)]
        writer.writerow(dim_cols + ["base_weight", "ratio", "refined_weight"])
        for i in range(mu.n):
            row = [f"{v:.17g}" for v in mu.support[i]]
            row += [f"{mu.weights[i]:.17g}", f"{ratios[i]:.17g}", f"{weights[i]:.17g}"]
            writer.writerow(row)
