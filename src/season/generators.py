"""Convex generators of f-divergences and their proper-loss machinery.

Each built-in generator f is strictly convex and differentiable on the
interior of its domain with f(1) = 0, and satisfies f'^-1(s) >= 0 on the
domain of the Fenchel conjugate f*.  The three built-ins are

    kl          f(t) = t log t
    reverse_kl  f(t) = -log t
    js_shifted  f(t) = t log t - (t+1) log(t+1) + 2 log 2

All closed forms here (f, f', f'^-1, f*, their derivatives) have numeric
oracle twins in the test suite: f* is checked against a bounded Brent
maximization of s*t - f(t) (scipy), and the derivatives against finite
differences.  Only the closed forms run in the package.

The composite link Psi(eta) = f'(eta / (1 - eta)) ties class-probability
estimates to real-valued discriminator outputs; the pointwise Bayes loss
Lbar(eta) = -(1 - eta) f(eta / (1 - eta)) makes the binary-classification
view of the divergence explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

TWO_LOG_TWO = 2.0 * math.log(2.0)

__all__ = [
    "GeneratorSpec",
    "GENERATOR_NAMES",
    "get_generator",
    "eval_f",
    "link",
    "inverse_link",
    "bayes_pointwise_loss",
    "sigmoid",
    "TWO_LOG_TWO",
]


def sigmoid(z):
    """Overflow-safe logistic function, scalar or array."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(z):
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class GeneratorSpec:
    """A convex generator with closed-form calculus handles.

    All handles are numpy ufunc compositions: they accept scalars or
    arrays and follow IEEE semantics at the boundary (e.g. f_prime_inv
    maps -inf to 0 for every built-in, which is what refinement needs at
    zero density ratios, and f_prime(+inf) is the slope lim f(t) / t that
    gives the pointwise Bayes loss at eta = 1).

    conjugate_domain is the open interval where f* is finite; it equals
    the range of f' for the built-ins, so it also delimits f_prime_inv.
    """

    name: str
    f: Callable  # +inf outside dom f; t = 0 handled as the right limit
    f_prime: Callable
    f_prime_inv: Callable
    log_ratio_deriv: Callable  # d/ds log f'^-1(s), the guidance factor
    conjugate_fn: Callable  # closed-form f* on conjugate_domain
    conjugate_domain: tuple[float, float]
    link_of_logit: Callable  # Psi(sigmoid(z)) = f'(exp(z)), stable form
    link_of_logit_deriv: Callable  # d/dz of the above

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"GeneratorSpec({self.name!r})"


def _kl_f(t):
    t = np.asarray(t, dtype=float)
    tp = np.where(t > 0, t, 1.0)
    val = tp * np.log(tp)
    return np.where(t < 0, np.inf, np.where(t > 0, val, 0.0))


def _kl_fprime(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(t) + 1.0


def _kl_exp_shifted(s):
    # exp(s - 1): both f'^-1 and f* for the kl generator; inf on overflow
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(s - 1.0)


def _rkl_f(t):
    t = np.asarray(t, dtype=float)
    tp = np.where(t > 0, t, 1.0)
    return np.where(t > 0, -np.log(tp), np.inf)


def _neg_reciprocal(x):
    # -1/x: reverse KL's f', its own inverse f'^-1, and d/ds log f'^-1(s)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return -1.0 / x


def _rkl_conj(s):
    # sup_t (s t + log t) = -1 - log(-s) for s < 0
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -1.0 - np.log(-s)
    return np.where(s < 0, val, np.inf)


def _js_f(t):
    # t log t - (t+1) log(t+1) + 2 log 2, rewritten as
    # -t log1p(1/t) - log1p(t) + 2 log 2 to survive large t
    t = np.asarray(t, dtype=float)
    tp = np.where(t > 0, t, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -tp * np.log1p(1.0 / tp) - np.log1p(tp) + TWO_LOG_TWO
    val = np.where(t > 0, val, np.where(t == 0, TWO_LOG_TWO, np.inf))
    return np.where(np.isposinf(t), -np.inf, val)


def _js_fprime(t):
    # log(t / (t+1)) = -log1p(1/t), exact down to -1/t for huge t
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return -np.log1p(1.0 / t)


def _js_fprime_inv(s):
    # e^s / (1 - e^s) = 1 / (e^-s - 1), finite for s < 0, 0 at s = -inf
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.expm1(-s)


def _js_log_ratio_deriv(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / (-np.expm1(s))


def _js_conj(s):
    # -2 log 2 - log(1 - e^s) for s < 0, via expm1 for accuracy near 0-
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -TWO_LOG_TWO - np.log(-np.expm1(s))
    return np.where(s < 0, val, np.inf)


_KL = GeneratorSpec(
    name="kl",
    f=_kl_f,
    f_prime=_kl_fprime,
    f_prime_inv=_kl_exp_shifted,
    log_ratio_deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    conjugate_fn=_kl_exp_shifted,
    conjugate_domain=(-math.inf, math.inf),
    link_of_logit=lambda z: np.asarray(z, dtype=float) + 1.0,
    link_of_logit_deriv=lambda z: np.ones_like(np.asarray(z, dtype=float)),
)

_RKL = GeneratorSpec(
    name="reverse_kl",
    f=_rkl_f,
    f_prime=_neg_reciprocal,
    f_prime_inv=_neg_reciprocal,
    log_ratio_deriv=_neg_reciprocal,  # d/ds (-log(-s)) = -1/s
    conjugate_fn=_rkl_conj,
    conjugate_domain=(-math.inf, 0.0),
    link_of_logit=lambda z: -np.exp(-np.asarray(z, dtype=float)),
    link_of_logit_deriv=lambda z: np.exp(-np.asarray(z, dtype=float)),
)

_JS = GeneratorSpec(
    name="js_shifted",
    f=_js_f,
    f_prime=_js_fprime,
    f_prime_inv=_js_fprime_inv,
    log_ratio_deriv=_js_log_ratio_deriv,
    conjugate_fn=_js_conj,
    conjugate_domain=(-math.inf, 0.0),
    link_of_logit=lambda z: -_softplus(-np.asarray(z, dtype=float)),
    link_of_logit_deriv=lambda z: sigmoid(-np.asarray(z, dtype=float)),
)

GENERATORS = {g.name: g for g in (_KL, _RKL, _JS)}
GENERATOR_NAMES = tuple(GENERATORS)


def get_generator(name: str) -> GeneratorSpec:
    try:
        return GENERATORS[name]
    except KeyError:
        raise DomainError(f"unknown generator {name!r}; choose from {GENERATOR_NAMES}") from None


def eval_f(gen: GeneratorSpec, t: float) -> float:
    """Evaluate the generator at finite t >= 0; t = 0 uses the right limit."""
    if not math.isfinite(t):
        raise DomainError(f"f argument must be a finite nonnegative real, got {t!r}")
    if t < 0:
        raise DomainError(f"f is only defined for t >= 0, got {t}")
    return float(gen.f(t))


def link(gen: GeneratorSpec, eta: float) -> float:
    """Composite link Psi(eta) = f'(eta / (1 - eta)) on (0, 1)."""
    if not (0.0 < eta < 1.0):
        raise DomainError(f"link requires eta in (0, 1), got {eta}")
    return float(gen.f_prime(eta / (1.0 - eta)))


def inverse_link(gen: GeneratorSpec, z: float) -> float:
    """Inverse of the composite link: eta = r / (1 + r) with r = f'^-1(z)."""
    lo, hi = gen.conjugate_domain
    if not (lo < z < hi):
        raise DomainError(f"{z} outside the range {gen.conjugate_domain} of f' for {gen.name}")
    r = float(gen.f_prime_inv(z))
    if math.isinf(r):
        raise DomainError(f"inverse link undefined at z = {z} for {gen.name}")
    return r / (1.0 + r)


def bayes_pointwise_loss(gen: GeneratorSpec, eta: float) -> float:
    """Pointwise Bayes loss -(1 - eta) f(eta / (1 - eta)) on [0, 1].

    At eta = 1 it is the limit -f'(+inf): -inf for kl, +0.0 for the others.
    """
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return -float(gen.f_prime(math.inf))
    return -(1.0 - eta) * float(gen.f(eta / (1.0 - eta)))
