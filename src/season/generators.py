"""Convex generators of f-divergences and their proper-loss machinery.

Each built-in generator f is strictly convex and differentiable on the
interior of its domain with f(1) = 0, and satisfies f'^-1(s) >= 0 on the
domain of the Fenchel conjugate f*.  The three built-ins are

    kl          f(t) = t log t
    reverse_kl  f(t) = -log t
    js_shifted  f(t) = t log t - (t+1) log(t+1) + 2 log 2

All closed forms here (f, f', f'^-1, f*, their derivatives) have numeric
oracle twins used by the test suite: `conjugate_numeric` maximizes
s*t - f(t) directly by golden-section search, and the derivatives are
cross-checked against finite differences.  Only the closed forms run on
hot paths.  The golden-section search (`_golden_max`, a fixed 300 steps)
is shared with the tabular primal sup in `oracle`.

The composite link Psi(eta) = f'(eta / (1 - eta)) ties class-probability
estimates to real-valued discriminator outputs; partial losses and the
pointwise Bayes loss Lbar(eta) = -(1 - eta) f(eta / (1 - eta)) make the
binary-classification view of the divergence explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

TWO_LOG_TWO = 2.0 * math.log(2.0)

__all__ = [
    "GeneratorSpec",
    "PartialLossPair",
    "PerspectiveGenerator",
    "GENERATOR_NAMES",
    "get_generator",
    "eval_f",
    "conjugate",
    "conjugate_numeric",
    "inv_fprime",
    "link",
    "inverse_link",
    "partial_losses",
    "pointwise_loss",
    "bayes_pointwise_loss",
    "perspective_prior",
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
    zero density ratios).

    conjugate_domain is the open interval where f* is finite; it equals
    the range of f' for the built-ins, so it also delimits f_prime_inv.
    """

    name: str
    f: Callable  # +inf outside dom f; t = 0 handled as the right limit
    f_prime: Callable
    f_prime_inv: Callable
    f_prime_inv_deriv: Callable  # (f'^-1)'(s), closed form
    log_ratio_deriv: Callable  # d/ds log f'^-1(s), the guidance factor
    conjugate_fn: Callable  # closed-form f* on conjugate_domain
    conjugate_domain: tuple[float, float]
    f_at_zero: float  # right limit f(0+)
    bayes_loss_at_one: float  # lim_{eta -> 1} of the pointwise Bayes loss
    link_of_logit: Callable  # Psi(sigmoid(z)) = f'(exp(z)), stable form
    link_of_logit_deriv: Callable  # d/dz of the above

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"GeneratorSpec({self.name!r})"


@dataclass(frozen=True)
class PartialLossPair:
    """The two partial losses of the proper composite loss at a point.

    loss_pos is the cost of predicting eta when the label is +1,
    loss_neg when it is -1.  parametrization records whether the
    prediction lives in probability space or link (real) space.
    """

    loss_pos: float
    loss_neg: float
    parametrization: str = "probability"


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


def _rkl_fprime(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return -1.0 / t


def _rkl_fprime_inv(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return -1.0 / s


def _rkl_fprime_inv_deriv(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / np.square(s)


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


def _js_fprime_inv_deriv(s):
    r = _js_fprime_inv(s)
    return r * (1.0 + r)


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
    f_prime_inv_deriv=_kl_exp_shifted,
    log_ratio_deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    conjugate_fn=_kl_exp_shifted,
    conjugate_domain=(-math.inf, math.inf),
    f_at_zero=0.0,
    bayes_loss_at_one=-math.inf,
    link_of_logit=lambda z: np.asarray(z, dtype=float) + 1.0,
    link_of_logit_deriv=lambda z: np.ones_like(np.asarray(z, dtype=float)),
)

_RKL = GeneratorSpec(
    name="reverse_kl",
    f=_rkl_f,
    f_prime=_rkl_fprime,
    f_prime_inv=_rkl_fprime_inv,
    f_prime_inv_deriv=_rkl_fprime_inv_deriv,
    log_ratio_deriv=_rkl_fprime_inv,  # d/ds (-log(-s)) = -1/s
    conjugate_fn=_rkl_conj,
    conjugate_domain=(-math.inf, 0.0),
    f_at_zero=math.inf,
    bayes_loss_at_one=0.0,
    link_of_logit=lambda z: -np.exp(-np.asarray(z, dtype=float)),
    link_of_logit_deriv=lambda z: np.exp(-np.asarray(z, dtype=float)),
)

_JS = GeneratorSpec(
    name="js_shifted",
    f=_js_f,
    f_prime=_js_fprime,
    f_prime_inv=_js_fprime_inv,
    f_prime_inv_deriv=_js_fprime_inv_deriv,
    log_ratio_deriv=_js_log_ratio_deriv,
    conjugate_fn=_js_conj,
    conjugate_domain=(-math.inf, 0.0),
    f_at_zero=TWO_LOG_TWO,
    bayes_loss_at_one=0.0,
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
    if t == 0:
        return gen.f_at_zero
    return float(gen.f(t))


def conjugate(gen: GeneratorSpec, s: float) -> float:
    """Closed-form Fenchel conjugate f*(s); +inf outside its domain."""
    lo, hi = gen.conjugate_domain
    if not (lo <= s < hi):
        return math.inf
    return float(gen.conjugate_fn(s))


_GOLDEN_ITERS = 300
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Maximize a unimodal fn on [a, b] by golden-section search.

    Runs a fixed _GOLDEN_ITERS steps and returns (argmax, max).
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def conjugate_numeric(gen, s: float) -> float:
    """Oracle twin of `conjugate`: maximize s*t - f(t) by golden section.

    Works for any object exposing a vectorized ``.f`` (built-in generators
    and perspective transforms).  The search runs in u = log t on
    [-46, hi], where the objective stays unimodal; hi steps up from 1 while
    the objective still rises, and an objective still rising at u = 30 is
    reported as +inf (unbounded supremum).  The t = 0 boundary value
    -f(0) enters as an explicit candidate.
    """

    def g(u: float) -> float:
        t = math.exp(u)
        return s * t - float(gen.f(t))

    hi = 1.0
    while hi < 30.0 and g(hi) > g(hi - 0.5):
        hi += 2.0
    if hi >= 30.0 and g(hi) > g(hi - 0.5):
        return math.inf
    _, best = _golden_max(g, -46.0, hi)

    f0 = float(gen.f(0.0))
    boundary = -f0 if math.isfinite(f0) else -math.inf
    return max(best, boundary)


def inv_fprime(gen: GeneratorSpec, s: float) -> tuple[float, float]:
    """Invert f' at s, returning (t, d/ds f'^-1(s)) with t >= 0.

    s must lie in the interior of the conjugate domain, which coincides
    with the range of f' for the built-in generators.
    """
    lo, hi = gen.conjugate_domain
    if not (lo < s < hi):
        raise DomainError(f"{s} outside the range {gen.conjugate_domain} of f' for {gen.name}")
    return float(gen.f_prime_inv(s)), float(gen.f_prime_inv_deriv(s))


def link(gen: GeneratorSpec, eta: float) -> float:
    """Composite link Psi(eta) = f'(eta / (1 - eta)) on (0, 1)."""
    if not (0.0 < eta < 1.0):
        raise DomainError(f"link requires eta in (0, 1), got {eta}")
    return float(gen.f_prime(eta / (1.0 - eta)))


def inverse_link(gen: GeneratorSpec, z: float) -> float:
    """Inverse of the composite link: eta = r / (1 + r) with r = f'^-1(z)."""
    r, _ = inv_fprime(gen, z)
    if math.isinf(r):
        raise DomainError(f"inverse link undefined at z = {z} for {gen.name}")
    return r / (1.0 + r)


def partial_losses(gen: GeneratorSpec, eta: float) -> PartialLossPair:
    """Partial losses at a probability-space prediction eta in (0, 1)."""
    z = link(gen, eta)
    return PartialLossPair(loss_pos=-z, loss_neg=conjugate(gen, z))


def pointwise_loss(gen: GeneratorSpec, eta: float, t: float) -> float:
    """Expected loss eta * l+(t) + (1 - eta) * l-(t) of predicting t in (0, 1)."""
    pl = partial_losses(gen, t)
    return eta * pl.loss_pos + (1.0 - eta) * pl.loss_neg


def bayes_pointwise_loss(gen: GeneratorSpec, eta: float) -> float:
    """Pointwise Bayes loss -(1 - eta) f(eta / (1 - eta)), with endpoint limits."""
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if eta == 0.0:
        return -gen.f_at_zero
    if eta == 1.0:
        return gen.bayes_loss_at_one
    return -(1.0 - eta) * float(gen.f(eta / (1.0 - eta)))


@dataclass(frozen=True)
class PerspectiveGenerator:
    """Generator rebuilt from a Bayes loss under a class prior pi.

    f_pi(u) = -(1 - pi + pi u) * Lbar(pi u / (1 - pi + pi u)).  Convexity
    is inherited from concavity of Lbar; there is no closed-form
    conjugate, use `conjugate_numeric`.
    """

    pi: float
    bayes_loss: Callable[[float], float]
    name: str = field(default="perspective")

    def f(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        vals = np.empty_like(u)
        for i, ui in enumerate(u):
            if ui < 0:
                vals[i] = np.inf
                continue
            denom = 1.0 - self.pi + self.pi * ui
            vals[i] = -denom * self.bayes_loss(self.pi * ui / denom)
        return vals[0] if scalar else vals


def perspective_prior(bayes_loss: Callable[[float], float], pi: float) -> PerspectiveGenerator:
    """Tilt a pointwise Bayes loss by a prior pi in (0, 1)."""
    if not (0.0 < pi < 1.0):
        raise DomainError(f"prior must lie in (0, 1), got {pi}")
    return PerspectiveGenerator(pi=pi, bayes_loss=bayes_loss)
