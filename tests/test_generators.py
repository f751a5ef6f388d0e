"""Generator machinery: closed forms against their numeric oracle twins."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from season.errors import DomainError
from season.generators import (
    GENERATOR_NAMES,
    TWO_LOG_TWO,
    bayes_pointwise_loss,
    eval_f,
    get_generator,
    inverse_link,
    link,
)

ALL = [get_generator(n) for n in GENERATOR_NAMES]
KL = get_generator("kl")
RKL = get_generator("reverse_kl")
JS = get_generator("js_shifted")


def conjugate_numeric(gen, s: float) -> float:
    """Oracle twin of `conjugate_fn`: maximize s*t - f(t) by bounded Brent search.

    The search runs in u = log t on [-46, hi], where the objective stays
    unimodal; hi steps up from 1 while the objective still rises, and an
    objective still rising at u = 30 is reported as +inf (unbounded
    supremum).  The t = 0 boundary value -f(0) enters as an explicit
    candidate.
    """

    def g(u: float) -> float:
        t = math.exp(u)
        return s * t - float(gen.f(t))

    hi = 1.0
    while hi < 30.0 and g(hi) > g(hi - 0.5):
        hi += 2.0
    if hi >= 30.0 and g(hi) > g(hi - 0.5):
        return math.inf
    # xatol 1e-12 leaves sqrt(eps) * |u| as the limit; g is flat at its max
    res = minimize_scalar(lambda u: -g(u), bounds=(-46.0, hi), method="bounded",
                          options={"xatol": 1e-12})

    f0 = float(gen.f(0.0))
    boundary = -f0 if math.isfinite(f0) else -math.inf
    return max(-float(res.fun), boundary)


def s_grid(gen, n=41, span=6.0):
    lo, hi = gen.conjugate_domain
    return np.linspace(max(lo, -span), min(hi - 1e-3, span), n)


class TestEvalF:
    def test_js_at_one_is_zero(self):
        assert eval_f(JS, 1.0) == 0.0

    def test_js_at_zero_right_limit(self):
        assert eval_f(JS, 0.0) == pytest.approx(TWO_LOG_TWO, abs=0.0)

    def test_kl_at_two(self):
        assert eval_f(KL, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_rkl_at_zero_is_inf(self):
        assert eval_f(RKL, 0.0) == math.inf

    def test_negative_rejected(self):
        for gen in ALL:
            with pytest.raises(DomainError):
                eval_f(gen, -0.5)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_strict_convexity_on_grid(self, gen):
        t = np.linspace(0.05, 5.0, 200)
        f = np.asarray(gen.f(t))
        second = f[2:] - 2 * f[1:-1] + f[:-2]
        assert np.all(second > 0)


class TestConjugate:
    def test_kl_example(self):
        assert float(KL.conjugate_fn(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_js_example(self):
        assert float(JS.conjugate_fn(-math.log(2.0))) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_rkl_example_vs_numeric_sup(self):
        assert float(RKL.conjugate_fn(-1.0)) == pytest.approx(-1.0, abs=1e-12)
        assert conjugate_numeric(RKL, -1.0) == pytest.approx(-1.0, abs=1e-6)

    def test_outside_domain_is_inf(self):
        assert float(JS.conjugate_fn(0.0)) == math.inf
        assert float(RKL.conjugate_fn(0.5)) == math.inf

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_fenchel_young_on_log_grid(self, gen):
        t = np.logspace(-3, 3, 50)
        fy = np.asarray(gen.f(t)) + np.asarray(gen.conjugate_fn(gen.f_prime(t))) \
            - t * np.asarray(gen.f_prime(t))
        assert np.abs(fy).max() <= 1e-10

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_conjugate_dominates_identity(self, gen):
        s = s_grid(gen)
        assert np.all(np.asarray(gen.conjugate_fn(s)) >= s)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_conjugate_derivative_is_inverse_fprime(self, gen):
        s = s_grid(gen)
        eps = 1e-6
        fd = (np.asarray(gen.conjugate_fn(s + eps)) - np.asarray(gen.conjugate_fn(s - eps))) \
            / (2 * eps)
        target = np.asarray(gen.f_prime_inv(s))
        rel = np.abs(fd - target) / np.maximum(np.abs(target), 1.0)
        assert rel.max() <= 1e-6


class TestConjugateNumeric:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_agrees_with_closed_form(self, gen):
        for s in s_grid(gen, n=13, span=4.0):
            assert conjugate_numeric(gen, float(s)) == pytest.approx(
                float(gen.conjugate_fn(s)), abs=1e-6)

    def test_kl_at_zero(self):
        assert conjugate_numeric(KL, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_unbounded_sup_detected(self):
        assert conjugate_numeric(JS, 0.5) == math.inf
        assert conjugate_numeric(RKL, 0.1) == math.inf


class TestInvFprime:
    def test_js_example(self):
        assert float(JS.f_prime_inv(-math.log(2.0))) == pytest.approx(1.0, abs=1e-15)

    def test_kl_trivial(self):
        assert float(KL.f_prime_inv(1.0)) == pytest.approx(1.0)

    def test_rkl_trivial(self):
        assert float(RKL.f_prime_inv(-1.0)) == pytest.approx(1.0)

    def test_outside_range_rejected(self):
        with pytest.raises(DomainError):
            inverse_link(JS, 0.5)
        with pytest.raises(DomainError):
            inverse_link(RKL, 0.0)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_derivative_matches_finite_difference(self, gen):
        # the guidance factor is the closed-form d/ds log f'^-1(s)
        eps = 1e-6
        s = s_grid(gen, n=11, span=3.0)
        fd = (np.log(gen.f_prime_inv(s + eps)) - np.log(gen.f_prime_inv(s - eps))) / (2 * eps)
        rel = np.abs(np.asarray(gen.log_ratio_deriv(s)) - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_nonnegative_on_domain(self, gen):
        assert np.all(np.asarray(gen.f_prime_inv(s_grid(gen, n=25))) >= 0.0)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_roundtrip_through_fprime(self, gen):
        for s in s_grid(gen, n=11, span=3.0):
            t = gen.f_prime_inv(s)
            assert float(gen.f_prime(t)) == pytest.approx(float(s), rel=1e-9, abs=1e-9)


class TestLink:
    def test_kl_at_half(self):
        assert link(KL, 0.5) == pytest.approx(1.0)

    def test_js_at_half(self):
        assert link(JS, 0.5) == pytest.approx(-math.log(2.0))

    def test_boundary_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                link(JS, bad)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_roundtrip(self, gen):
        for eta in np.linspace(0.02, 0.98, 30):
            assert inverse_link(gen, link(gen, float(eta))) == pytest.approx(
                float(eta), abs=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_strictly_increasing(self, gen):
        vals = [link(gen, float(e)) for e in np.linspace(0.02, 0.98, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_link_of_logit_matches_link(self, gen):
        # same map through the stable parametrization eta = sigmoid(z)
        for z in np.linspace(-4, 4, 17):
            eta = 1.0 / (1.0 + math.exp(-z))
            assert float(gen.link_of_logit(z)) == pytest.approx(link(gen, eta), rel=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_link_of_logit_deriv(self, gen):
        eps = 1e-6
        for z in np.linspace(-4, 4, 17):
            fd = (float(gen.link_of_logit(z + eps)) - float(gen.link_of_logit(z - eps))) / (2 * eps)
            assert float(gen.link_of_logit_deriv(z)) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def partial_losses(gen, eta):
    """(loss on +1, loss on -1) at prediction eta, as criterion 4 computes them."""
    z = link(gen, eta)
    return -z, float(gen.conjugate_fn(z))


class TestPartialLosses:
    def test_js_at_half(self):
        pos, neg = partial_losses(JS, 0.5)
        assert pos == pytest.approx(math.log(2.0))
        assert neg == pytest.approx(-math.log(2.0))

    def test_kl_at_half(self):
        pos, neg = partial_losses(KL, 0.5)
        assert pos == pytest.approx(-1.0)
        assert neg == pytest.approx(1.0)

    def test_js_positive_partial_is_log_loss(self):
        for eta in np.linspace(0.05, 0.95, 19):
            assert partial_losses(JS, float(eta))[0] == pytest.approx(-math.log(eta), rel=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_properness_grid_argmin(self, gen):
        t = np.linspace(1e-4, 1 - 1e-4, 20001)
        pos = -np.asarray(gen.f_prime(t / (1 - t)))
        neg = np.asarray(gen.conjugate_fn(gen.f_prime(t / (1 - t))))
        for eta in np.arange(0.1, 0.95, 0.1):
            grid_loss = eta * pos + (1 - eta) * neg
            argmin = t[int(np.argmin(grid_loss))]
            assert abs(argmin - eta) <= 2 * (t[1] - t[0])


class TestBayesPointwiseLoss:
    def test_js_at_half_zero(self):
        assert bayes_pointwise_loss(JS, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_js_at_zero_limit(self):
        assert bayes_pointwise_loss(JS, 0.0) == pytest.approx(-TWO_LOG_TWO)

    def test_kl_at_half_zero(self):
        assert bayes_pointwise_loss(KL, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("name, limit", [("kl", -math.inf), ("reverse_kl", 0.0),
                                             ("js_shifted", 0.0)])
    def test_limit_at_one(self, name, limit):
        # -f'(+inf): the sign of a zero limit is pinned too, +0.0 and not -0.0
        value = bayes_pointwise_loss(get_generator(name), 1.0)
        assert value == limit
        assert math.copysign(1.0, value) == math.copysign(1.0, limit)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_matches_grid_infimum(self, gen):
        t = np.linspace(1e-4, 1 - 1e-4, 20001)
        pos = -np.asarray(gen.f_prime(t / (1 - t)))
        neg = np.asarray(gen.conjugate_fn(gen.f_prime(t / (1 - t))))
        for eta in np.arange(0.1, 0.95, 0.1):
            grid_inf = float((eta * pos + (1 - eta) * neg).min())
            assert bayes_pointwise_loss(gen, float(eta)) == pytest.approx(grid_inf, abs=1e-6)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_concavity_on_grid(self, gen):
        eta = np.linspace(0.02, 0.98, 97)
        vals = np.array([bayes_pointwise_loss(gen, float(e)) for e in eta])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)

    def test_js_symmetry_up_to_affine_shift(self):
        # Lbar(eta) + 2 (1 - eta) log 2 is the binary entropy, symmetric
        # about 1/2; the affine part comes from the +2 log 2 shift in f.
        for eta in np.linspace(0.01, 0.99, 99):
            lhs = bayes_pointwise_loss(JS, float(eta)) + 2 * (1 - eta) * math.log(2)
            rhs = bayes_pointwise_loss(JS, float(1 - eta)) + 2 * eta * math.log(2)
            assert lhs == pytest.approx(rhs, abs=1e-12)
