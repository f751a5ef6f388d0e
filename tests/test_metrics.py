"""Divergence estimators, capacity terms, and bound calculators."""

import math

import numpy as np
import pytest

from season.discriminator import (
    Discriminator,
    TabularDiscriminator,
    exact_tabular,
    init_discriminator,
)
from season.distributions import DiscreteDistribution, gaussian_mixture
from season.errors import DomainError
from season.generators import GENERATOR_NAMES, TWO_LOG_TWO, get_generator
from season.metrics import (
    BoundReport,
    ConvergenceBoundInputs,
    convergence_bound,
    est_DfH,
    est_gain_direct,
    est_gain_pushforward,
    exact_fdiv,
    fdiv_kl_lemma_check,
    ipm_at_witness,
    ipm_tabular_exact,
    slow_rate_term,
    vi_duality_check,
)
from season.oracle import HSpec, primal_sup_tabular, simplex_grid
from season.refine import refine_discrete, solve_lambda

KL = get_generator("kl")
RKL = get_generator("reverse_kl")
JS = get_generator("js_shifted")
ALL = [get_generator(n) for n in GENERATOR_NAMES]


def two_point(w0, w1):
    return DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([w0, w1]))


def random_pair(rng, k, floor=0.05):
    support = rng.standard_normal((k, 1))
    wn = rng.uniform(floor, 1, k); wn /= wn.sum()
    wm = rng.uniform(floor, 1, k); wm /= wm.sum()
    return DiscreteDistribution(support, wn), DiscreteDistribution(support, wm)


class TestExactFdiv:
    def test_equal_distributions_zero(self):
        d = two_point(0.3, 0.7)
        for gen in ALL:
            assert exact_fdiv(d, d, gen) == pytest.approx(0.0, abs=1e-15)

    def test_kl_two_point_example(self):
        nu, mu = two_point(0.5, 0.5), two_point(0.25, 0.75)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert exact_fdiv(nu, mu, KL) == pytest.approx(expected, abs=1e-12)
        assert exact_fdiv(nu, mu, KL) == pytest.approx(0.143841, abs=1e-6)

    def test_js_below_kl(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nu, mu = random_pair(rng, int(rng.integers(2, 6)))
            assert exact_fdiv(nu, mu, JS) <= exact_fdiv(nu, mu, KL) + 1e-12

    def test_absolute_continuity_gives_inf(self):
        nu = DiscreteDistribution(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        mu = two_point(0.25, 0.75)
        assert exact_fdiv(nu, mu, KL) == math.inf

    def test_argument_order_swap_identity(self):
        # I_kl(nu : mu) = I_rkl(mu : nu) holds exactly on shared supports
        rng = np.random.default_rng(1)
        for _ in range(50):
            nu, mu = random_pair(rng, 3)
            assert exact_fdiv(nu, mu, KL) == pytest.approx(
                exact_fdiv(mu, nu, RKL), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nu, mu = random_pair(rng, 4)
            for gen in ALL:
                assert exact_fdiv(nu, mu, gen) >= -1e-14


class TestGainEstimators:
    def test_constant_disc_zero_gain(self):
        mu = two_point(0.4, 0.6)
        for gen in ALL:
            tab = TabularDiscriminator(gen, mu.support, np.full(2, float(gen.f_prime(1.0))))
            assert est_gain_direct(tab, mu).value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_tabular_optimum_equals_exact_fdiv(self, gen):
        rng = np.random.default_rng(3)
        for _ in range(10):
            nu, mu = random_pair(rng, int(rng.integers(2, 6)))
            tab = exact_tabular(nu, mu, gen)
            got = est_gain_direct(tab, mu).value
            assert got == pytest.approx(exact_fdiv(nu, mu, gen), abs=1e-9)

    def test_mc_estimate_matches_quadrature_oracle(self):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=4)
        batch = model.sample(5, 10_000)
        est = est_gain_direct(disc, batch)
        lam = solve_lambda(disc, JS, batch)
        x = np.linspace(-9, 9, 80_001)[:, None]
        integrand = np.exp(model.log_density(x)) * np.asarray(
            JS.f(np.asarray(JS.f_prime_inv(disc.h_batch(x) - lam))))
        oracle = float(np.trapezoid(integrand, x[:, 0]))
        assert abs(est.value - oracle) <= 3 * est.stderr + 1e-3

    @pytest.mark.parametrize("estimator", [est_gain_direct, est_gain_pushforward])
    def test_1d_batch_is_points_on_the_line(self, estimator):
        disc = init_discriminator(JS, 1, 8, seed=4)
        batch = np.random.default_rng(6).standard_normal(50)
        assert estimator(disc, batch) == estimator(disc, batch[:, None])

    def test_pushforward_neutral_eta_is_zero(self):
        disc = Discriminator(JS, 1, 4)
        batch = np.random.default_rng(6).standard_normal((500, 1))
        est = est_gain_pushforward(disc, batch)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_pushforward_eta_near_zero_approaches_two_log_two(self):
        disc = Discriminator(JS, 1, 4)
        disc.bias = -12.0  # h very negative, eta almost 0
        batch = np.random.default_rng(7).standard_normal((500, 1))
        est = est_gain_pushforward(disc, batch)
        assert est.value == pytest.approx(TWO_LOG_TWO, abs=1e-3)

    @pytest.mark.parametrize("estimator", [est_gain_direct, est_gain_pushforward])
    def test_net_on_finite_mu_is_exact_weighted_sum(self, estimator):
        disc = init_discriminator(JS, 1, 8, seed=4)
        support = np.array([[-1.0], [1.0]])
        got = []
        for w in ([0.9, 0.1], [0.1, 0.9]):
            mu = DiscreteDistribution(support, np.array(w))
            h = disc.h_batch(support)
            if estimator is est_gain_direct:
                h = h - solve_lambda(disc, JS, mu)
            r = np.asarray(JS.f_prime_inv(h))
            expected = float(mu.weights @ np.asarray(JS.f(r)))
            est = estimator(disc, mu)
            assert est.value == pytest.approx(expected, abs=1e-12)
            assert est.stderr == 0.0 and est.n == 2
            got.append(est.value)
        assert got[0] != got[1]

    def test_direct_and_pushforward_identical_at_lambda_zero(self):
        # same formula once lambda = 0; check on a tabular optimum
        rng = np.random.default_rng(8)
        nu, mu = random_pair(rng, 4)
        tab = exact_tabular(nu, mu, JS)
        direct = est_gain_direct(tab, mu).value
        h = tab.h_for(mu)
        r = np.asarray(JS.f_prime_inv(h))
        eta = r / (1 + r)
        push = float(mu.weights @ np.asarray(JS.f(eta / (1 - eta))))
        assert direct == pytest.approx(push, abs=1e-9)


class TestDfH:
    def test_tabular_equals_exact_fdiv(self):
        rng = np.random.default_rng(9)
        for gen in ALL:
            nu, mu = random_pair(rng, 4)
            tab = exact_tabular(nu, mu, gen)
            assert est_DfH(tab, nu, mu).value == pytest.approx(
                exact_fdiv(nu, mu, gen), abs=1e-12)

    def test_bounded_by_ipm_and_fdiv(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            nu, mu = random_pair(rng, 3, floor=0.15)
            for gen in ALL:
                primal, _ = primal_sup_tabular(nu, mu, gen, HSpec("ball", 0.5))
                assert primal <= ipm_tabular_exact(nu, mu, 0.5) + 1e-9
                assert primal <= exact_fdiv(nu, mu, gen) + 1e-9

    def test_equal_distributions_zero_at_optimum(self):
        d = two_point(0.5, 0.5)
        for gen in ALL:
            tab = exact_tabular(d, d, gen)
            assert est_DfH(tab, d, d).value == pytest.approx(0.0, abs=1e-14)

    def test_batch_mode_reports_stderr(self):
        rng = np.random.default_rng(11)
        disc = init_discriminator(JS, 1, 6, seed=1)
        est = est_DfH(disc, rng.standard_normal((400, 1)) + 0.5,
                      rng.standard_normal((400, 1)))
        assert est.stderr > 0 and math.isfinite(est.value)

    def test_finite_nu_with_batch_mu_keeps_nu_weights(self):
        disc = init_discriminator(JS, 1, 6, seed=1)
        support = np.array([[-1.0], [1.0]])
        mu_batch = np.random.default_rng(12).standard_normal((400, 1))
        conj = np.asarray(JS.conjugate_fn(disc.h_batch(mu_batch)))
        got = []
        for w in ([0.9, 0.1], [0.1, 0.9]):
            nu = DiscreteDistribution(support, np.array(w))
            est = est_DfH(disc, nu, mu_batch)
            expected = float(nu.weights @ disc.h_batch(support)) - float(conj.mean())
            assert est.value == pytest.approx(expected, abs=1e-12)
            # only the batch side carries Monte Carlo error
            assert est.stderr == pytest.approx(float(conj.std(ddof=1)) / 20.0, rel=1e-12)
            assert est.n == 400
            got.append(est.value)
        assert got[0] != got[1]


class TestIPM:
    def test_equal_distributions_zero(self):
        d = two_point(0.5, 0.5)
        assert ipm_tabular_exact(d, d) == 0.0

    def test_tabular_matches_sign_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            nu, mu = random_pair(rng, int(rng.integers(2, 5)))
            norm = float(rng.uniform(0.5, 2.0))
            # brute force over every +-norm assignment
            k = nu.n
            best = -math.inf
            for bits in range(1 << k):
                h = np.array([norm if bits >> i & 1 else -norm for i in range(k)])
                best = max(best, float((nu.weights - mu.weights) @ h))
            assert ipm_tabular_exact(nu, mu, norm) == pytest.approx(best, abs=1e-12)
            l1 = float(np.abs(nu.weights - mu.weights).sum())
            assert ipm_tabular_exact(nu, mu, norm) == pytest.approx(norm * l1)

    def test_witness_ipm_zero_at_refined_optimum(self):
        rng = np.random.default_rng(13)
        nu, mu = random_pair(rng, 4)
        tab = exact_tabular(nu, mu, JS)
        refined = refine_discrete(mu, tab)
        assert abs(ipm_at_witness(tab.values, nu, refined)) <= 1e-12


class TestBoundAssembly:
    @pytest.mark.parametrize("norm_H", [math.nan, math.inf, -1.0])
    def test_slow_rate_needs_a_finite_nonnegative_norm(self, norm_H):
        with pytest.raises(DomainError, match="norm_H must be finite and nonnegative"):
            slow_rate_term(norm_H, 0.05, 10)

    def test_slow_rate_reference_value(self):
        # 2 sqrt(ln 20 / 400) = 0.17308183826022852, i.e. 0.173082 at 6 dp
        exact = 2.0 * math.sqrt(math.log(20.0) / 400.0)
        assert slow_rate_term(1.0, 0.05, 200) == pytest.approx(exact, abs=1e-15)
        assert slow_rate_term(1.0, 0.05, 200) == pytest.approx(0.173082, abs=1e-6)

    def test_report_holds_flag(self):
        terms = dict(D_fH=0.3, gain_If=0.05, rademacher=0.1,
                     slow_rate=slow_rate_term(1.0, 0.05, 200), delta=0.05, n=200, norm_H=1.0)
        rep = BoundReport(d_H_lhs=0.1, **terms)
        assert rep.slow_rate == pytest.approx(0.173082, abs=1e-6)
        assert rep.holds  # 0.1 <= 0.3 - 0.05 + 0.1 + 0.173
        assert not BoundReport(d_H_lhs=1.0, **terms).holds
        d = rep.to_dict()
        assert set(d) == {"d_H_lhs", "D_fH", "gain_If", "rademacher", "slow_rate", "rhs",
                          "delta", "n", "norm_H", "tol", "holds"}
        assert d["rhs"] == rep.rhs and d["tol"] == 1e-9 and d["holds"] is True

    def test_convergence_bound_zero_inputs(self):
        inp = ConvergenceBoundInputs(0.0, 0.0, 0.0, 1, 2.0, 10, 1.0, 0.0)
        assert convergence_bound(inp) == 0.0

    def test_convergence_bound_algebraic_point(self):
        # pick eps^2 = 1/T with L = 0: bound is 1 - e^-1 plus the gap
        T = 2.0
        inp = ConvergenceBoundInputs(math.sqrt(1.0 / T), 0.0, 0.0, 1, T, 10, 1.0, 0.25)
        assert convergence_bound(inp) == pytest.approx(1.0 - math.exp(-1.0) + 0.25, rel=1e-12)

    def test_convergence_bound_monotone_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            base = ConvergenceBoundInputs(
                eps_theta=float(rng.uniform(0, 2)), L=float(rng.uniform(0, 2)),
                m2=float(rng.uniform(0, 2)), d=int(rng.integers(1, 3)),
                T=float(rng.uniform(0.5, 3)), K=int(rng.integers(5, 50)),
                norm_H=float(rng.uniform(0.5, 2)), forward_gap_If=float(rng.uniform(0, 1)))
            v0 = convergence_bound(base)
            for fld in ("eps_theta", "L", "m2"):
                kw = dict(base.__dict__)
                kw[fld] = getattr(base, fld) + float(rng.uniform(0.01, 1.0))
                assert convergence_bound(ConvergenceBoundInputs(**kw)) >= v0 - 1e-12

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            ConvergenceBoundInputs(-0.1, 0.0, 0.0, 1, 1.0, 10, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["eps_theta", "L", "m2", "T", "norm_H", "forward_gap_If"])
    def test_nonfinite_inputs_rejected(self, name, value):
        kw = dict(eps_theta=0.1, L=0.5, m2=1.0, d=1, T=2.0, K=10, norm_H=1.0,
                  forward_gap_If=0.0)
        kw[name] = value
        with pytest.raises(DomainError, match="finite"):
            ConvergenceBoundInputs(**kw)


class TestLemmaChecks:
    def test_equal_distributions_trivial(self):
        d = two_point(0.5, 0.5)
        for gen in ALL:
            res = fdiv_kl_lemma_check(d, d, gen)
            assert res.lhs == pytest.approx(0.0, abs=1e-15)
            assert res.rhs == pytest.approx(0.0, abs=1e-12)
            assert res.lhs <= res.rhs + 1e-12

    def test_random_four_point_pairs_always_hold(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            nu, mu = random_pair(rng, 4)
            for gen in ALL:
                res = fdiv_kl_lemma_check(nu, mu, gen)
                assert res.lhs <= res.rhs + 1e-12


class TestVIDuality:
    def test_zero_loss_gives_prior(self):
        mu = two_point(0.5, 0.5)
        res = vi_duality_check(mu, [0.0, 0.0])
        assert res.lhs == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(res.gibbs.weights, mu.weights)
        assert res.residual <= 1e-10

    def test_two_point_example(self):
        mu = two_point(0.5, 0.5)
        res = vi_duality_check(mu, [0.0, math.log(2.0)])
        assert res.lhs == pytest.approx(math.log(0.75), abs=1e-14)
        assert np.allclose(res.gibbs.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        assert res.residual <= 1e-10

    def test_random_instances_residual(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            nu, _ = random_pair(rng, int(rng.integers(2, 6)))
            res = vi_duality_check(nu, rng.uniform(-2, 2, nu.n))
            assert res.residual <= 1e-10

    def test_grid_confirms_gibbs_minimizer(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            mu, _ = random_pair(rng, 3, floor=0.15)
            L = rng.uniform(-1, 1, 3)
            res = vi_duality_check(mu, L)
            grid = simplex_grid()
            interior = grid[np.all(grid > 0, axis=1)]
            obj = (interior @ L) + np.asarray([
                float(np.sum(q * np.log(q / mu.weights))) for q in interior])
            assert obj.min() >= res.rhs - 1e-12
            argmin = interior[int(np.argmin(obj))]
            tv = 0.5 * float(np.abs(argmin - res.gibbs.weights).sum())
            assert tv <= 0.03
