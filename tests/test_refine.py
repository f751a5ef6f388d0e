"""Refined-model construction: normalizer, reweighting, score field."""

import csv
import math

import numpy as np
import pytest

from season.discriminator import (
    TabularDiscriminator,
    TrainConfig,
    exact_tabular,
    init_discriminator,
    train,
    zero_discriminator,
)
from season.distributions import DiscreteDistribution, gaussian_mixture
from season.errors import DegenerateDistributionError, DomainError, LambdaSolveError
from season.generators import GENERATOR_NAMES, get_generator, link
from season.refine import (
    export_refined_csv,
    refine_continuous,
    refine_discrete,
    refined_density_unnormalized,
    refined_score,
    solve_lambda,
)

KL = get_generator("kl")
JS = get_generator("js_shifted")
ALL = [get_generator(n) for n in GENERATOR_NAMES]


def random_pair(rng, k, floor=0.05):
    support = rng.standard_normal((k, 1))
    wn = rng.uniform(floor, 1, k); wn /= wn.sum()
    wm = rng.uniform(floor, 1, k); wm /= wm.sum()
    return DiscreteDistribution(support, wn), DiscreteDistribution(support, wm)


class TestSolveLambda:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_neutral_constant_gives_zero(self, gen):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        tab = TabularDiscriminator(mu.support, np.full(2, float(gen.f_prime(1.0))))
        assert solve_lambda(tab, gen, mu) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_tabular_optimum_gives_zero(self, gen):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nu, mu = random_pair(rng, int(rng.integers(2, 7)))
            tab = exact_tabular(nu, mu, gen)
            assert abs(solve_lambda(tab, gen, mu)) <= 1e-10

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_translation_equivariance(self, gen):
        rng = np.random.default_rng(1)
        nu, mu = random_pair(rng, 4)
        tab = exact_tabular(nu, mu, gen)
        lam0 = solve_lambda(tab, gen, mu)
        for c in rng.uniform(-2, 2, 10):
            lam_c = solve_lambda(tab.shifted(float(c)), gen, mu)
            assert lam_c == pytest.approx(lam0 + float(c), abs=1e-9)

    def test_degenerate_all_minus_inf(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        tab = TabularDiscriminator(mu.support, np.array([-math.inf, -math.inf]))
        with pytest.raises(DegenerateDistributionError):
            solve_lambda(tab, KL, mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_h_raises(self, bad):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        tab = TabularDiscriminator(mu.support, np.array([-0.5, bad]))
        for gen in ALL:
            with pytest.raises(LambdaSolveError):
                solve_lambda(tab, gen, mu)

    def test_monte_carlo_tolerance(self):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=3)
        batch = model.sample(0, 20_000)
        lam = solve_lambda(disc, JS, batch)
        h = disc.h_batch(batch)
        assert abs(float(np.mean(JS.f_prime_inv(h - lam))) - 1.0) <= 1e-6


class TestRefineDiscrete:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_rich_recovery(self, gen):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            nu, mu = random_pair(rng, k)
            tab = exact_tabular(nu, mu, gen)
            refined = refine_discrete(mu, tab, gen)
            tv = 0.5 * float(np.abs(refined.weights - nu.weights).sum())
            assert tv <= 1e-10

    def test_constant_disc_returns_mu(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0], [2.0]]),
                                  np.array([0.2, 0.3, 0.5]))
        for gen in ALL:
            tab = TabularDiscriminator(mu.support, np.full(3, float(gen.f_prime(1.0))))
            refined = refine_discrete(mu, tab, gen)
            assert np.allclose(refined.weights, mu.weights, atol=1e-12)

    def test_js_class_probability_example_with_heuristic_lambda(self):
        # eta = (2/3, 1/3) means odds (2, 1/2); renormalizing mu * odds
        # with lambda = 0 gives (4/5, 1/5)
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        h = np.array([link(JS, 2.0 / 3.0), link(JS, 1.0 / 3.0)])
        tab = TabularDiscriminator(mu.support, h)
        ratios = np.asarray(JS.f_prime_inv(h))
        assert np.allclose(ratios, [2.0, 0.5], atol=1e-12)
        refined = refine_discrete(mu, tab, JS, lam=0.0)
        assert np.allclose(refined.weights, [0.8, 0.2], atol=1e-12)

    def test_idempotence_at_optimum(self):
        rng = np.random.default_rng(3)
        for gen in ALL:
            nu, mu = random_pair(rng, 5)
            first = refine_discrete(mu, exact_tabular(nu, mu, gen), gen)
            tab2 = exact_tabular(nu, first, gen)
            # the fresh optimum against the same target is the neutral constant
            assert np.allclose(tab2.values, float(gen.f_prime(1.0)), atol=1e-7)
            second = refine_discrete(first, tab2, gen)
            tv = 0.5 * float(np.abs(second.weights - nu.weights).sum())
            assert tv <= 1e-9

    def test_ratio_zero_point_dropped(self):
        nu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = exact_tabular(nu, mu, KL)
        assert tab.values[1] == -math.inf
        refined = refine_discrete(mu, tab, KL)
        assert np.allclose(refined.weights, [1.0, 0.0], atol=1e-12)

    def test_degenerate_error(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = TabularDiscriminator(mu.support, np.array([-np.inf, -np.inf]))
        with pytest.raises(DegenerateDistributionError):
            refine_discrete(mu, tab, KL, lam=0.0)


class TestRefinedScore:
    def test_constant_disc_keeps_base_score(self):
        model = gaussian_mixture([[0.5]], [[[0.7]]], [1.0])
        disc = zero_discriminator(JS, dim=1)
        x = np.linspace(-2, 2, 21)[:, None]
        assert np.allclose(refined_score(model.score, disc, JS, x), model.score(x),
                           atol=1e-12)

    def test_kl_guidance_is_plain_input_gradient(self):
        from season.discriminator import input_grad

        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(KL, 1, 8, seed=4)
        x = np.linspace(-2, 2, 31)[:, None]
        got = refined_score(model.score, disc, KL, x)
        assert np.allclose(got, model.score(x) + input_grad(disc, x), atol=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_matches_log_density_finite_differences(self, gen):
        model = gaussian_mixture([[-1.0], [1.5]], [[[0.5]], [[0.8]]], [0.4, 0.6])
        disc = init_discriminator(gen, 1, 8, seed=5)
        disc.bias = -0.2 if math.isfinite(gen.conjugate_domain[1]) else 0.3
        x = np.linspace(-2.5, 2.5, 100)[:, None]
        lam = 0.05
        score = refined_score(model.score, disc, gen, x, lam=lam)
        eps = 1e-6
        up = np.log(refined_density_unnormalized(model, disc, gen, x + eps, lam=lam))
        down = np.log(refined_density_unnormalized(model, disc, gen, x - eps, lam=lam))
        fd = (up - down) / (2 * eps)
        rel = np.abs(score[:, 0] - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= 1e-4

    def test_domain_boundary_reported_with_location(self):
        disc = zero_discriminator(JS, dim=1)
        disc.bias = 2.0  # pushes h to f'(1) + 2 > 0, outside the range of f'
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        with pytest.raises(DomainError):
            refined_score(model.score, disc, JS, np.zeros((1, 1)))


class TestRefinedDensity:
    def test_kl_exponential_tilt_form(self):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(KL, 1, 6, seed=6)
        x = np.linspace(-3, 3, 41)[:, None]
        lam = 0.3
        got = refined_density_unnormalized(model, disc, KL, x, lam=lam)
        h = disc.h_batch(x)
        expected = np.exp(model.log_density(x)) * np.exp(h - lam - 1.0)
        assert np.allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_quadrature_mass_after_lambda(self, gen):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(gen, 1, 8, seed=7)
        if math.isfinite(gen.conjugate_domain[1]):
            disc.bias = -0.1
        batch = model.sample(1, 200_000)
        lam = solve_lambda(disc, gen, batch)
        x = np.linspace(-9, 9, 120_001)[:, None]
        dens = refined_density_unnormalized(model, disc, gen, x, lam=lam)
        mass = float(np.trapezoid(dens, x[:, 0]))
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_constant_disc_distribution_unchanged(self):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = zero_discriminator(KL, dim=1)
        x = np.linspace(-3, 3, 11)[:, None]
        dens = refined_density_unnormalized(model, disc, KL, x, lam=0.0)
        ratio = dens / np.exp(model.log_density(x))
        assert np.allclose(ratio, ratio[0])


class TestRefineContinuous:
    def test_residual_recorded_within_tolerance(self):
        model = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=8)
        refined = refine_continuous(model, disc, JS, n_mc=20_000, seed=0)
        assert refined.mc_residual <= 1e-6
        assert refined.mc_se > 0
        x = np.zeros((3, 1))
        assert refined.score(x).shape == (3, 1)


class TestExportCSV:
    def test_roundtrip_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        support = rng.standard_normal((3, 1))
        nu = DiscreteDistribution(support, np.array([0.2, 0.5, 0.3]))
        mu = DiscreteDistribution(support, np.array([0.4, 0.4, 0.2]))
        tab = exact_tabular(nu, mu, JS)
        path = tmp_path / "refined.csv"
        export_refined_csv(path, mu, tab, JS)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "base_weight", "ratio", "refined_weight"]
        refined_w = np.array([float(r[3]) for r in rows[1:]])
        assert np.allclose(refined_w, nu.weights, atol=1e-10)

    def test_zero_mass_raises(self, tmp_path):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = TabularDiscriminator(mu.support, np.array([-np.inf, -np.inf]))
        with pytest.raises(DegenerateDistributionError):
            export_refined_csv(tmp_path / "refined.csv", mu, tab, KL, lam=0.0)
