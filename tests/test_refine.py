"""Refined-model construction: normalizer, reweighting, score field."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from season.discriminator import (
    Discriminator,
    TabularDiscriminator,
    exact_tabular,
    init_discriminator,
    input_grad,
)
from season.distributions import DiscreteDistribution, GaussianMixture
from season.errors import DegenerateDistributionError, DomainError, LambdaSolveError
from season.experiments import random_discrete_pair
from season.generators import GENERATOR_NAMES, get_generator, link
from season.metrics import est_DfH, est_gain_direct, est_gain_pushforward, exact_fdiv
from season.oracle import HSpec, primal_sup_tabular
from season.refine import (
    RefinedModel,
    _brentq,
    _refined_weights,
    _solve_lambda,
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
RKL = get_generator("reverse_kl")


@pytest.fixture
def forward_rows(monkeypatch):
    """Row count of every net forward pass."""
    calls = []
    original = Discriminator._forward_full

    def counting(disc, x):
        calls.append(len(x))
        return original(disc, x)

    monkeypatch.setattr(Discriminator, "_forward_full", counting)
    return calls


class TestSolveLambda:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_neutral_constant_gives_zero(self, gen):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        tab = TabularDiscriminator(gen, mu.support, np.full(2, float(gen.f_prime(1.0))))
        assert solve_lambda(tab, gen, mu) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_tabular_optimum_gives_zero(self, gen):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nu, mu = random_discrete_pair(rng, int(rng.integers(2, 7)))
            tab = exact_tabular(nu, mu, gen)
            assert abs(solve_lambda(tab, gen, mu)) <= 1e-10

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_tabular_optimum_solves_in_few_evaluations(self, gen):
        # each E - 1 evaluation calls f_prime_inv once; at an exact optimum the
        # bracket ends at lambda = 0, the root, so Brent's method needs few steps
        calls = []

        def counted(s, inv=gen.f_prime_inv):
            calls.append(1)
            return inv(s)

        gen = replace(gen, f_prime_inv=counted)
        rng = np.random.default_rng(0)
        for _ in range(20):
            nu, mu = random_discrete_pair(rng, int(rng.integers(2, 7)))
            tab = exact_tabular(nu, mu, gen)
            calls.clear()
            solve_lambda(tab, gen, mu)
            assert len(calls) <= 6

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_translation_equivariance(self, gen):
        rng = np.random.default_rng(1)
        nu, mu = random_discrete_pair(rng, 4)
        tab = exact_tabular(nu, mu, gen)
        lam0 = solve_lambda(tab, gen, mu)
        for c in rng.uniform(-2, 2, 10):
            shifted = TabularDiscriminator(gen, tab.support, tab.values + float(c))
            lam_c = solve_lambda(shifted, gen, mu)
            assert lam_c == pytest.approx(lam0 + float(c), abs=1e-9)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    @pytest.mark.parametrize("junk", [0.3, math.inf, math.nan])
    def test_zero_weight_point_is_left_out_bit_for_bit(self, gen, junk):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            nu, mu = random_discrete_pair(rng, k)
            h = exact_tabular(nu, mu, gen).h_for(mu)
            j = int(rng.integers(0, k + 1))  # where the zero-weight point goes
            padded = DiscreteDistribution(np.insert(mu.support, j, 9.0, axis=0),
                                          np.insert(mu.weights, j, 0.0))
            assert (_solve_lambda(gen, np.insert(h, j, junk), padded)
                    == _solve_lambda(gen, h, mu))

    def test_degenerate_all_minus_inf(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        tab = TabularDiscriminator(KL, mu.support, np.array([-math.inf, -math.inf]))
        with pytest.raises(DegenerateDistributionError):
            solve_lambda(tab, KL, mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_h_raises(self, bad):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        for gen in ALL:
            tab = TabularDiscriminator(gen, mu.support, np.array([-0.5, bad]))
            with pytest.raises(LambdaSolveError):
                solve_lambda(tab, gen, mu)

    def test_monte_carlo_tolerance(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=3)
        batch = model.sample(0, 20_000)
        lam = solve_lambda(disc, JS, batch)
        h = disc.h_batch(batch)
        assert abs(float(np.mean(JS.f_prime_inv(h - lam))) - 1.0) <= 1e-6

    def test_1d_batch_is_points_on_the_line(self):
        disc = init_discriminator(JS, 1, 8, seed=3)
        batch = np.random.default_rng(4).standard_normal(50)
        assert solve_lambda(disc, JS, batch) == solve_lambda(disc, JS, batch[:, None])

    @pytest.mark.parametrize("call", [
        lambda model, disc, empty: solve_lambda(disc, JS, empty),
        lambda model, disc, empty: refine_continuous(model, disc, JS, n_mc=0),
        lambda model, disc, empty: refined_score(model.score, disc, empty),
        lambda model, disc, empty: est_gain_direct(disc, empty),
        lambda model, disc, empty: est_gain_pushforward(disc, empty),
        lambda model, disc, empty: est_DfH(disc, empty, model.sample(0, 50)),
    ], ids=["solve_lambda", "refine_continuous", "refined_score", "est_gain_direct",
            "est_gain_pushforward", "est_DfH"])
    def test_empty_sample_batch_is_a_domain_error(self, call):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 4, seed=0)
        with pytest.raises(DomainError, match="sample batches need at least one row"):
            call(model, disc, np.empty((0, 1)))


class TestRefineDiscrete:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_rich_recovery(self, gen):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            nu, mu = random_discrete_pair(rng, k)
            tab = exact_tabular(nu, mu, gen)
            refined = refine_discrete(mu, tab)
            tv = 0.5 * float(np.abs(refined.weights - nu.weights).sum())
            assert tv <= 1e-10

    def test_constant_disc_returns_mu(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0], [2.0]]),
                                  np.array([0.2, 0.3, 0.5]))
        for gen in ALL:
            tab = TabularDiscriminator(gen, mu.support, np.full(3, float(gen.f_prime(1.0))))
            refined = refine_discrete(mu, tab)
            assert np.allclose(refined.weights, mu.weights, atol=1e-12)

    def test_js_class_probability_example_with_heuristic_lambda(self):
        # eta = (2/3, 1/3) means odds (2, 1/2); renormalizing mu * odds
        # with lambda = 0 gives (4/5, 1/5)
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        h = np.array([link(JS, 2.0 / 3.0), link(JS, 1.0 / 3.0)])
        tab = TabularDiscriminator(JS, mu.support, h)
        ratios = np.asarray(JS.f_prime_inv(h))
        assert np.allclose(ratios, [2.0, 0.5], atol=1e-12)
        refined = refine_discrete(mu, tab, lam=0.0)
        assert np.allclose(refined.weights, [0.8, 0.2], atol=1e-12)

    def test_idempotence_at_optimum(self):
        rng = np.random.default_rng(3)
        for gen in ALL:
            nu, mu = random_discrete_pair(rng, 5)
            first = refine_discrete(mu, exact_tabular(nu, mu, gen))
            tab2 = exact_tabular(nu, first, gen)
            # the fresh optimum against the same target is the neutral constant
            assert np.allclose(tab2.values, float(gen.f_prime(1.0)), atol=1e-7)
            second = refine_discrete(first, tab2)
            tv = 0.5 * float(np.abs(second.weights - nu.weights).sum())
            assert tv <= 1e-9

    def test_ratio_zero_point_dropped(self):
        nu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = exact_tabular(nu, mu, KL)
        assert tab.values[1] == -math.inf
        refined = refine_discrete(mu, tab)
        assert np.allclose(refined.weights, [1.0, 0.0], atol=1e-12)

    def test_degenerate_error(self):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = TabularDiscriminator(KL, mu.support, np.array([-np.inf, -np.inf]))
        with pytest.raises(DegenerateDistributionError):
            refine_discrete(mu, tab, lam=0.0)


class TestGeneratorFromDiscriminator:
    """Refinement reads f from the discriminator, the f its h was fitted under."""

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_three_point_optimum_recovers_nu(self, gen, tmp_path):
        # With a separate gen argument, kl next to the js_shifted optimum refined
        # mu to (0.414, 0.327, 0.259) and gave a gain of 0.0182 for 0.0345.
        support = np.array([[0.0], [1.0], [2.0]])
        nu = DiscreteDistribution(support, np.array([0.5, 0.3, 0.2]))
        mu = DiscreteDistribution(support, np.full(3, 1.0 / 3.0))
        tab = exact_tabular(nu, mu, gen)
        refined = refine_discrete(mu, tab)
        assert 0.5 * float(np.abs(refined.weights - nu.weights).sum()) <= 1e-10
        assert est_gain_direct(tab, mu).value == pytest.approx(exact_fdiv(nu, mu, gen),
                                                               abs=1e-12)
        path = tmp_path / "refined.csv"
        export_refined_csv(path, mu, tab)
        with open(path) as fh:
            written = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
        assert np.array_equal(written, refined.weights)


class TestRefinedScore:
    def test_constant_disc_keeps_base_score(self):
        model = GaussianMixture([[0.5]], [[[0.7]]], [1.0])
        disc = Discriminator(JS, 1, 4)
        x = np.linspace(-2, 2, 21)[:, None]
        assert np.allclose(refined_score(model.score, disc, x), model.score(x),
                           atol=1e-12)

    def test_kl_guidance_is_plain_input_gradient(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(KL, 1, 8, seed=4)
        x = np.linspace(-2, 2, 31)[:, None]
        got = refined_score(model.score, disc, x)
        assert np.allclose(got, model.score(x) + input_grad(disc, x)[1], atol=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_matches_log_density_finite_differences(self, gen):
        model = GaussianMixture([[-1.0], [1.5]], [[[0.5]], [[0.8]]], [0.4, 0.6])
        disc = init_discriminator(gen, 1, 8, seed=5)
        disc.bias = -0.2 if math.isfinite(gen.conjugate_domain[1]) else 0.3
        x = np.linspace(-2.5, 2.5, 100)[:, None]
        lam = 0.05
        score = refined_score(model.score, disc, x, lam=lam)
        eps = 1e-6
        up = np.log(refined_density_unnormalized(model, disc, x + eps, lam=lam))
        down = np.log(refined_density_unnormalized(model, disc, x - eps, lam=lam))
        fd = (up - down) / (2 * eps)
        rel = np.abs(score[:, 0] - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= 1e-4

    def test_one_forward_pass_per_call(self, forward_rows):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=4)
        refined_score(model.score, disc, np.linspace(-2, 2, 31)[:, None], lam=0.1)
        assert forward_rows == [31]

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_bit_identical_to_two_pass_formula(self, gen):
        model = GaussianMixture([[-1.0], [1.5]], [[[0.5]], [[0.8]]], [0.4, 0.6])
        disc = init_discriminator(gen, 1, 8, seed=5)
        disc.bias = -0.2 if math.isfinite(gen.conjugate_domain[1]) else 0.3
        x = np.linspace(-2.5, 2.5, 100)[:, None]
        lam = 0.05
        factor = np.asarray(gen.log_ratio_deriv(disc.h_batch(x) - lam))
        expected = model.score(x) + factor[:, None] * input_grad(disc, x)[1]
        assert np.array_equal(refined_score(model.score, disc, x, lam=lam), expected)

    def test_1d_batch_is_points_on_the_line(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=4)
        x = np.linspace(-1, 1, 5)
        for fn, base in ((refined_score, model.score), (refined_density_unnormalized, model)):
            assert np.array_equal(fn(base, disc, x, lam=0.1),
                                  fn(base, disc, x[:, None], lam=0.1))

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_nan_point_fails_the_domain_check(self, gen):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(gen, 1, 8, seed=4)
        with pytest.raises(DomainError, match=r"h - lambda = nan at x = \[nan\]"):
            refined_score(model.score, disc, np.array([np.nan, 0.3]), lam=0.0)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_nan_lambda_fails_the_domain_check(self, gen):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(gen, 1, 8, seed=4)
        refined = RefinedModel(disc=disc, lambda_h=math.nan, base=model)
        with pytest.raises(DomainError, match=r"h - lambda = nan at x = \[-2\.\]"):
            refined.score(np.linspace(-2.0, 2.0, 5))

    def test_domain_boundary_reported_with_location(self):
        disc = Discriminator(JS, 1, 4)
        disc.bias = 2.0  # pushes h to f'(1) + 2 > 0, outside the range of f'
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        with pytest.raises(DomainError):
            refined_score(model.score, disc, np.zeros((1, 1)), lam=0.0)

    def test_lambda_solved_on_the_batch_by_default(self):
        disc = init_discriminator(JS, 1, 8, seed=4)
        disc.bias = 2.0
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        x = np.linspace(-2, 2, 31)[:, None]
        lam = solve_lambda(disc, JS, x)
        assert np.array_equal(refined_score(model.score, disc, x),
                              refined_score(model.score, disc, x, lam=lam))


class TestRefinedDensity:
    def test_kl_exponential_tilt_form(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(KL, 1, 6, seed=6)
        x = np.linspace(-3, 3, 41)[:, None]
        lam = 0.3
        got = refined_density_unnormalized(model, disc, x, lam=lam)
        h = disc.h_batch(x)
        expected = np.exp(model.log_density(x)) * np.exp(h - lam - 1.0)
        assert np.allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_quadrature_mass_after_lambda(self, gen):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(gen, 1, 8, seed=7)
        if math.isfinite(gen.conjugate_domain[1]):
            disc.bias = -0.1
        batch = model.sample(1, 200_000)
        lam = solve_lambda(disc, gen, batch)
        x = np.linspace(-9, 9, 120_001)[:, None]
        dens = refined_density_unnormalized(model, disc, x, lam=lam)
        mass = float(np.trapezoid(dens, x[:, 0]))
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_constant_disc_distribution_unchanged(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = Discriminator(KL, 1, 4)
        x = np.linspace(-3, 3, 11)[:, None]
        dens = refined_density_unnormalized(model, disc, x, lam=0.0)
        ratio = dens / np.exp(model.log_density(x))
        assert np.allclose(ratio, ratio[0])

    def test_point_outside_the_range_of_f_prime_fails_as_in_refined_score(self):
        # h - lam > 0 = sup dom f* at x = 1, where f'^-1 is negative for js_shifted
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 4, seed=0)
        for x, bad in ((np.linspace(-3, 3, 7), r"\[1\.\]"), (np.array([0.0, np.nan]), r"\[nan\]")):
            messages = []
            for fn, base in ((refined_score, model.score), (refined_density_unnormalized, model)):
                with pytest.raises(DomainError, match=f"at x = {bad} leaves the range") as err:
                    fn(base, disc, x, lam=-0.6655)
                messages.append(str(err.value))
            assert messages[0] == messages[1]


class TestRefineContinuous:
    def test_residual_recorded_within_tolerance(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        disc = init_discriminator(JS, 1, 8, seed=8)
        refined = refine_continuous(model, disc, JS, n_mc=20_000, seed=0)
        h = disc.h_batch(model.sample(np.random.default_rng(0), 20_000))
        ratios = JS.f_prime_inv(h - refined.lambda_h)
        assert abs(float(ratios.mean()) - 1.0) <= 1e-6
        x = np.zeros((3, 1))
        assert refined.score(x).shape == (3, 1)

    @pytest.mark.parametrize("solve_then_use", [
        lambda model, disc: refine_continuous(model, disc, JS, n_mc=500, seed=0),
        lambda model, disc: est_gain_direct(disc, model.sample(0, 500)),
        lambda model, disc: refine_discrete(
            DiscreteDistribution(np.linspace(-1, 1, 5), np.full(5, 0.2)), disc),
    ], ids=["refine_continuous", "est_gain_direct", "refine_discrete"])
    def test_lambda_solved_on_the_h_of_one_forward_pass(self, forward_rows, solve_then_use):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        solve_then_use(model, init_discriminator(JS, 1, 8, seed=8))
        assert len(forward_rows) == 1


class TestExportCSV:
    def test_roundtrip_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        support = rng.standard_normal((3, 1))
        nu = DiscreteDistribution(support, np.array([0.2, 0.5, 0.3]))
        mu = DiscreteDistribution(support, np.array([0.4, 0.4, 0.2]))
        tab = exact_tabular(nu, mu, JS)
        path = tmp_path / "refined.csv"
        export_refined_csv(path, mu, tab)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "base_weight", "ratio", "refined_weight"]
        refined_w = np.array([float(r[3]) for r in rows[1:]])
        assert np.allclose(refined_w, nu.weights, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bytes_equal_to_csv_writer(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        support = rng.standard_normal((5, dim))
        mu = DiscreteDistribution(support, np.array([0.3, 0.0, 0.2, 0.1, 0.4]))
        tab = TabularDiscriminator(JS, support[::-1], rng.uniform(-0.5, 0.5, 5))
        export_refined_csv(tmp_path / "got.csv", mu, tab)
        ratios, weights = _refined_weights(mu, tab, None)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(dim)]
                            + ["base_weight", "ratio", "refined_weight"])
            for i in range(mu.n):
                writer.writerow([f"{v:.17g}" for v in (*mu.support[i], mu.weights[i],
                                                       ratios[i], weights[i])])
        assert weights[1] == 0.0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_zero_mass_raises(self, tmp_path):
        mu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        tab = TabularDiscriminator(KL, mu.support, np.array([-np.inf, -np.inf]))
        with pytest.raises(DegenerateDistributionError):
            export_refined_csv(tmp_path / "refined.csv", mu, tab)


def _poly(x, r, *c):
    """p(x) - p(r) for the polynomial p with coefficients c (Horner)."""
    px = pr = 0.0
    for ci in c:
        px, pr = px * x + ci, pr * r + ci
    return px - pr


def _exp(x, r, a, b):
    return a * (math.exp(b * x) - math.exp(b * r))


def _atan_sin(x, r, a, c, k):
    return math.atan(a * (x - r)) + c * math.sin(k * (x - r))


def random_brackets(rng, n_per_family):
    """(f, a, b, args, xtol) with a sign change of f(., *args) on [a, b].

    Each family has a root r; the bracket ends lie 1e-9 to 10 times a
    random scale away from it on each side.  xtol takes the two forms of
    the call sites: 1e-15, and 1e-15 * min(1, lo - edge) with lo - edge
    from 1e-6 to 10, so down to 1e-21.
    """
    families = [
        (_poly, lambda: tuple(rng.standard_normal(int(rng.integers(2, 7))))),
        (_exp, lambda: (rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-2, 2),
                        rng.uniform(-3.0, 3.0))),
        (_atan_sin, lambda: (10 ** rng.uniform(-2, 2), rng.uniform(-2.0, 2.0),
                             10 ** rng.uniform(-1, 1))),
    ]
    for f, params in families:
        count = 0
        while count < n_per_family:
            scale = 10 ** rng.uniform(-3, 2)
            r = float(rng.standard_normal() * scale)
            args = (r, *map(float, params()))
            a = r - scale * 10 ** rng.uniform(-9, 1)
            b = r + scale * 10 ** rng.uniform(-9, 1)
            try:
                fa, fb = f(a, *args), f(b, *args)
            except OverflowError:
                continue
            if fa * fb >= 0:
                continue
            xtol = 1e-15 * (min(1.0, 10 ** rng.uniform(-6, 1)) if count % 2 else 1.0)
            if count % 3 == 0:
                a, b = b, a  # scipy takes either order
            count += 1
            yield f, a, b, args, xtol


def discrete_instances(rng):
    """Identity-experiment pairs and floored pairs on 2 to 4 points."""
    for k in (2, 3, 4):
        for floor in (0.05, 0.2):
            for _ in range(4):
                yield random_discrete_pair(rng, k, floor)


def scipy_brentq(f, a, b, *, args=(), xtol, fa=None, fb=None):
    """scipy's brentq in place of `_brentq`: it evaluates f(a) and f(b) itself."""
    return brentq(f, a, b, args=args, xtol=xtol)


class TestBrentq:
    def test_bit_identical_to_scipy_on_random_brackets(self):
        rng = np.random.default_rng(20)
        n = 0
        for f, a, b, args, xtol in random_brackets(rng, 1700):
            ours = _brentq(f, a, b, args=args, xtol=xtol)
            theirs = brentq(f, a, b, args=args, xtol=xtol)
            assert type(ours) is float
            assert ours == theirs, (f.__name__, a, b, args, xtol)
            n += 1
        assert n >= 5000

    def test_lambda_bit_identical_to_scipy(self, monkeypatch):
        rng = np.random.default_rng(21)
        cases = []
        for nu, mu in discrete_instances(rng):
            for gen in ALL:
                cases.append((gen, exact_tabular(nu, mu, gen).values, mu))
                cases.append((gen, rng.uniform(-2.0, 2.0, mu.n) + float(gen.f_prime(1.0)), mu))
        for gen in (JS, RKL):  # batches whose bracket reaches toward the edge
            for seed in range(4):
                batch = np.random.default_rng(seed).standard_normal((400, 1))
                cases.append((gen, init_discriminator(gen, 1, 8, seed=seed).h_batch(batch), batch))
        ours = [_solve_lambda(gen, h, ref) for gen, h, ref in cases]
        monkeypatch.setattr("season.refine._brentq", scipy_brentq)
        theirs = [_solve_lambda(gen, h, ref) for gen, h, ref in cases]
        assert ours == theirs

    @pytest.mark.parametrize("norm", [0.25, 0.5, 1.0])
    def test_ball_sup_bit_identical_to_scipy(self, monkeypatch, norm):
        def sups():
            rng = np.random.default_rng(22)
            return [primal_sup_tabular(nu, mu, gen, HSpec("ball", norm))
                    for nu, mu in discrete_instances(rng) for gen in ALL]

        ours = sups()
        monkeypatch.setattr("season.oracle._brentq", scipy_brentq)
        theirs = sups()
        for (v0, h0), (v1, h1) in zip(ours, theirs):
            assert v0 == v1
            assert np.array_equal(h0.values, h1.values)

    def test_nan_value_raises(self):
        def f(x):
            return x - 0.7 if x in (0.0, 1.0) else math.nan

        with pytest.raises(LambdaSolveError, match="NaN"):
            _brentq(f, 0.0, 1.0, xtol=1e-15)

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(LambdaSolveError, match="no sign change"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)

    def test_no_convergence_in_100_steps_raises(self):
        # a sign step at 0 halves the bracket each step; 5e-324 asks for ~1,000 halvings
        with pytest.raises(LambdaSolveError, match="did not converge"):
            _brentq(lambda x: 1.0 if x > 0 else -1.0, -1.0, 2.0, xtol=5e-324)
