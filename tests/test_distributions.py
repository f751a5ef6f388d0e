"""Distributions, mixtures, the forward noising process, and ratios."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from season.distributions import (
    DiscreteDistribution,
    GaussianMixture,
    OUSchedule,
    as_batch,
    check_score_consistency,
    constant_schedule,
    discrete_ratio,
    gaussian_mixture,
    model_from_spec,
    noise_sample,
    noised_mixture,
    ou_params,
    split_seeds,
)
from season.discriminator import init_discriminator
from season.errors import AbsoluteContinuityError, DomainError
from season.generators import get_generator
from season.refine import refine_continuous


KL = get_generator("kl")


def two_point(w0, w1):
    return DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([w0, w1]))


class TestDiscreteDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("support, weights", [
        ([[0.0], [np.nan]], [0.5, 0.5]),
        ([[0.0], [np.inf]], [0.5, 0.5]),
        ([[0.0], [1.0]], [np.nan, 1.0]),
    ], ids=["support-nan", "support-inf", "weight-nan"])
    def test_non_finite_rejected(self, support, weights):
        with pytest.raises(DomainError, match="must be finite"):
            DiscreteDistribution(np.array(support), np.array(weights))

    def test_duplicate_support_rejected(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))

    def test_signed_zero_is_the_point_zero(self):
        with pytest.raises(DomainError, match="distinct"):
            DiscreteDistribution(np.array([[0.0], [-0.0]]), np.array([0.5, 0.5]))
        d = DiscreteDistribution(np.array([[-0.0], [1.0]]), np.array([0.5, 0.5]))
        assert not np.signbit(d.support).any()

    def test_1d_support_reshaped(self):
        d = DiscreteDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5]))
        assert d.support.shape == (3, 1) and d.dim == 1

    def test_immutability(self):
        d = two_point(0.5, 0.5)
        with pytest.raises(ValueError):
            d.weights[0] = 0.9

    def test_sampler_deterministic(self):
        d = two_point(0.3, 0.7)
        assert np.array_equal(d.sample(5, 100), d.sample(5, 100))

    @pytest.mark.parametrize("support", [[[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0]],
                             ids=["2d", "1d"])
    def test_caller_arrays_are_copied(self, support):
        support, weights = np.array(support), np.array([0.2, 0.3, 0.5])
        d = DiscreteDistribution(support, weights)
        support[0] = 7.0
        weights[:] = [0.5, 0.5, 0.0]
        assert d.support.ravel().tolist() == [0.0, 1.0, 2.0]
        assert d.weights.tolist() == [0.2, 0.3, 0.5]
        assert not d.support.flags.writeable and not d.weights.flags.writeable

    def test_reweighted_shares_the_read_only_support(self):
        d = DiscreteDistribution(np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.3, 0.5]))
        weights = np.array([0.5, 0.5, 0.0])
        r = d.reweighted(weights)
        weights[0] = 0.9
        assert r.support is d.support and not r.support.flags.writeable
        assert r.weights.tolist() == [0.5, 0.5, 0.0] and not r.weights.flags.writeable
        assert d.weights.tolist() == [0.2, 0.3, 0.5]

    @pytest.mark.parametrize("weights", [
        [np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.5, 0.5], [[0.2, 0.3, 0.5]], [0.5, 0.5, 0.1],
    ], ids=["nan", "negative", "short", "2d", "sum"])
    def test_reweighted_rejects_what_the_constructor_rejects(self, weights):
        d = DiscreteDistribution(np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(DomainError) as built:
            DiscreteDistribution(d.support, np.array(weights))
        with pytest.raises(DomainError) as reweighted:
            d.reweighted(np.array(weights))
        assert str(reweighted.value) == str(built.value)


@pytest.mark.parametrize("n", [-1, 2.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("draw", [
    lambda n: two_point(0.3, 0.7).sample(0, n),
    lambda n: gaussian_mixture([[0.0]], [[[1.0]]], [1.0]).sample(0, n),
    lambda n: refine_continuous(gaussian_mixture([[0.0]], [[[1.0]]], [1.0]),
                                init_discriminator(KL, 1, 4), KL, n_mc=n),
], ids=["discrete", "mixture", "refine_continuous"])
def test_sample_size_must_be_a_nonnegative_integer(draw, n):
    with pytest.raises(DomainError, match=f"sample size n must be an integer >= 0, got {n}"):
        draw(n)


class TestAsBatch:
    def test_1d_input_is_a_column(self):
        assert as_batch([1.0, 2.0, 3.0]).shape == (3, 1)
        assert as_batch(np.zeros((4, 2))).shape == (4, 2)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(DomainError):
            as_batch(np.zeros(shape))


class TestDiscreteRatio:
    def test_identical_gives_ones(self):
        d = two_point(0.25, 0.75)
        assert np.allclose(discrete_ratio(d, d), 1.0)

    def test_two_point_example(self):
        nu = two_point(0.5, 0.5)
        mu = two_point(0.25, 0.75)
        assert np.allclose(discrete_ratio(nu, mu), [2.0, 2.0 / 3.0])

    def test_absolute_continuity_violation(self):
        nu = DiscreteDistribution(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        mu = two_point(0.25, 0.75)
        with pytest.raises(AbsoluteContinuityError):
            discrete_ratio(nu, mu)

    def test_zero_mu_weight_with_nu_mass(self):
        nu = two_point(0.5, 0.5)
        mu = two_point(1.0, 0.0)
        with pytest.raises(AbsoluteContinuityError):
            discrete_ratio(nu, mu)

    def test_reweighting_reconstructs_nu(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            support = rng.standard_normal((k, 2))
            wn = rng.uniform(0.05, 1, k); wn /= wn.sum()
            wm = rng.uniform(0.05, 1, k); wm /= wm.sum()
            nu = DiscreteDistribution(support, wn)
            mu = DiscreteDistribution(support, wm)
            assert np.allclose(discrete_ratio(nu, mu) * mu.weights, wn, atol=1e-15)


def row_major_mixture(model, x):
    """(log_density, score) by the (n, k) formula the column-wise one replaced.

    Kept as the reference.  Its final einsum adds three component terms as
    (t0 + t2) + t1, where score adds them in component order.
    """
    diff = x[:, None, :] - model.means[None, :, :]
    quad_form = np.einsum("nkd,kde,nke->nk", diff, model._precisions, diff)
    comp = (model._log_norm[None, :] - 0.5 * quad_form) + np.log(model.weights)[None, :]
    m = comp.max(axis=1, keepdims=True)
    resp = np.exp(comp - m)
    log_density = (m + np.log(resp.sum(axis=1, keepdims=True)))[:, 0]
    resp /= resp.sum(axis=1, keepdims=True)
    comp_scores = -np.einsum("kde,nke->nkd", model._precisions, diff)
    return log_density, np.einsum("nk,nkd->nd", resp, comp_scores)


def copying_mixture(model, x):
    """(log_density, score) by the column-wise formula with a fresh array per step.

    The reference for the in-place version: the same operations in the
    same order, so the two must agree bit for bit.
    """
    diff = x.T - model.means[:, :, None]
    prec_diff = model._precisions @ diff
    mahalanobis = (diff * prec_diff).sum(axis=1)
    comp = (model._log_norm[:, None] - 0.5 * mahalanobis) + np.log(model.weights)[:, None]
    m = comp.max(axis=0)
    resp = np.exp(comp - m)
    total = resp.sum(axis=0)
    resp /= total
    return m + np.log(total), -(resp[:, None, :] * prec_diff).sum(axis=0).T


def assert_within(actual, reference, tol=1e-13):
    assert actual.shape == reference.shape
    assert np.all(np.abs(actual - reference) <= tol * np.maximum(np.abs(reference), 1.0))


def random_mixture(k, d, seed):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(k):
        a = rng.standard_normal((d, d))
        covs.append(a @ a.T + 0.5 * np.eye(d))
    weights = rng.uniform(0.1, 1.0, k)
    return gaussian_mixture(rng.standard_normal((k, d)), covs, weights / weights.sum())


class TestGaussianMixture:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_to_row_major_formula_in_1d(self, k):
        model = random_mixture(k, 1, seed=k)
        x = 3.0 * np.random.default_rng(k).standard_normal((500, 1))
        log_density, score = row_major_mixture(model, x)
        assert np.array_equal(model.log_density(x), log_density)
        if k < 3:
            assert np.array_equal(model.score(x), score)
        else:  # the reference re-associates the three-term sum
            assert_within(model.score(x), score)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_close_to_row_major_formula_in_higher_dimension(self, d, k):
        model = random_mixture(k, d, seed=10 * d + k)
        x = 2.0 * np.random.default_rng(d + k).standard_normal((500, d))
        log_density, score = row_major_mixture(model, x)
        assert_within(model.log_density(x), log_density)
        assert_within(model.score(x), score)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bit_identical_to_copying_formula(self, d, k):
        model = random_mixture(k, d, seed=20 * d + k)
        x = 4.0 * np.random.default_rng(d * k).standard_normal((500, d))
        x[:k] = model.means  # exact component centres
        x[k] = 40.0  # far out: every component but one underflows
        before = x.copy()
        log_density, score = copying_mixture(model, x)
        assert np.array_equal(model.log_density(x), log_density)
        assert np.array_equal(model.score(x), score)
        assert np.array_equal(x, before)

    def test_standard_normal_score(self):
        model = gaussian_mixture(np.zeros((1, 2)), [np.eye(2)], [1.0])
        x = np.random.default_rng(1).standard_normal((50, 2))
        assert np.allclose(model.score(x), -x, atol=1e-12)

    def test_two_component_score_vs_finite_difference(self):
        model = gaussian_mixture([[-1.5], [2.0]], [[[0.5]], [[1.2]]], [0.3, 0.7])
        err = check_score_consistency(model, rng=3)
        assert err <= 1e-4

    def test_score_check_fails_on_nan(self):
        model = GaussianMixture([[0.0]], [[[1.0]]], [1.0])
        model.score = lambda x: np.full_like(x, np.nan)
        with pytest.raises(DomainError, match="score disagrees"):
            check_score_consistency(model)

    def test_nan_weight_rejected(self):
        with pytest.raises(DomainError, match="weights must be finite"):
            GaussianMixture([[0.0], [1.0]], [[[1.0]], [[1.0]]], [np.nan, 1.0])

    def test_density_integrates_to_one_1d(self):
        model = gaussian_mixture([[-2.0], [1.0]], [[[0.3]], [[0.8]]], [0.4, 0.6])
        x = np.linspace(-12, 12, 40001)[:, None]
        dens = np.exp(model.log_density(x))
        assert np.trapezoid(dens, x[:, 0]) == pytest.approx(1.0, abs=1e-4)

    def test_1d_batch_is_points_on_the_line(self):
        model = gaussian_mixture([[-1.0], [1.0]], [[[0.5]], [[0.5]]], [0.3, 0.7])
        x = np.linspace(-1, 1, 5)
        assert model.score(x).shape == (5, 1)
        assert np.array_equal(model.score(x), model.score(x[:, None]))
        assert np.array_equal(model.log_density(x), model.log_density(x[:, None]))

    def test_1d_means_are_points_on_the_line(self):
        flat = gaussian_mixture([0.0, 1.0], [[[1.0]], [[1.0]]], [0.5, 0.5])
        column = gaussian_mixture([[0.0], [1.0]], [[[1.0]], [[1.0]]], [0.5, 0.5])
        x = np.linspace(-2.0, 3.0, 11)
        assert flat.means.shape == (2, 1)
        assert np.array_equal(flat.score(x), column.score(x))
        assert np.array_equal(flat.log_density(x), column.log_density(x))

    def test_sampler_moments(self):
        model = gaussian_mixture([[-1.0], [1.0]], [[[0.25]], [[0.25]]], [0.5, 0.5])
        draws = model.sample(7, 200_000)
        # mean 0, variance 0.25 + 1 = 1.25 for this symmetric mixture
        assert abs(draws.mean()) <= 3 * draws.std() / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(1.25, rel=0.02)

    def test_non_psd_cov_rejected(self):
        with pytest.raises(DomainError):
            gaussian_mixture([[0.0, 0.0]], [np.array([[1.0, 2.0], [2.0, 1.0]])], [1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            gaussian_mixture([[0.0, 0.0]], [np.eye(3)], [1.0])


class TestOUProcess:
    def test_at_time_zero(self):
        sched = constant_schedule(1.0, 2.0)
        assert ou_params(sched, 0.0) == (1.0, 0.0)

    def test_constant_beta_closed_form(self):
        sched = constant_schedule(1.0, 2.0)
        m, sigma = ou_params(sched, math.log(2.0))
        assert m == pytest.approx(0.5, abs=1e-15)
        assert sigma ** 2 == pytest.approx(0.75, abs=1e-15)

    def test_pythagorean_identity_random_times(self):
        sched = constant_schedule(1.3, 3.0)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0, 3.0, 20):
            m, sigma = ou_params(sched, float(t))
            assert abs(m * m + sigma * sigma - 1.0) <= 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["beta", "T"])
    def test_schedule_rejects_nonfinite_or_nonpositive(self, which, bad):
        args = {"beta": 1.0, "T": 2.0, which: bad}
        with pytest.raises(DomainError, match="noise schedule"):
            constant_schedule(**args)

    def test_schedule_is_two_floats(self):
        sched = constant_schedule(2, 3)
        assert sched == OUSchedule(2.0, 3.0)
        assert type(sched.beta) is float and type(sched.T) is float

    def test_import_leaves_quadrature_unloaded(self):
        # a fresh interpreter: other tests import scipy.stats, which loads it
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, season.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    # the layers the benchmark imports, and the whole CLI
    @pytest.mark.parametrize("modules", [
        "season.discriminator, season.distributions, season.experiments, season.generators, "
        "season.oracle, season.refine, season.samplers",
        "season.cli",
    ], ids=["benchmark-layers", "season.cli"])
    def test_import_loads_no_scipy(self, modules):
        # a fresh interpreter: other tests import scipy, which stays loaded
        src = Path(__file__).resolve().parents[1] / "src"
        code = (f"import sys, {modules}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "[]"

    def test_time_outside_range_rejected(self):
        sched = constant_schedule(1.0, 1.0)
        with pytest.raises(DomainError):
            ou_params(sched, 1.5)


class TestNoiseSample:
    def test_time_zero_exact(self):
        sched = constant_schedule(1.0, 2.0)
        x0 = np.random.default_rng(0).standard_normal((10, 2))
        assert np.array_equal(noise_sample(x0, sched, 0.0, 1), x0)

    def test_1d_batch_is_points_on_the_line(self):
        sched = constant_schedule(1.0, 2.0)
        x0 = np.linspace(-1.0, 1.0, 50)
        column = noise_sample(x0[:, None], sched, 1.0, 7)
        assert column.shape == (50, 1)
        assert np.array_equal(noise_sample(x0, sched, 1.0, 7), column)

    def test_deterministic_per_seed(self):
        sched = constant_schedule(1.0, 2.0)
        x0 = np.ones((5, 1))
        a = noise_sample(x0, sched, 1.0, 42)
        b = noise_sample(x0, sched, 1.0, 42)
        assert np.array_equal(a, b)

    def test_large_time_matches_prior_moments(self):
        sched = constant_schedule(1.0, 20.0)
        x0 = np.full((100_000, 1), 3.0)
        t = 16.0  # m_t = e^-16 < 1e-6
        m, _ = ou_params(sched, t)
        assert m < 1e-6
        z = noise_sample(x0, sched, t, 5)
        n = z.size
        assert abs(z.mean()) <= 3.0 / math.sqrt(n) + m * 3.0
        var_se = math.sqrt(2.0 / (n - 1))
        assert abs(z.var(ddof=1) - 1.0) <= 3 * var_se

    def test_noised_mixture_matches_sample_moments(self):
        model = gaussian_mixture([[-1.0], [2.0]], [[[0.4]], [[0.9]]], [0.35, 0.65])
        sched = constant_schedule(1.0, 2.0)
        t = 0.7
        noised = noised_mixture(model, sched, t)
        x0 = model.sample(3, 200_000)
        xt = noise_sample(x0, sched, t, 4)
        mean_exact = float(noised.weights @ noised.means[:, 0])
        second = noised.weights @ (noised.covs[:, 0, 0] + noised.means[:, 0] ** 2)
        var_exact = float(second - mean_exact ** 2)
        n = xt.size
        assert abs(xt.mean() - mean_exact) <= 3 * math.sqrt(var_exact / n)
        assert xt.var(ddof=1) == pytest.approx(var_exact, rel=0.02)

    def test_noised_mixture_score_consistency(self):
        model = gaussian_mixture([[-1.0], [2.0]], [[[0.4]], [[0.9]]], [0.35, 0.65])
        sched = constant_schedule(1.0, 2.0)
        noised = noised_mixture(model, sched, 1.1)
        assert check_score_consistency(noised, rng=2) <= 1e-4


class TestSeedsAndSpecs:
    def test_split_seeds_independent(self):
        a, b = split_seeds(0, 2)
        assert not np.array_equal(a.standard_normal(10), b.standard_normal(10))

    def test_model_from_spec_discrete(self):
        d = model_from_spec({"type": "discrete", "support": [[0.0], [1.0]],
                             "weights": [0.4, 0.6]})
        assert isinstance(d, DiscreteDistribution)

    def test_model_from_spec_mixture(self):
        m = model_from_spec({"type": "gaussian_mixture", "means": [[0.0]],
                             "covs": [[[1.0]]], "weights": [1.0]})
        assert m.dim == 1

    def test_model_from_spec_unknown(self):
        with pytest.raises(DomainError):
            model_from_spec({"type": "dirichlet"})

    @pytest.mark.parametrize("spec, key", [
        ({"type": "discrete", "support": [[0.0]]}, "weights"),
        ({"type": "gaussian_mixture", "means": [[0.0]], "weights": [1.0]}, "covs"),
    ], ids=["discrete", "gaussian_mixture"])
    def test_model_from_spec_missing_key_names_it(self, spec, key):
        with pytest.raises(DomainError) as exc:
            model_from_spec(spec)
        assert str(exc.value) == f"malformed distribution spec: missing key '{key}'"
