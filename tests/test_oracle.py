"""Brute-force oracles: witness optimality, simplex grids, strong duality."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from season.discriminator import exact_tabular
from season.distributions import DiscreteDistribution, discrete_ratio
from season.errors import DomainError, LambdaSolveError
from season.experiments import default_bound_world, empirical_from_draws, random_discrete_pair
from season.generators import GENERATOR_NAMES, get_generator
from season.metrics import est_DfH, exact_fdiv
from season import oracle
from season.oracle import (
    HSpec,
    dual_grid_min,
    primal_sup_tabular,
    simplex_grid,
    strong_duality_check,
)
from season.refine import refine_discrete, solve_lambda
from test_distributions import two_point

KL = get_generator("kl")
ALL = [get_generator(n) for n in GENERATOR_NAMES]


class TestExactOptimalH:
    def test_equal_distributions_neutral(self):
        d = two_point(0.5, 0.5)
        for gen in ALL:
            tab = exact_tabular(d, d, gen)
            assert np.allclose(tab.values, float(gen.f_prime(1.0)))

    def test_kl_ratio_example(self):
        nu, mu = two_point(0.5, 0.5), two_point(0.25, 0.75)
        tab = exact_tabular(nu, mu, KL)
        assert np.allclose(tab.values, [1 + math.log(2.0), 1 + math.log(2.0 / 3.0)])

    def test_witness_attains_exact_divergence(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nu, mu = random_discrete_pair(rng, int(rng.integers(2, 5)), floor=0.05)
            for gen in ALL:
                tab = exact_tabular(nu, mu, gen)
                assert est_DfH(tab, nu, mu).value == pytest.approx(
                    exact_fdiv(nu, mu, gen), abs=1e-10)

    def test_zero_ratio_gives_minus_inf_sentinel(self):
        nu = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        mu = two_point(0.5, 0.5)
        for gen in ALL:
            assert exact_tabular(nu, mu, gen).values[1] == -math.inf

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_zero_nu_weight_emits_no_warning(self, gen):
        # f'(0) divides by zero; every built-in f_prime silences that itself
        nu = DiscreteDistribution(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 0.4, 0.6]))
        mu = nu.reweighted(np.full(3, 1.0 / 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_tabular(nu, mu, gen).values[0] == -math.inf
            primal_sup_tabular(nu, mu, gen, HSpec("ball", 0.5))
            strong_duality_check(nu, mu, gen, HSpec("ball", 0.5))


class TestSimplexGrid:
    def test_counts_and_normalization(self):
        grid = simplex_grid()
        assert grid.shape == (20301, 3)  # C(202, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)

    def test_unsupported_sizes_rejected(self):
        # the grid holds three-point weights only, so the dual search takes no other size
        for k in (2, 4):
            nu, mu = random_discrete_pair(np.random.default_rng(k), k, floor=0.2)
            with pytest.raises(DomainError, match="three-point"):
                dual_grid_min(nu, mu, KL, HSpec("ball", 0.5))

    def test_rows_are_every_composition_in_lexicographic_order(self):
        expected = [(a, b, 200 - a - b) for a in range(201) for b in range(201 - a)]
        assert np.array_equal(simplex_grid(), np.array(expected) / 200)

    def test_grid_is_read_only(self):
        grid = simplex_grid()
        with pytest.raises(ValueError):
            grid[0, 0] = 1
        assert np.array_equal(simplex_grid(), grid)


def per_row_dual(nu, mu, gen, h_spec):
    """Reference: the dual scored row by row on the full float grid."""
    nu_w = discrete_ratio(nu, mu) * mu.weights
    grid = np.vstack([simplex_grid(), nu_w[None, :], mu.weights[None, :]])
    with np.errstate(divide="ignore", invalid="ignore"):
        fvals = np.asarray(gen.f(grid / mu.weights[None, :]))
        terms = np.where(mu.weights[None, :] > 0, fvals * mu.weights[None, :],
                         np.where(grid > 0, np.inf, 0.0))
    l1 = np.abs(nu_w[None, :] - grid).sum(axis=1)
    total = h_spec.norm * l1 + terms.sum(axis=1)
    best = int(np.argmin(total))
    return float(total[best]), grid[best] / grid[best].sum()


def dual_instances(k, n_random=4):
    """Random floored pairs, plus a zero-weight point in mu and one in nu alone."""
    rng = np.random.default_rng(10 + k)
    pairs = [random_discrete_pair(rng, k, floor=0.05) for _ in range(n_random)]
    support = np.arange(k, dtype=float)[:, None]
    even = np.full(k, 1.0 / k)
    ramp = np.arange(k, dtype=float) / np.arange(k).sum()  # zero weight at point 0
    mu_gap = np.r_[0.0, np.full(k - 1, 1.0 / (k - 1))]
    pairs.append((DiscreteDistribution(support, ramp), DiscreteDistribution(support, mu_gap)))
    pairs.append((DiscreteDistribution(support, ramp), DiscreteDistribution(support, even)))
    return pairs


class TestDualGridMin:
    @pytest.mark.parametrize("norm", [0.05, 0.5, 2.0])
    def test_bit_identical_to_per_row_scoring(self, norm):
        for nu, mu in dual_instances(3):
            for gen in ALL:
                res = dual_grid_min(nu, mu, gen, HSpec("ball", norm))
                value, q = per_row_dual(nu, mu, gen, HSpec("ball", norm))
                assert res.value == value
                assert np.array_equal(res.q_star.weights, q)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_ball_strong_duality_twenty_seeds(self, gen):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            res = strong_duality_check(nu, mu, gen, HSpec("ball", 0.5))
            assert res.gap >= -1e-9  # grid dual can only overshoot
            assert abs(res.gap) <= 2 * (1.0 / 200.0), f"gap {res.gap} vs resolution 1/200"
            assert not res.gap > 10.0 * (1.0 / 200.0)
            assert abs(res.gap) <= 1e-12 * max(1.0, abs(res.primal))
            grid_gap = dual_grid_min(nu, mu, gen, HSpec("ball", 0.5)).value - res.primal
            assert -1e-12 <= grid_gap <= 2 * (1.0 / 200.0)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_dual_minimizer_matches_refined_model(self, gen):
        rng = np.random.default_rng(4)
        for _ in range(5):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            _, h_star = primal_sup_tabular(nu, mu, gen, HSpec("ball", 0.5))
            refined = refine_discrete(mu, h_star)
            res = dual_grid_min(nu, mu, gen, HSpec("ball", 0.5))
            tv = 0.5 * float(np.abs(res.q_star.weights - refined.weights).sum())
            assert tv <= 10.0 * (1.0 / 200.0)


class TestDualityCertificate:
    @pytest.mark.parametrize("norm", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 32, 256])
    def test_exact_at_any_support_size(self, k, gen, norm):
        rng = np.random.default_rng(k)
        for _ in range(5):
            nu, mu = random_discrete_pair(rng, k, floor=0.05)
            res = strong_duality_check(nu, mu, gen, HSpec("ball", norm))
            assert abs(res.gap) <= 1e-12 * max(1.0, abs(res.primal))
            assert res.mass_error <= 1e-12

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_exact_on_zero_weight_points_and_bound_world_samples(self, gen):
        for nu, mu in ball_instances(np.random.default_rng(13)):
            res = strong_duality_check(nu, mu, gen, HSpec("ball", 0.5))
            assert abs(res.gap) <= 1e-12 * max(1.0, abs(res.primal))
            assert res.mass_error <= 1e-12

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    @pytest.mark.parametrize("w", [1e-40, 1e-60, 1e-100, 1e-300])
    def test_exact_at_a_tiny_nu_weight(self, gen, w):
        # reverse KL puts theta = -1/ratio near -1/w; the window bracket does
        # not depend on the smallest theta, so the search still closes
        support = np.array([[0.0], [1.0]])
        mu = DiscreteDistribution(support, np.array([0.5, 0.5]))
        nu = DiscreteDistribution(support, np.array([w, 1.0 - w]))
        res = strong_duality_check(nu, mu, gen, HSpec("ball", 0.5))
        assert abs(res.gap) <= 1e-12 * max(1.0, abs(res.primal))
        assert res.mass_error <= 1e-12

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_shifted_window_fails_the_mass_check(self, gen, monkeypatch):
        # a window offset 1e-9 off the root of R'(w) leaves lambda != 0 at h,
        # so mu f'^-1(h) no longer has mass 1
        roots = []

        def shifted(*args, brentq=oracle._brentq, **kwargs):
            roots.append(brentq(*args, **kwargs) + 1e-9)
            return roots[-1]

        rng = np.random.default_rng(14)
        pairs = [random_discrete_pair(rng, 8, floor=0.05) for _ in range(5)]
        spec = HSpec("ball", 0.05)
        assert all(strong_duality_check(nu, mu, gen, spec).mass_error <= 1e-12
                   for nu, mu in pairs)
        monkeypatch.setattr(oracle, "_brentq", shifted)
        for nu, mu in pairs:
            assert strong_duality_check(nu, mu, gen, spec).mass_error > 1e-12
        assert len(roots) == len(pairs)

    @pytest.mark.parametrize("norm", [0.05, 0.5, 2.0])
    def test_grid_never_undershoots_the_certificate(self, norm):
        for nu, mu in dual_instances(3):
            for gen in ALL:
                res = strong_duality_check(nu, mu, gen, HSpec("ball", norm))
                assert dual_grid_min(nu, mu, gen, HSpec("ball", norm)).value >= res.dual - 1e-12

    def test_resolution_does_not_change_the_result(self):
        nu, mu = random_discrete_pair(np.random.default_rng(16), 3, floor=0.2)
        assert strong_duality_check(nu, mu, KL, HSpec("ball", 0.5), 1.0 / 7.0) == \
            strong_duality_check(nu, mu, KL, HSpec("ball", 0.5))


class TestPrimalSup:
    @pytest.mark.parametrize("norm", [0.0, -0.5, math.nan, math.inf])
    def test_ball_norm_must_be_finite_and_positive(self, norm):
        with pytest.raises(DomainError, match="finite positive norm"):
            HSpec("ball", norm)

    @pytest.mark.parametrize("kind", ["rich", "constants"])
    def test_only_the_ball_class_is_accepted(self, kind):
        with pytest.raises(DomainError, match="unknown class kind"):
            HSpec(kind)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_window_scan_matches_dense_grid(self, gen):
        # oracle for the oracle: dense scan over window offsets
        rng = np.random.default_rng(7)
        for _ in range(5):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            spec = HSpec("ball", 0.5)
            value, h_star = primal_sup_tabular(nu, mu, gen, spec)
            theta = np.asarray(gen.f_prime(nu.weights / mu.weights))
            lo = float(theta.min()) - 2.0
            hi = float(theta.max()) + 1.0
            if math.isfinite(gen.conjugate_domain[1]):
                hi = min(hi, gen.conjugate_domain[1] - 1.0 - 1e-9)
            best = -math.inf
            for w in np.linspace(lo, hi, 20001):
                h = np.clip(theta, w, w + 1.0)
                cand = float(nu.weights @ h - mu.weights @ np.asarray(gen.conjugate_fn(h)))
                best = max(best, cand)
            assert value >= best - 1e-9
            assert value <= best + 1e-4  # dense grid undershoots by O(step^2)
            assert h_star.values.max() - h_star.values.min() <= 1.0 + 1e-12

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_ball_value_between_constants_and_rich(self, gen):
        # the constants' sup is 0 and every per-point function's is I_f(nu : mu)
        rng = np.random.default_rng(8)
        for _ in range(10):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            v_ball, _ = primal_sup_tabular(nu, mu, gen, HSpec("ball", 0.5))
            assert -1e-12 <= v_ball <= exact_fdiv(nu, mu, gen) + 1e-10

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_ball_search_evaluation_count(self, gen):
        # each R(h) evaluation calls conjugate_fn once; the search runs on
        # the slope R'(w), so R itself is evaluated only at the root
        rng = np.random.default_rng(9)
        for _ in range(10):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            calls = []

            def counted(h, conj=gen.conjugate_fn):
                calls.append(1)
                return conj(h)

            primal_sup_tabular(nu, mu, replace(gen, conjugate_fn=counted), HSpec("ball", 0.5))
            assert len(calls) == 1

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_wide_ball_takes_one_slope(self, gen):
        # each slope R'(w) calls f_prime_inv once; a ball wider than the theta
        # spread has its root at the bracket's upper end, so no search runs
        rng = np.random.default_rng(11)
        for _ in range(10):
            nu, mu = random_discrete_pair(rng, 3, floor=0.2)
            calls = []

            def counted(s, inv=gen.f_prime_inv):
                calls.append(1)
                return inv(s)

            primal_sup_tabular(nu, mu, replace(gen, f_prime_inv=counted), HSpec("ball", 5.0))
            assert len(calls) == 1

    def test_nan_window_slope_is_a_package_error(self):
        # a NaN slope passes the endpoint test and reaches the root search; the
        # ball is narrower than the theta spread, so a point lies below the window
        nu, mu = random_discrete_pair(np.random.default_rng(10), 3, floor=0.2)
        gen = replace(KL, f_prime_inv=lambda s: s * math.nan)
        with pytest.raises(LambdaSolveError, match="NaN"):
            primal_sup_tabular(nu, mu, gen, HSpec("ball", 0.1))

    @pytest.mark.parametrize("entry", [primal_sup_tabular, strong_duality_check],
                             ids=["primal", "duality"])
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_overflowed_ratio_raises(self, gen, entry):
        # nu / mu = 1 / 5e-324 is +inf: kl's theta is +inf and the others' is
        # -0.0, both sup dom f*, where no window in dom f* holds the point
        support = np.array([[0.0], [1.0]])
        mu = DiscreteDistribution(support, np.array([1.0, 5e-324]))
        nu = DiscreteDistribution(support, np.array([0.0, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match=r"nu / mu = inf at \[1\.\] puts f' at sup dom f\*"):
            entry(nu, mu, gen, HSpec("ball", 0.5))

    @pytest.mark.parametrize("norm", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_ball_optimum_needs_no_normalizer(self, gen, norm):
        # R'(w) = 0 is E_mu[f'^-1(h*)] = 1: lambda vanishes at the ball's optimum
        for nu, mu in ball_instances(np.random.default_rng(12)):
            _, h_star = primal_sup_tabular(nu, mu, gen, HSpec("ball", norm))
            assert abs(solve_lambda(h_star, gen, mu)) <= 1e-12


def ball_instances(rng):
    """Floored random pairs, pairs with zero-weight points, and bound-world samples."""
    for floor in (0.0, 0.05, 0.2):
        for k in (2, 3, 4):
            for _ in range(4):
                yield random_discrete_pair(rng, k, floor)
    for k in (2, 3, 4):
        yield from dual_instances(k, n_random=0)
        for _ in range(4):
            nu, mu = random_discrete_pair(rng, k, floor=0.05)
            wn = nu.weights.copy()
            wn[rng.integers(k)] = 0.0  # theta = -inf there
            yield DiscreteDistribution(nu.support, wn / wn.sum()), mu
    population, model = default_bound_world()
    for _ in range(8):
        yield empirical_from_draws(population, rng, 200), model
