"""Discriminator nets: forward contracts, exact gradients, training."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from season import discriminator
from season.discriminator import (
    _clamped_mu_values,
    STOP_FRACTION,
    STOP_WINDOW,
    Discriminator,
    TabularDiscriminator,
    TrainConfig,
    discriminator_from_dict,
    discriminator_to_dict,
    exact_tabular,
    grads,
    init_discriminator,
    input_grad,
    load_discriminator,
    save_discriminator,
    train,
)
from season.distributions import DiscreteDistribution, as_batch
from season.errors import DomainError, TrainingDivergedError
from season.generators import GENERATOR_NAMES, get_generator, sigmoid
from season.metrics import exact_fdiv
from test_distributions import two_point

KL = get_generator("kl")
JS = get_generator("js_shifted")
ALL = [get_generator(n) for n in GENERATOR_NAMES]


def numeric_param_grads(make_value, disc, eps=1e-5):
    """Central finite differences of a scalar objective in every entry of disc.params."""
    g = np.empty(disc.params.size)
    for i, orig in enumerate(disc.params):
        disc.params[i] = orig + eps
        up = make_value(disc)
        disc.params[i] = orig - eps
        g[i] = (up - make_value(disc)) / (2 * eps)
        disc.params[i] = orig
    return g


def recorded_fit(monkeypatch, x_nu, x_mu, cfg):
    """Train a net, recording (value, se) of every grads call made through the module."""
    calls = []
    real = discriminator.grads

    def recording(*args):
        g, value, se = real(*args)
        calls.append((value, se))
        return g, value, se

    monkeypatch.setattr(discriminator, "grads", recording)
    return train(JS, x_nu, x_mu, cfg), calls


def first_stall(calls):
    """First evaluation at which R gained less than STOP_FRACTION SE over STOP_WINDOW steps."""
    for t in range(STOP_WINDOW, len(calls)):
        value, se = calls[t]
        if value - calls[t - STOP_WINDOW][0] < STOP_FRACTION * se:
            return t
    return None


def row_major_forward(disc, x):
    """The (n, width) forward pass the feature-major one replaced, kept as the reference."""
    x = as_batch(x)
    a1 = np.tanh(x @ disc.w1.T + disc.b1)
    a2 = np.tanh(a1 @ disc.w2.T + disc.b2)
    z3 = a2 @ disc.w3 + disc.b3
    return {"x": x, "a1": a1, "a2": a2, "z3": z3,
            "h": disc.generator.link_of_logit(z3) + disc.bias}


def row_major_backprop(disc, cache, dh, inputs=False):
    """The (n, width) backward pass the feature-major one replaced, kept as the reference."""
    z3, a2, a1, x = (cache[k] for k in ("z3", "a2", "a1", "x"))
    dz3 = dh * np.asarray(disc.generator.link_of_logit_deriv(z3))
    dz2 = np.outer(dz3, disc.w3) * (1.0 - a2 * a2)
    dz1 = (dz2 @ disc.w2) * (1.0 - a1 * a1)
    if inputs:
        return dz1 @ disc.w1
    return np.concatenate((dz1.T @ x, dz1.sum(axis=0), dz2.T @ a1, dz2.sum(axis=0),
                           a2.T @ dz3, dz3.sum(), dh.sum()), axis=None)


def row_major_grads(disc, gen, x_nu, x_mu):
    """grads through the reference passes: gradient, value and SE."""
    cache_nu, cache_mu = row_major_forward(disc, x_nu), row_major_forward(disc, x_mu)
    h_nu = cache_nu["h"]
    h_mu, mask = _clamped_mu_values(gen, cache_mu["h"])
    conj = np.asarray(gen.conjugate_fn(h_mu))
    dmu = -np.asarray(gen.f_prime_inv(h_mu)) * mask / h_mu.size
    g = (row_major_backprop(disc, cache_nu, np.full(h_nu.size, 1.0 / h_nu.size))
         + row_major_backprop(disc, cache_mu, dmu))
    se = math.sqrt(h_nu.var() / h_nu.size + conj.var() / conj.size)
    return g, float(h_nu.mean() - conj.mean()), se


def assert_close_to_reference(actual, reference, rtol=1e-12):
    """Entrywise within rtol, relative to each entry or to the largest one if that is larger."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    scale = np.maximum(np.abs(reference), np.abs(reference).max())
    assert np.all(np.abs(actual - reference) <= rtol * scale)


def random_net(gen, dim, width, seed):
    """A net with every parameter, biases included, drawn at random."""
    rng = np.random.default_rng(seed)
    disc = init_discriminator(gen, dim, width, seed=seed)
    disc.b1[...] = 0.3 * rng.standard_normal(width)
    disc.b2[...] = 0.3 * rng.standard_normal(width)
    disc.params[-2:] = [0.2 * rng.standard_normal(), -0.1]  # b3 and the free bias
    return disc


def gaussian_pair(n, seed=0):
    """n rows of N(1, 1) data and n rows of an N(0, 1) model."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 1)) + 1.0, rng.standard_normal((n, 1))


def run_single_threaded(code):
    """Standard output of code run in a fresh interpreter with one BLAS thread.

    The interpreter imports season and this test module.  BLAS threads split
    each product at rows that depend on n, so byte-level comparisons between
    batch sizes hold only on one thread.
    """
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


# 9 sizes from 8,193 to 100,003 rows, then the edges of the block rule
BLOCK_GRID_SIZES = [8193, 12289, 16383, 24575, 32769, 50000, 65537, 81919, 100003,
                    0, 1, 8191, 8192, 16384, 16385]


def blocked_h_drift():
    """(generator, d, width, n) of each grid case where h_batch differs from one full pass."""
    drift = []
    for gen, dim, width, n in itertools.product(ALL, (1, 2, 3), (4, 16, 32), BLOCK_GRID_SIZES):
        disc = random_net(gen, dim, width, seed=100 * dim + width)
        x = np.random.default_rng(n).standard_normal((n, dim))
        if disc.h_batch(x).tobytes() != disc._forward_full(x)["h"].tobytes():
            drift.append([gen.name, dim, width, n])
    return drift


def eta_and_h(disc, x):
    """eta = sigmoid(z) and h from one forward pass of the net."""
    cache = disc._forward_full(x)
    return sigmoid(cache["z3"]), cache["h"]


class TestForward:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_zero_net_gives_neutral_constant(self, gen):
        disc = Discriminator(gen, 2, 4)
        eta, h = eta_and_h(disc, [[0.3, -1.2]])
        assert eta[0] == pytest.approx(0.5)
        assert h[0] == pytest.approx(float(gen.f_prime(1.0)))

    def test_js_half_is_minus_log_two(self):
        disc = Discriminator(JS, 1, 4)
        disc.bias = 0.7
        _, h = eta_and_h(disc, [0.0])
        assert h[0] - disc.bias == pytest.approx(-math.log(2.0))

    def test_forward_is_pure(self):
        disc = init_discriminator(JS, 2, 8, seed=0)
        x = np.array([[0.4, -0.2]])
        eta, h = eta_and_h(disc, x)
        again = eta_and_h(disc, x)
        assert np.array_equal(eta, again[0]) and np.array_equal(h, again[1])
        assert np.array_equal(x, [[0.4, -0.2]])

    def test_1d_batch_is_points_on_the_line(self):
        disc = init_discriminator(JS, 1, 8, seed=1)
        x = np.linspace(-3, 3, 50)
        assert np.array_equal(disc.h_batch(x), disc.h_batch(x[:, None]))

    def test_h_stays_in_link_range_plus_bias(self):
        disc = init_discriminator(JS, 1, 8, seed=1)
        disc.bias = 0.3
        h = disc.h_batch(np.linspace(-3, 3, 50)[:, None])
        assert np.all(h - disc.bias < 0)  # range of f' for js is (-inf, 0)


class TestParams:
    def test_one_array_with_named_views(self):
        disc = init_discriminator(JS, 3, 5, seed=0)
        assert disc.params.shape == (5 * 3 + 5 + 5 * 5 + 5 + 5 + 2,)
        assert all(np.shares_memory(disc.params, view)
                   for view in (disc.w1, disc.b1, disc.w2, disc.b2, disc.w3))
        disc.params[-2:] = [0.25, -0.5]
        assert (disc.b3, disc.bias) == (0.25, -0.5)
        disc.bias = 1.5
        assert disc.params[-1] == 1.5

    def test_size_must_fit_dim_and_width(self):
        with pytest.raises(DomainError, match="do not fit"):
            Discriminator(JS, 2, 4, np.zeros(10))

    def test_freeze_covers_the_whole_net(self):
        rng = np.random.default_rng(0)
        disc = train(JS, rng.standard_normal((20, 1)), rng.standard_normal((20, 1)),
                     TrainConfig(width=4, steps=3))
        with pytest.raises(ValueError, match="read-only"):
            disc.bias = 1.0
        with pytest.raises(ValueError, match="read-only"):
            disc.params[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            disc.w1[0, 0] = 1.0

    def test_copy_is_independent_and_writable(self):
        disc = init_discriminator(JS, 2, 4, seed=0).freeze()
        clone = disc.copy()
        clone.bias = 2.0
        clone.w2[0, 0] += 1.0
        assert disc.bias == 0.0 and not np.shares_memory(disc.params, clone.params)
        assert np.count_nonzero(clone.params != disc.params) == 2


class TestObjective:
    def test_equal_batches_neutral_h_gives_zero(self):
        x = np.random.default_rng(0).standard_normal((64, 1))
        for gen in ALL:
            disc = Discriminator(gen, 1, 4)
            assert grads(disc, gen, x, x)[1] == pytest.approx(0.0, abs=1e-14)

    def test_js_objective_is_two_log_two_minus_bce(self):
        rng = np.random.default_rng(1)
        disc = init_discriminator(JS, 1, 8, seed=2)
        x_nu = rng.standard_normal((40, 1)) + 1.0
        x_mu = rng.standard_normal((40, 1))
        eta_nu, _ = eta_and_h(disc, x_nu)
        eta_mu, _ = eta_and_h(disc, x_mu)
        bce = float(-np.log(eta_nu).mean() - np.log(1 - eta_mu).mean())
        value = grads(disc, JS, x_nu, x_mu)[1]
        assert value == pytest.approx(2 * math.log(2.0) - bce, abs=1e-10)

    def test_tabular_optimum_attains_exact_divergence(self):
        nu = two_point(0.5, 0.5)
        mu = two_point(0.25, 0.75)
        for gen in ALL:
            tab = exact_tabular(nu, mu, gen)
            h = tab.h_for(mu)
            value = float(nu.weights @ h - mu.weights @ np.asarray(gen.conjugate_fn(h)))
            assert value == pytest.approx(exact_fdiv(nu, mu, gen), abs=1e-12)

    def test_clamp_keeps_conjugate_finite(self):
        disc = Discriminator(JS, 1, 4)
        disc.bias = 5.0  # pushes h past the domain edge of f*
        x = np.zeros((4, 1))
        assert math.isfinite(grads(disc, JS, x, x)[1])


class TestGradients:
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_param_grads_match_finite_differences_fuzzed(self, gen):
        rng = np.random.default_rng(3)
        for trial in range(7):
            width = int(rng.integers(3, 7))
            dim = int(rng.integers(1, 3))
            disc = init_discriminator(gen, dim, width, seed=int(rng.integers(1 << 30)))
            disc.bias = float(rng.uniform(-0.3, 0.1))
            x_nu = rng.standard_normal((9, dim))
            x_mu = rng.standard_normal((11, dim))
            analytic, _, _ = grads(disc, gen, x_nu, x_mu)
            numeric = numeric_param_grads(lambda d: grads(d, gen, x_nu, x_mu)[1], disc)
            assert analytic.shape == disc.params.shape
            assert (np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)).max() <= 1e-4

    def test_bias_gradient_identity(self):
        rng = np.random.default_rng(4)
        for gen in ALL:
            disc = init_discriminator(gen, 1, 6, seed=9)
            x_nu = rng.standard_normal((15, 1))
            x_mu = rng.standard_normal((17, 1))
            analytic, _, _ = grads(disc, gen, x_nu, x_mu)
            h_mu = disc.h_batch(x_mu)
            expected = 1.0 - float(np.asarray(gen.f_prime_inv(h_mu)).mean())
            # the free bias is the last entry of the layout
            assert analytic[-1] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFeatureMajorPasses:
    """The (width, n) in-place passes against the row-major reference formulas."""

    @pytest.mark.parametrize("width", [1, 16])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_matches_row_major_reference(self, gen, dim, width):
        rng = np.random.default_rng(100 * dim + width)
        disc = random_net(gen, dim, width, seed=dim + width)
        x_nu = rng.standard_normal((37, dim)) + 0.5
        x_mu = rng.standard_normal((41, dim))
        assert_close_to_reference(disc.h_batch(x_mu), row_major_forward(disc, x_mu)["h"])
        g, value, se = grads(disc, gen, x_nu, x_mu)
        g_ref, value_ref, se_ref = row_major_grads(disc, gen, x_nu, x_mu)
        assert_close_to_reference(g, g_ref)
        assert value == pytest.approx(value_ref, rel=1e-12, abs=1e-12)
        assert se == pytest.approx(se_ref, rel=1e-12)
        cache = row_major_forward(disc, x_mu)
        dx = row_major_backprop(disc, cache, np.ones_like(cache["h"]), inputs=True)
        assert_close_to_reference(input_grad(disc, x_mu), dx)
        assert_close_to_reference(input_grad(disc, x_mu, np.cos),
                                  np.cos(cache["h"])[:, None] * dx)

    @pytest.mark.parametrize("call", ["grads", "input_grad", "input_grad-outer", "h_batch"])
    @pytest.mark.parametrize("shape", [(30,), (30, 1), (30, 3)], ids=["1d", "n-by-1", "n-by-3"])
    def test_inputs_and_params_left_untouched(self, call, shape):
        rng = np.random.default_rng(12)
        dim = 1 if len(shape) == 1 else shape[1]
        disc = random_net(KL, dim, 4, seed=5)
        x, x_other = rng.standard_normal(shape) + 0.5, rng.standard_normal(shape)
        before = (x.copy(), x_other.copy(), disc.params.copy())
        {"grads": lambda: grads(disc, KL, x, x_other),
         "input_grad": lambda: input_grad(disc, x),
         "input_grad-outer": lambda: input_grad(disc, x, np.cos),
         "h_batch": lambda: disc.h_batch(x)}[call]()
        assert disc.params.flags.writeable  # a write would land, not raise
        for array, copy in zip((x, x_other, disc.params), before):
            assert array.tobytes() == copy.tobytes()

    def test_wrong_input_dimension_names_both(self):
        disc = init_discriminator(KL, 1, 4, seed=0)
        with pytest.raises(DomainError, match="dimension 2 do not fit a net of dimension 1"):
            disc.h_batch(np.zeros((3, 2)))


class TestRowBlocks:
    """h_batch's row blocks leave every output byte unchanged under one BLAS thread."""

    def test_blocked_h_batch_equals_one_full_pass(self):
        drift = run_single_threaded(
            "import json, test_discriminator as t; print(json.dumps(t.blocked_h_drift()))")
        assert json.loads(drift) == []

    @pytest.mark.parametrize("n, blocks", [
        (0, [0]), (1, [1]), (8191, [8191]), (8192, [8192]), (16383, [16383]),
        (16384, [8192, 8192]), (16385, [8192, 8193]), (100003, [8192] * 11 + [9891]),
    ])
    def test_remainder_joins_the_last_block(self, n, blocks, monkeypatch):
        rows, original = [], Discriminator._forward_full
        monkeypatch.setattr(Discriminator, "_forward_full",
                            lambda disc, x: rows.append(len(x)) or original(disc, x))
        assert init_discriminator(KL, 1, 4).h_batch(np.zeros(n)).shape == (n,)
        assert rows == blocks


class TestInputGradients:
    def test_constant_disc_zero_gradient(self):
        disc = Discriminator(JS, 2, 4)
        g = input_grad(disc, np.random.default_rng(0).standard_normal((10, 2)))
        assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("gen", ALL, ids=GENERATOR_NAMES)
    def test_matches_finite_differences_at_probes(self, gen):
        rng = np.random.default_rng(6)
        disc = init_discriminator(gen, 2, 8, seed=11)
        x = rng.standard_normal((100, 2))
        eps = 1e-6
        # grad h, then grad g(h) through the chain rule with outer_deriv = g'
        for outer, outer_deriv in ((lambda h: h, None), (np.sin, np.cos)):
            g = input_grad(disc, x, outer_deriv)
            for j in range(2):
                xp = x.copy(); xp[:, j] += eps
                xm = x.copy(); xm[:, j] -= eps
                fd = (outer(disc.h_batch(xp)) - outer(disc.h_batch(xm))) / (2 * eps)
                scale = np.maximum(np.abs(fd), 1.0)
                assert (np.abs(g[:, j] - fd) / scale).max() <= 1e-4


class TestTraining:
    def test_tabular_identical_distributions(self):
        d = two_point(0.3, 0.7)
        for gen in ALL:
            tab = train(gen, d, d)
            assert isinstance(tab, TabularDiscriminator)
            assert np.allclose(tab.values, float(gen.f_prime(1.0)))
            h = tab.h_for(d)
            value = float(d.weights @ h - d.weights @ np.asarray(gen.conjugate_fn(h)))
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_tabular_1d_support_is_points_on_the_line(self):
        tab = TabularDiscriminator(JS, np.array([0.0, 1.0]), np.array([0.1, 0.2]))
        assert tab.support.shape == (2, 1)
        dist = DiscreteDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert np.array_equal(tab.h_for(dist), [0.2, 0.1])

    @pytest.mark.parametrize("support", [[[0.0], [0.0], [1.0]], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]],
                             ids=["d1", "d2"])
    def test_tabular_repeated_support_point_raises(self, support):
        # h_for used to read the last value of a repeated point
        with pytest.raises(DomainError, match="distinct"):
            TabularDiscriminator(JS, np.array(support), np.array([1.0, 2.0, 3.0]))

    def test_tabular_two_point_example(self):
        nu = two_point(0.5, 0.5)
        mu = two_point(0.25, 0.75)
        tab = train(KL, nu, mu)
        assert np.allclose(tab.values, [1 + math.log(2.0), 1 + math.log(2.0 / 3.0)])
        h = tab.h_for(mu)
        value = float(nu.weights @ h - mu.weights @ np.asarray(KL.conjugate_fn(h)))
        assert value == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-12)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_tabular_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(8)
        for gen in ALL:
            k = int(rng.integers(2, 6))
            support = rng.standard_normal((k, 1))
            wn = rng.uniform(0.1, 1, k); wn /= wn.sum()
            wm = rng.uniform(0.1, 1, k); wm /= wm.sum()
            nu = DiscreteDistribution(support, wn)
            mu = DiscreteDistribution(support, wm)
            tab = exact_tabular(nu, mu, gen)
            # dR/dh_i = nu_i - mu_i f'^-1(h_i) for the per-point class
            g = wn - wm * np.asarray(gen.f_prime_inv(tab.h_for(mu)))
            assert np.abs(g).max() <= 1e-12

    def test_net_learns_gaussian_posterior_shape(self):
        rng = np.random.default_rng(9)
        x_nu = rng.standard_normal((1500, 1)) + 1.0  # N(1, 1)
        x_mu = rng.standard_normal((1500, 1))        # N(0, 1)
        disc = train(JS, x_nu, x_mu,
                     TrainConfig(width=16, steps=500, step_size=0.5, seed=0))
        grid = np.linspace(-1.0, 2.0, 61)[:, None]
        eta, _ = eta_and_h(disc, grid)
        # Bayes posterior of two unit-variance Gaussians is sigmoid(x - 1/2)
        eta_mid, _ = eta_and_h(disc, np.array([[0.5]]))
        assert abs(float(eta_mid[0]) - 0.5) <= 0.05
        assert np.all(np.diff(eta) > -1e-3)
        assert eta[0] < 0.4 and eta[-1] > 0.6

    def test_1d_batches_are_points_on_the_line(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(width=4, steps=5, seed=0)
        disc = train(KL, rng.standard_normal(50), rng.standard_normal(50) + 1.0, cfg)
        assert disc.dim == 1

    def test_training_reports_convergence(self):
        rng = np.random.default_rng(10)
        x_nu = rng.standard_normal((100, 1)) + 0.5
        x_mu = rng.standard_normal((100, 1))
        disc = train(KL, x_nu, x_mu, TrainConfig(width=4, steps=800, step_size=0.05, seed=1))
        assert disc.converged is True

    def test_same_seed_fits_are_byte_identical(self):
        x_nu, x_mu = gaussian_pair(500)
        cfg = TrainConfig(width=8, steps=300, step_size=0.5, seed=3)
        a, b = train(JS, x_nu, x_mu, cfg), train(JS, x_nu, x_mu, cfg)
        assert a.params.tobytes() == b.params.tobytes()
        assert a.converged == b.converged

    @pytest.mark.parametrize("steps", [0, 30, 120])
    def test_steps_cap_the_grads_calls(self, steps, monkeypatch):
        x_nu, x_mu = gaussian_pair(200)
        _, calls = recorded_fit(monkeypatch, x_nu, x_mu,
                                TrainConfig(width=4, steps=steps, step_size=0.5, seed=0))
        assert 1 <= len(calls) <= steps + 1

    def test_negative_step_cap_rejected(self):
        with pytest.raises(DomainError, match="steps must be >= 0"):
            TrainConfig(steps=-1)

    @pytest.mark.parametrize("empty", ["nu", "mu"])
    def test_empty_batch_rejected(self, empty):
        x_nu, x_mu = gaussian_pair(50)
        batches = {"nu": x_nu, "mu": x_mu, empty: np.empty((0, 1))}
        with pytest.raises(DomainError, match="at least one row"):
            train(KL, batches["nu"], batches["mu"], TrainConfig(width=4, steps=5))

    @pytest.mark.parametrize("steps, fires", [(30, False), (600, True)])
    def test_converged_exactly_when_the_rule_fired(self, steps, fires, monkeypatch):
        # 30 steps end before the first window fills; on 4000 rows the rule fires before 600
        x_nu, x_mu = gaussian_pair(4000)
        disc, calls = recorded_fit(monkeypatch, x_nu, x_mu,
                                   TrainConfig(width=16, steps=steps, step_size=0.5, seed=0))
        stall = first_stall(calls)
        assert disc.converged is fires
        if fires:
            assert stall == len(calls) - 1 < steps
        else:
            assert stall is None and len(calls) == steps + 1
        # the parameters of the last evaluation, with no update after it
        assert grads(disc, JS, x_nu, x_mu)[1] == calls[-1][0]

    def test_divergence_raises_with_step_index(self):
        rng = np.random.default_rng(11)
        x_nu = rng.standard_normal((30, 1)) + 3.0
        x_mu = rng.standard_normal((30, 1))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
            train(KL, x_nu, x_mu, TrainConfig(width=8, steps=200, step_size=1e6, seed=0))
        assert exc.value.step == 1  # the first step overshoots; halving comes too late


class TestSerialization:
    @pytest.mark.parametrize("dim, width", [(0, 4), (1, 0), (0, 0)])
    def test_zero_size_net_rejected(self, dim, width):
        with pytest.raises(DomainError, match="dim >= 1 and width >= 1"):
            init_discriminator(KL, dim, width)

    def test_bit_exact_roundtrip(self):
        disc = init_discriminator(JS, 3, 8, seed=21)
        disc.bias = -0.12345678901234567
        doc = discriminator_to_dict(disc)
        back = discriminator_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(disc.params, back.params)
        assert back.bias == disc.bias
        x = np.random.default_rng(2).standard_normal((20, 3))
        assert np.array_equal(disc.h_batch(x), back.h_batch(x))

    def test_file_roundtrip(self, tmp_path):
        disc = init_discriminator(KL, 2, 4, seed=5)
        path = tmp_path / "disc.json"
        save_discriminator(disc, path)
        back = load_discriminator(path)
        x = np.random.default_rng(3).standard_normal((10, 2))
        assert np.array_equal(disc.h_batch(x), back.h_batch(x))
        assert back.generator.name == "kl"
