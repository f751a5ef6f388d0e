"""Property tests: support alignment and the lambda normalizer at domain edges."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from season.discriminator import TabularDiscriminator
from season.distributions import DiscreteDistribution, _row_positions, discrete_ratio
from season.errors import DegenerateDistributionError, LambdaSolveError
from season.generators import GENERATOR_NAMES, get_generator
from season.refine import solve_lambda

SETTINGS = settings(max_examples=80, deadline=None)


def draw_weights(data, k, min_value=0.0):
    """k weights summing to 1, zeros allowed when min_value is 0."""
    raw = np.array(data.draw(st.lists(st.floats(min_value, 1.0), min_size=k, max_size=k)))
    if raw.sum() == 0.0:
        raw[data.draw(st.integers(0, k - 1))] = 1.0
    return raw / raw.sum()


@SETTINGS
@given(data=st.data())
def test_alignment_and_ratio_follow_permutations(data):
    k = data.draw(st.integers(2, 6))
    dim = data.draw(st.integers(1, 2))
    rows = data.draw(st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * dim),
                              min_size=k, max_size=k, unique=True))
    support = np.array(rows, dtype=float)
    perm = np.array(data.draw(st.permutations(range(k))))

    assert np.array_equal(_row_positions(support[perm], support), perm)
    assert np.array_equal(_row_positions(support, support[perm]), np.argsort(perm))
    assert _row_positions(np.full((1, dim), 11.0), support).tolist() == [-1]

    wn = draw_weights(data, k)
    wm = draw_weights(data, k, min_value=0.01)
    nu = DiscreteDistribution(support, wn)
    mu = DiscreteDistribution(support, wm)
    ratio = discrete_ratio(nu, mu)
    assert np.array_equal(discrete_ratio(nu, DiscreteDistribution(support[perm], wm[perm])),
                          ratio[perm])
    assert np.array_equal(discrete_ratio(DiscreteDistribution(support[perm], wn[perm]), mu),
                          ratio)


def h_values(gen):
    """-inf, ordinary values, and values just below sup dom f* (or large ones for kl)."""
    edge = gen.conjugate_domain[1]
    if math.isfinite(edge):
        near_edge = st.sampled_from([edge - 1e-300, edge - 1e-16, edge - 1e-8, edge - 1e-3])
        ordinary = st.floats(-30.0, edge, exclude_max=True)
    else:
        near_edge = st.sampled_from([300.0, 700.0])
        ordinary = st.floats(-30.0, 30.0)
    return st.one_of(st.just(-math.inf), ordinary, near_edge)


@SETTINGS
@given(data=st.data(), name=st.sampled_from(GENERATOR_NAMES))
def test_solve_lambda_returns_a_root_or_raises(data, name):
    gen = get_generator(name)
    k = data.draw(st.integers(1, 6))
    w = draw_weights(data, k)
    h = np.array(data.draw(st.lists(h_values(gen), min_size=k, max_size=k)))
    mu = DiscreteDistribution(np.arange(k, dtype=float), w)
    try:
        lam = solve_lambda(TabularDiscriminator(mu.support, h), gen, mu)
    except (LambdaSolveError, DegenerateDistributionError):
        return
    live = w > 0
    s = h[live] - lam
    assert np.all(s < gen.conjugate_domain[1])
    assert abs(float(w[live] @ np.asarray(gen.f_prime_inv(s))) - 1.0) <= 1e-10
