"""Property tests: support alignment and the lambda normalizer at domain edges."""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from season import distributions
from season.discriminator import TabularDiscriminator, exact_tabular
from season.distributions import DiscreteDistribution, _row_positions, discrete_ratio
from season.errors import (
    AbsoluteContinuityError,
    DegenerateDistributionError,
    DomainError,
    LambdaSolveError,
)
from season.experiments import identity_terms, random_discrete_pair
from season.generators import GENERATOR_NAMES, get_generator
from season.oracle import HSpec, strong_duality_check
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


def test_byte_equal_support_gets_a_fresh_writable_arange():
    mu = DiscreteDistribution(np.array([[0.5, 1.0], [-1.0, 0.0], [2.0, 3.0]]), np.full(3, 1 / 3))
    first = _row_positions(mu.support.copy(), mu.support)
    assert first.tolist() == [0, 1, 2]
    assert first.flags.writeable and not np.shares_memory(first, mu.support)
    first[0] = 7  # metrics._aligned_weights writes into the positions
    assert _row_positions(mu.support.copy(), mu.support).tolist() == [0, 1, 2]


def shared_and_rebuilt(seed):
    """A seeded pair (nu, mu) sharing one support, and the same pair on distinct copies.

    1-8 points in 1 or 2 dimensions; nu has zero weights, mu has zero
    weights where nu has none, and about one pair in four puts some of nu's
    mass where mu has weight 0.  The rebuilt pair's supports are distinct,
    byte-equal arrays, so every alignment on it is a row lookup.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    support = rng.standard_normal((k, int(rng.integers(1, 3))))
    wn = rng.uniform(0.05, 1.0, k) * (rng.uniform(size=k) > 0.3)
    if not wn.any():
        wn[rng.integers(k)] = 1.0
    wm = rng.uniform(0.05, 1.0, k) * ((wn > 0) | (rng.uniform(size=k) > 0.5))
    if rng.uniform() < 0.25 and np.count_nonzero(wm) > 1:  # stray mass
        wm[rng.choice(np.flatnonzero((wn > 0) & (wm > 0)))] = 0.0
    wn, wm = wn / wn.sum(), wm / wm.sum()
    nu = DiscreteDistribution(support, wn)
    return (nu, nu.reweighted(wm)), (DiscreteDistribution(support, wn),
                                     DiscreteDistribution(support, wm))


def outcome(fn, *args):
    """The bytes of fn's result (an array, or a dataclass by its repr), or its error."""
    try:
        out = fn(*args)
    except (AbsoluteContinuityError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return repr(out)


def shared_support_outcomes(nu, mu, gen, tabular):
    """discrete_ratio, h_for on nu and mu, identity_terms and strong_duality_check."""
    try:
        tab = tabular(nu, mu, gen)
    except AbsoluteContinuityError as exc:
        tab_outcomes = [(type(exc).__name__, str(exc))] * 2
    else:
        tab_outcomes = [outcome(tab.h_for, nu), outcome(tab.h_for, mu)]
    return [outcome(discrete_ratio, nu, mu), *tab_outcomes,
            outcome(identity_terms, nu, mu, gen),
            outcome(strong_duality_check, nu, mu, gen, HSpec("ball", 0.5))]


def rebuilt_tabular(nu, mu, gen):
    """exact_tabular's values on a table that checks and copies mu's support."""
    return TabularDiscriminator(gen, mu.support, exact_tabular(nu, mu, gen).values)


@pytest.mark.parametrize("gen", [get_generator(n) for n in GENERATOR_NAMES],
                         ids=GENERATOR_NAMES)
def test_a_shared_support_gives_the_bytes_of_a_rebuilt_one(gen):
    seen = Counter()
    for seed in range(60):
        (nu, mu), (nu_b, mu_b) = shared_and_rebuilt(seed)
        assert nu.support is mu.support and nu_b.support is not mu_b.support
        shared = shared_support_outcomes(nu, mu, gen, exact_tabular)
        assert shared == shared_support_outcomes(nu_b, mu_b, gen, rebuilt_tabular)
        seen.update("raised" if isinstance(o, tuple) and len(o) == 2 else "returned"
                    for o in shared)
    assert seen["raised"] > 0 and seen["returned"] > 0


def test_a_shared_support_is_neither_looked_up_nor_rechecked(monkeypatch):
    nu, mu = random_discrete_pair(np.random.default_rng(5), 4)
    calls = Counter()
    for name in ("_row_positions", "_checked_support"):
        original = getattr(distributions, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        # wherever a season module binds the name: distributions, discriminator, metrics
        for module in [m for key, m in sys.modules.items() if key.startswith("season")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for name in GENERATOR_NAMES:
        identity_terms(nu, mu, get_generator(name))
        strong_duality_check(nu, mu, get_generator(name), HSpec("ball", 0.5))
    assert calls == Counter()
    # the counters count: a rebuilt mu is checked once and looked up once
    discrete_ratio(nu, DiscreteDistribution(mu.support, mu.weights))
    assert calls == Counter({"_row_positions": 1, "_checked_support": 1})


@pytest.mark.parametrize("points, reference, expected", [
    ([[-0.0], [1.0]], [[0.0], [1.0]], [-1, 1]),
    ([[1.0, 0.0], [2.0, -0.0]], [[1.0, 0.0], [2.0, 0.0]], [0, -1]),
], ids=["d1", "d2"])
def test_signed_zero_rows_do_not_match(points, reference, expected):
    # same shape, different bytes: the row lookup runs and misses the -0.0 row
    assert _row_positions(np.array(points), np.array(reference)).tolist() == expected


@pytest.mark.parametrize("support", [[[0.0], [1.0], [0.0]], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]],
                         ids=["d1", "d2"])
def test_repeated_support_row_raises(support):
    with pytest.raises(DomainError, match="distinct"):
        DiscreteDistribution(np.array(support), np.full(3, 1 / 3))


def dict_path_ratio(nu, mu):
    """d nu / d mu by an explicit row-bytes lookup, point by point."""
    index = {row.tobytes(): i for i, row in enumerate(mu.support)}
    nu_aligned = np.zeros(mu.n)
    for row, w in zip(nu.support, nu.weights):
        if row.tobytes() in index:
            nu_aligned[index[row.tobytes()]] = w
        elif w > 0:
            raise AbsoluteContinuityError(f"nu has mass {w} at {row} outside mu's support")
    ratio = np.zeros(mu.n)
    for i, (w_nu, w_mu) in enumerate(zip(nu_aligned, mu.weights)):
        if w_mu == 0 and w_nu > 0:
            raise AbsoluteContinuityError(f"nu has mass at {mu.support[i]} where mu has weight 0")
        if w_mu > 0:
            ratio[i] = w_nu / w_mu
    return ratio


@SETTINGS
@given(data=st.data())
def test_ratio_on_partial_supports_matches_dict_path(data):
    dim = data.draw(st.integers(1, 2))
    pool = np.array(data.draw(st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * dim),
                                       min_size=5, max_size=5, unique=True)), dtype=float)
    rows = st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True)
    mu_rows = data.draw(rows)
    mode = data.draw(st.sampled_from(["same", "subset", "any"]))
    if mode == "same":  # byte-equal supports take the arange shortcut
        nu_rows = mu_rows
    elif mode == "subset":
        nu_rows = data.draw(st.permutations(mu_rows))[:data.draw(st.integers(1, len(mu_rows)))]
    else:
        nu_rows = data.draw(rows)
    wn = draw_weights(data, len(nu_rows))
    outside = ~np.isin(nu_rows, mu_rows)
    if data.draw(st.booleans()) and wn[~outside].sum() > 0:  # zero mass off mu's support
        wn[outside] = 0.0
        wn /= wn.sum()
    mu = DiscreteDistribution(pool[mu_rows], draw_weights(data, len(mu_rows)))
    nu = DiscreteDistribution(pool[nu_rows], wn)
    with np.errstate(over="ignore"):  # a subnormal mu weight gives an inf ratio on both paths
        try:
            expected = dict_path_ratio(nu, mu)
        except AbsoluteContinuityError as exc:
            with pytest.raises(AbsoluteContinuityError) as raised:
                discrete_ratio(nu, mu)
            assert str(raised.value) == str(exc)
            return
        assert np.array_equal(discrete_ratio(nu, mu), expected)


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
        lam = solve_lambda(TabularDiscriminator(gen, mu.support, h), gen, mu)
    except (LambdaSolveError, DegenerateDistributionError):
        return
    live = w > 0
    s = h[live] - lam
    assert np.all(s < gen.conjugate_domain[1])
    assert abs(float(w[live] @ np.asarray(gen.f_prime_inv(s))) - 1.0) <= 1e-10
