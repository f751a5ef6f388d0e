"""End-to-end pipelines: identity instances, guided refinement, bounds."""

import math

import numpy as np
import pytest

from season import metrics, refine
from season.distributions import DiscreteDistribution
from season.errors import DomainError
from season.experiments import (
    bound_trial,
    bound_trials,
    concordance_run,
    default_bound_world,
    empirical_from_draws,
    identity_discrete_experiment,
    identity_terms,
    population_rademacher,
    random_discrete_pair,
    refinement_benefit_experiment,
)
from season.generators import GENERATOR_NAMES, get_generator


@pytest.fixture
def lambda_solves(monkeypatch):
    """Counts lambda solves: each one runs `_solve_lambda` through refine or metrics."""
    calls = []
    original = refine._solve_lambda

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (metrics, refine):
        monkeypatch.setattr(module, "_solve_lambda", counted)
    return calls


class TestIdentityPipeline:
    def test_terms_exact_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nu, mu = random_discrete_pair(rng, 3)
            for name in ("kl", "reverse_kl", "js_shifted"):
                t = identity_terms(nu, mu, get_generator(name))
                assert t.residual <= 1e-9
                assert t.tv_to_nu <= 1e-10
                assert abs(t.lambda_h) <= 1e-10
                # all three terms agree with the divergence at the optimum
                assert t.D_fH == pytest.approx(t.gain, abs=1e-9)

    def test_experiment_rows_schema(self):
        rows = identity_discrete_experiment(n_instances=5, seed=1)
        assert len(rows) == 5 * len(GENERATOR_NAMES)
        assert [set(r) for r in rows] == [{"instance_id", "d_H", "D_fH", "gain", "residual",
                                           "lambda_h", "tv_to_nu"}] * len(rows)

    def test_one_lambda_solve_per_instance(self, lambda_solves):
        rows = identity_discrete_experiment(n_instances=100, seed=7)
        assert len(rows) == len(lambda_solves) == 100 * len(GENERATOR_NAMES)

    def test_deterministic_per_seed(self):
        a = identity_discrete_experiment(n_instances=5, seed=2)
        b = identity_discrete_experiment(n_instances=5, seed=2)
        assert a == b


class TestRefinementBenefit:
    def test_small_run_improves(self):
        res = refinement_benefit_experiment(0, k_levels=8, n_train=256,
                                            n_chains=1000, disc_steps=150)
        assert res.improved
        assert res.w1_guided < res.w1_unguided

    def test_keep_samples_shapes(self):
        res = refinement_benefit_experiment(1, k_levels=4, n_train=128,
                                            n_chains=200, disc_steps=60)
        assert res.samples_guided.shape == (200, 1)
        assert res.samples_unguided.shape == (200, 1)

    def test_deterministic(self):
        kw = dict(k_levels=4, n_train=128, n_chains=200, disc_steps=60)
        a = refinement_benefit_experiment(3, **kw)
        b = refinement_benefit_experiment(3, **kw)
        assert np.array_equal(a.samples_guided, b.samples_guided)
        assert a.w1_guided == b.w1_guided


class TestBoundPipeline:
    def test_empirical_draws_are_a_distribution(self):
        population, _ = default_bound_world()
        p_hat = empirical_from_draws(population, 5, 200)
        assert p_hat.weights.sum() == pytest.approx(1.0)
        assert p_hat.n == population.n

    def test_population_rademacher_scaling(self):
        population, _ = default_bound_world()
        est = population_rademacher(population, 200, seed=0)
        # sub-Gaussian scaling sqrt(2/(pi n)) sum sqrt(p) with four points
        approx = math.sqrt(2.0 / (math.pi * 200)) * float(
            np.sqrt(population.weights).sum())
        assert est.value == pytest.approx(approx, rel=0.1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_size_below_one_rejected(self, n):
        population, _ = default_bound_world()
        with pytest.raises(DomainError, match="n >= 1"):
            population_rademacher(population, n)
        with pytest.raises(DomainError, match="n >= 1"):
            bound_trials(3, n=n)

    def test_single_trial_report_fields(self):
        rep = bound_trial(7)
        d = rep.to_dict()
        assert d["slow_rate"] == pytest.approx(0.173082, abs=1e-6)
        assert isinstance(d["holds"], bool)
        # the duality identity keeps D - gain equal to the empirical IPM gap,
        # which is nonnegative
        assert d["D_fH"] - d["gain_If"] >= -1e-9

    @pytest.mark.parametrize("given", ["population", "model"])
    def test_half_given_world_rejected(self, given):
        population, model = default_bound_world()
        world = {"population": population, "model": model}
        with pytest.raises(DomainError, match="both population and model"):
            bound_trial(7, **{given: world[given]})

    def test_one_lambda_solve_per_trial(self, lambda_solves):
        bound_trial(11)
        assert len(lambda_solves) == 1

    def test_trials_mostly_hold(self):
        reports = bound_trials(20, seed=41)
        assert sum(r.holds for r in reports) >= 19
        assert len(reports) == 20

    def test_binding_ball_still_holds(self):
        assert [r.holds for r in bound_trials(10, seed=5, norm=0.25)] == [True] * 10


def _enumerated_rademacher(weights: np.ndarray, n: int, norm: float) -> float:
    """The expected sup by brute force over all (2k)^n (point, sign) sequences.

    A sequence's sup over |h_j| <= norm is norm/n times the sum over points
    of the absolute sum of their signs.
    """
    k = weights.size
    codes = np.indices((2 * k,) * n).reshape(n, -1).T
    points, signs = codes // 2, np.where(codes % 2, 1.0, -1.0)
    prob = np.prod(weights[points] / 2.0, axis=1)
    rows = np.arange(codes.shape[0])
    sums = np.zeros((codes.shape[0], k))
    for i in range(n):
        sums[rows, points[:, i]] += signs[:, i]
    return float(prob @ (norm / n * np.abs(sums).sum(axis=1)))


_POPULATIONS = {
    "default": default_bound_world()[0].weights,
    "random-3": np.random.default_rng(23).dirichlet(np.ones(3)),
    "zero-weight": np.array([0.5, 0.0, 0.5]),
    "one-point": np.array([1.0]),
}


class TestPopulationRademacher:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("name", list(_POPULATIONS))
    def test_matches_enumeration(self, name, n):
        weights = _POPULATIONS[name]
        population = DiscreteDistribution(np.arange(weights.size, dtype=float)[:, None], weights)
        for norm in (1.0, 0.25):
            est = population_rademacher(population, n, norm=norm)
            assert est.stderr == 0.0
            assert abs(est.value - _enumerated_rademacher(weights, n, norm)) <= 1e-12

    def test_large_n_matches_sub_gaussian_limit(self):
        population, _ = default_bound_world()
        n = 10**6
        value = population_rademacher(population, n).value
        limit = math.sqrt(2.0 / (math.pi * n)) * float(np.sqrt(population.weights).sum())
        assert math.isfinite(value)
        assert value == pytest.approx(limit, rel=1e-3)

    def test_seed_does_not_change_the_value(self):
        population, _ = default_bound_world()
        assert population_rademacher(population, 200, seed=0) == \
            population_rademacher(population, 200, seed=1)

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_given_value_matches_default_path(self, seed):
        population, model = default_bound_world()
        rad = population_rademacher(population, 200).value
        given = bound_trial(seed, rademacher=rad, population=population, model=model)
        assert bound_trial(seed) == given


class TestConcordance:
    def test_estimators_agree_within_three_se(self):
        direct, push = concordance_run(0, n_eval=4000, n_train=1500, steps=300)
        assert abs(direct.value - push.value) <= 3.0 * math.hypot(direct.stderr, push.stderr)
        assert direct.stderr > 0 and push.stderr > 0
