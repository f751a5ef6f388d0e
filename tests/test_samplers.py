"""Samplers: Langevin dynamics, reverse diffusion, Wasserstein metric."""

import csv
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from season.discriminator import Discriminator, init_discriminator
from season.distributions import GaussianMixture, OUSchedule, as_batch
from season.errors import ChainDivergenceError, DomainError
from season.generators import get_generator
from season.refine import refined_score
from season.samplers import (
    LangevinConfig,
    ReverseDiffusionConfig,
    _check_guard,
    export_samples_csv,
    langevin,
    reverse_em,
    w1_1d,
)

JS = get_generator("js_shifted")


class TestLangevin:
    def test_zero_steps_returns_the_prior_draw(self):
        cfg = LangevinConfig(step_size=0.1, n_steps=0, n_chains=3, dim=2, seed=0)
        prior = np.random.default_rng(0).standard_normal((3, 2))
        assert np.array_equal(langevin(lambda x: -x, cfg), prior)

    def test_deterministic_per_seed(self):
        cfg = LangevinConfig(step_size=1e-2, n_steps=50, n_chains=100, dim=1, seed=9)
        a = langevin(lambda x: -x, cfg)
        b = langevin(lambda x: -x, cfg)
        assert np.array_equal(a, b)

    def test_standard_normal_stationary_moments(self):
        cfg = LangevinConfig(step_size=1e-3, n_steps=5000, n_chains=10_000, dim=1, seed=0)
        out = langevin(lambda x: -x, cfg)
        se = out.std(ddof=1) / math.sqrt(cfg.n_chains)
        assert abs(out.mean()) <= 3 * se
        assert abs(out.var(ddof=1) - 1.0) <= 0.05

    def test_zero_score_is_brownian_motion(self):
        cfg = LangevinConfig(step_size=1e-2, n_steps=200, n_chains=20_000, dim=1, seed=1)
        out = langevin(lambda x: np.zeros_like(x), cfg)
        # the standard normal prior plus independent increments of total variance 2 step n
        target = 1.0 + 2.0 * cfg.step_size * cfg.n_steps
        var = out.var(ddof=1)
        se = target * math.sqrt(2.0 / (cfg.n_chains - 1))
        assert abs(var - target) <= 3 * se

    def test_divergence_guard(self):
        cfg = LangevinConfig(step_size=1.0, n_steps=200, n_chains=4, dim=1, seed=2)
        with pytest.raises(ChainDivergenceError):
            langevin(lambda x: 10.0 * x, cfg)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(DomainError, match=f"^dim must be >= 1, got {dim}$"):
            LangevinConfig(step_size=0.1, n_steps=1, n_chains=3, dim=dim)
        with pytest.raises(DomainError, match="^n_steps >= 0 and n_chains >= 1 required$"):
            LangevinConfig(step_size=0.1, n_steps=1, n_chains=0, dim=dim)

    def test_ks_statistic_against_normal_cdf(self):
        cfg = LangevinConfig(step_size=1e-3, n_steps=2000, n_chains=100_000, dim=1, seed=3)
        out = langevin(lambda x: -x, cfg).ravel()
        ks = stats.kstest(out, stats.norm.cdf).statistic
        assert ks <= 0.02


class TestReverseEM:
    def test_unguided_standard_normal_moments(self):
        sched = OUSchedule(1.0, 3.0)
        cfg = ReverseDiffusionConfig(schedule=sched, K=200, n_chains=10_000, dim=1, seed=4)
        out = reverse_em(lambda x, k: -x, cfg)
        se = out.std(ddof=1) / math.sqrt(cfg.n_chains)
        assert abs(out.mean()) <= 3 * se
        var = out.var(ddof=1)
        var_se = math.sqrt(2.0 / (cfg.n_chains - 1))
        # Euler bias at s = T/K inflates the variance to about 1/(1 - s/2)
        assert abs(var - 1.0) <= 3 * var_se + 0.01

    def test_constant_guidance_is_bit_identical(self):
        sched = OUSchedule(1.0, 2.0)
        cfg = ReverseDiffusionConfig(schedule=sched, K=50, n_chains=500, dim=1, seed=5)
        unguided = reverse_em(lambda x, k: -x, cfg)
        neutral = [Discriminator(JS, 1, 4) for _ in range(cfg.K)]
        guided = reverse_em(lambda x, k: -x, cfg, JS, neutral)
        assert np.array_equal(unguided, guided)

    def test_positive_bias_guidance_solves_lambda_per_level(self):
        # the free bias lifts h above sup dom f* = 0 on part of the prior's mass
        disc = init_discriminator(JS, 1, 8, seed=0)
        disc.bias = 0.5
        cfg = ReverseDiffusionConfig(schedule=OUSchedule(1.0, 2.0), K=8,
                                     n_chains=500, dim=1, seed=0)
        prior = np.random.default_rng(0).standard_normal((500, 1))  # the chains' start
        with pytest.raises(DomainError, match="leaves the range"):
            refined_score(lambda y: -y, disc, prior, lam=0.0)
        out = reverse_em(lambda y, k: -y, cfg, JS, [disc] * cfg.K)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        sched = OUSchedule(1.0, 2.0)
        with pytest.raises(DomainError, match=f"^dim must be >= 1, got {dim}$"):
            ReverseDiffusionConfig(schedule=sched, K=2, n_chains=3, dim=dim)
        with pytest.raises(DomainError, match="^K >= 1 and n_chains >= 1 required$"):
            ReverseDiffusionConfig(schedule=sched, K=0, n_chains=3, dim=dim)

    def test_level_misalignment_rejected(self):
        sched = OUSchedule(1.0, 2.0)
        cfg = ReverseDiffusionConfig(schedule=sched, K=10, n_chains=10, dim=1, seed=6)
        with pytest.raises(DomainError):
            reverse_em(lambda x, k: -x, cfg, JS, [Discriminator(JS, 1, 4)] * 4)

    def test_deterministic_per_seed(self):
        sched = OUSchedule(1.0, 1.0)
        cfg = ReverseDiffusionConfig(schedule=sched, K=20, n_chains=50, dim=2, seed=7)
        assert np.array_equal(reverse_em(lambda x, k: -x, cfg),
                              reverse_em(lambda x, k: -x, cfg))

    def test_noised_mixture_scores_recover_mixture(self):
        # with exact per-level scores the reverse chain lands near the data law
        from season.distributions import noised_mixture

        model = GaussianMixture([[-1.0], [1.0]], [[[0.3]], [[0.3]]], [0.5, 0.5])
        sched = OUSchedule(1.0, 3.0)
        K = 150
        levels = [noised_mixture(model, sched, 3.0 - k * 3.0 / K) for k in range(K)]
        cfg = ReverseDiffusionConfig(schedule=sched, K=K, n_chains=20_000, dim=1, seed=8)
        out = reverse_em(lambda x, k: levels[k].score(x), cfg)
        draws = model.sample(9, 20_000)
        assert w1_1d(out, draws) <= 0.05


class TestW1:
    def test_identical_batches(self):
        a = np.random.default_rng(0).standard_normal(100)
        assert w1_1d(a, a) == 0.0

    def test_unit_shift(self):
        assert w1_1d(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0

    def test_shifted_gaussians(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(100_000)
        b = rng.standard_normal(100_000) + 1.0
        assert w1_1d(a, b) == pytest.approx(1.0, abs=0.02)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            w1_1d(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("a, b", [
        ([], []), ([math.nan], [0.0]), ([0.0], [math.inf]), ([-math.inf, 1.0], [0.0, 1.0]),
    ], ids=["empty", "nan", "inf", "minus-inf"])
    def test_empty_or_non_finite_rejected(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="nonempty batches of finite values"):
                w1_1d(np.array(a), np.array(b))


class TestExport:
    def test_csv_schema(self, tmp_path):
        batch = np.array([[0.5, -1.0], [2.0, 3.0]])
        path = tmp_path / "samples.csv"
        export_samples_csv(path, batch, seed=77)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["chain", "x0", "x1", "seed"]
        assert rows[1] == ["0", "0.5", "-1", "77"]
        assert len(rows) == 3

    def test_1d_batch_is_one_chain_per_value(self, tmp_path):
        flat, column = tmp_path / "flat.csv", tmp_path / "column.csv"
        export_samples_csv(flat, np.array([0.1, 0.2, 0.3]), seed=7)
        export_samples_csv(column, np.array([[0.1], [0.2], [0.3]]), seed=7)
        expected = "chain,x0,seed\r\n0,0.10000000000000001,7\r\n1,0.20000000000000001,7\r\n" \
                   "2,0.29999999999999999,7\r\n"
        assert column.read_bytes() == expected.encode()
        assert flat.read_bytes() == column.read_bytes()


def csv_writer_export(path, batch, seed):
    """The samples file as csv.writer writes it: the reference for its bytes."""
    batch = as_batch(batch)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain"] + [f"x{j}" for j in range(batch.shape[1])] + ["seed"])
        for i, row in enumerate(batch):
            writer.writerow([i] + [f"{v:.17g}" for v in row] + [seed])


EDGE_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1, -2.5, 1.0]


class TestExportBytes:
    @pytest.mark.parametrize("seed", [7, np.int64(2**40)], ids=["int", "int64"])
    @pytest.mark.parametrize("shape", [(10, 1), (5, 2), (0, 1), (0, 2), (3, 0)])
    def test_equal_to_csv_writer(self, tmp_path, shape, seed):
        batch = np.resize(np.array(EDGE_VALUES), shape)
        export_samples_csv(tmp_path / "got.csv", batch, seed)
        csv_writer_export(tmp_path / "want.csv", batch, seed)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_random_batch_equal_to_csv_writer(self, tmp_path):
        scales = 10.0 ** np.arange(-8.0, 8.0, 0.008)[:, None]
        batch = np.random.default_rng(3).standard_normal((2000, 1)) * scales
        export_samples_csv(tmp_path / "got.csv", batch, 11)
        csv_writer_export(tmp_path / "want.csv", batch, 11)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def two_mask_guard(x, step):
    """The guard as two masks, isfinite and |x| > 1e6: the reference."""
    bad = (~np.isfinite(x) | (np.abs(x) > 1e6)).any(axis=1)
    if bad.any():
        raise ChainDivergenceError(int(np.flatnonzero(bad)[0]), step)


class TestGuard:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e6, -1e6,
                                       np.nextafter(1e6, math.inf), -np.nextafter(1e6, math.inf)])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_same_chain_and_step_as_two_masks(self, value, dim):
        x = np.random.default_rng(dim).standard_normal((50, dim))
        x[17, dim - 1] = value
        x[31, 0] = value
        outcomes = []
        for guard in (_check_guard, two_mask_guard):
            try:
                guard(x, 4)
                outcomes.append(None)
            except ChainDivergenceError as exc:
                outcomes.append((exc.chain_index, exc.step))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (None if abs(value) == 1e6 else (17, 4))  # exactly 1e6 passes


def test_nan_score_stops_at_guard():
    def nan_score(x, k=None):
        return np.full_like(x, np.nan)

    with pytest.raises(ChainDivergenceError):
        langevin(nan_score, LangevinConfig(step_size=1e-2, n_steps=5, n_chains=4, seed=0))
    cfg = ReverseDiffusionConfig(schedule=OUSchedule(1.0, 1.0), K=5, n_chains=4)
    with pytest.raises(ChainDivergenceError):
        reverse_em(nan_score, cfg)
