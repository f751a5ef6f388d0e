"""The benchmark's workloads: the set-up, one op and the check of each.

Each workload loads a different layer of ``season``:

* ``fit``: one ``concordance_run``; discriminator training is most of it.
* ``sample``: guided and unguided reverse diffusion plus Langevin on the
  refined score, from discriminators trained once in set-up.
* ``exact``: the discrete oracles and scalar searches on tiny instances,
  where per-call Python overhead dominates.

The program gets only the seeds and inputs its public functions take.
Every check is computed here with numpy, at the acceptance-test tolerance,
so a fast but wrong op counts as a failure.

A check returns the names of the conditions an op failed.  Each workload
lists in ``soft_failures`` the statistical acceptance rules among them: a
correct program misses those on a small share of seeds, so such an op is a
statistical miss, not a failed op, and still counts as completed.  The run
stays correct only while the share of ops with a miss is at most
``max_soft_share``.  Every other condition (a wrong value, a non-finite
value, an exception) fails the op, and one failed op makes the run
incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from season import discriminator, distributions, experiments, oracle, refine, samplers
from season.generators import GENERATOR_NAMES, get_generator


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a path of stream ids."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _w1(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein distance of two equal-size 1-d samples."""
    return float(np.abs(np.sort(np.ravel(a)) - np.sort(np.ravel(b))).mean())


@dataclass(frozen=True)
class FitSizes:
    n_train: int = 4000
    width: int = 16
    steps: int = 600
    n_eval: int = 10_000


class Fit:
    """One estimator-concordance run: train, calibrate lambda, two gain estimates."""

    name = "fit"
    nominal_ops_per_s = 0.3  # sizes the traced run; counts then repeat per seed
    # An infinite pushforward estimate is its documented boundary flag: eta
    # is 1 in float64 at some eval point.  Criterion 5's seeds 0-9 miss it.
    # The program misses one of these rules on about 3-6% of op seeds.
    soft_failures = frozenset({"direct_vs_pushforward", "pushforward_at_boundary"})
    max_soft_share = 0.5
    setup_repeats = 3

    def __init__(self, sizes: FitSizes = FitSizes()):
        self.sizes = sizes

    def setup(self, seed: int, work_dir: Path):
        return None  # concordance_run builds its own inputs from the op seed

    def op(self, state, op_seed: int):
        s = self.sizes
        return experiments.concordance_run(op_seed, n_eval=s.n_eval, n_train=s.n_train,
                                           width=s.width, steps=s.steps)

    def check(self, state, op_seed: int, out) -> tuple[list[str], dict]:
        direct, push = out
        if not (math.isfinite(direct.value) and math.isfinite(direct.stderr)):
            return ["nonfinite_direct"], {}
        if math.isnan(push.value):
            return ["nan_pushforward"], {}
        if math.isinf(push.value):
            return ["pushforward_at_boundary"], {}
        se = math.hypot(direct.stderr, push.stderr)
        gap = abs(direct.value - push.value)
        # criterion 5: agree within 3 combined standard errors
        failures = ["direct_vs_pushforward"] if not gap <= 3.0 * se else []
        return failures, {"gain_gap_over_se": gap / se}


# refinement_benefit_experiment's horizon and training step, and the Langevin step.
T_HORIZON = 2.0
LEARNING_RATE = 0.25
LANGEVIN_STEP_SIZE = 1e-2


@dataclass(frozen=True)
class SampleSizes:
    k_levels: int = 16
    n_train: int = 512
    width: int = 16
    steps: int = 300
    n_chains: int = 2000
    langevin_steps: int = 200


@dataclass
class SampleState:
    gen: object
    data: object
    levels: list
    discs: list
    refined: object
    schedule: object
    csv_path: Path


class Sample:
    """Guided and unguided reverse diffusion, Langevin on the refined score, CSV export.

    Set-up trains the per-level discriminators of refinement_benefit_experiment
    and builds the refined model of the last level, so no training runs in an op.
    """

    name = "sample"
    nominal_ops_per_s = 2.0
    soft_failures = frozenset()
    max_soft_share = 0.0
    setup_repeats = 3

    # The data and the deliberately wrong base model of refinement_benefit_experiment.
    MEANS = [[-2.0], [2.0]]
    COVS = [[[0.25]], [[0.25]]]
    DATA_WEIGHTS = [0.5, 0.5]
    BASE_WEIGHTS = [0.25, 0.75]

    def __init__(self, sizes: SampleSizes = SampleSizes()):
        self.sizes = sizes

    def setup(self, seed: int, work_dir: Path) -> SampleState:
        s = self.sizes
        gen = get_generator("js_shifted")
        data = distributions.gaussian_mixture(self.MEANS, self.COVS, self.DATA_WEIGHTS)
        base = distributions.gaussian_mixture(self.MEANS, self.COVS, self.BASE_WEIGHTS)
        schedule = distributions.constant_schedule(1.0, T_HORIZON)
        step = T_HORIZON / s.k_levels
        rng_data, rng_model, rng_noise_d, rng_noise_m = distributions.split_seeds(seed, 4)
        x_data = data.sample(rng_data, s.n_train)
        x_model = base.sample(rng_model, s.n_train)
        discs = []
        for k in range(s.k_levels):
            u = T_HORIZON - (k + 1) * step  # forward time of level tau_{k+1}
            cfg = discriminator.TrainConfig(width=s.width, steps=s.steps, step_size=LEARNING_RATE,
                                            seed=derive_seed(seed, k))
            discs.append(discriminator.train(
                gen, distributions.noise_sample(x_data, schedule, u, rng_noise_d),
                distributions.noise_sample(x_model, schedule, u, rng_noise_m), cfg))
        levels = [distributions.noised_mixture(base, schedule, T_HORIZON - k * step)
                  for k in range(s.k_levels)]
        refined = refine.refine_continuous(base, discs[-1], gen, seed=seed)
        return SampleState(gen=gen, data=data, levels=levels, discs=discs, refined=refined,
                           schedule=schedule, csv_path=work_dir / "guided.csv")

    def op(self, state: SampleState, op_seed: int):
        s = self.sizes
        levels = state.levels

        def score(x, k):
            return levels[k].score(x)

        cfg = samplers.ReverseDiffusionConfig(schedule=state.schedule, K=s.k_levels,
                                              n_chains=s.n_chains, dim=1, seed=op_seed)
        unguided = samplers.reverse_em(score, cfg)
        guided = samplers.reverse_em(score, cfg, state.gen, state.discs)
        chains = samplers.langevin(state.refined.score, samplers.LangevinConfig(
            step_size=LANGEVIN_STEP_SIZE, n_steps=s.langevin_steps,
            n_chains=s.n_chains, dim=1, seed=op_seed))
        samplers.export_samples_csv(state.csv_path, guided, op_seed)
        return unguided, guided, chains

    def held_out(self, op_seed: int) -> np.ndarray:
        """Fresh draws from the data mixture, made here rather than by the program."""
        rng = np.random.default_rng(derive_seed(op_seed, 1))
        n = self.sizes.n_chains
        means = np.asarray(self.MEANS)[rng.choice(2, size=n, p=self.DATA_WEIGHTS), 0]
        return means + math.sqrt(self.COVS[0][0][0]) * rng.standard_normal(n)

    def check(self, state: SampleState, op_seed: int, out) -> tuple[list[str], dict]:
        failures = [f"nonfinite_{name}"
                    for name, batch in zip(("unguided", "guided", "langevin"), out)
                    if not np.isfinite(batch).all()]
        unguided, guided, _ = out
        details = {}
        if not failures:
            x_eval = self.held_out(op_seed)
            w1_u, w1_g = _w1(unguided, x_eval), _w1(guided, x_eval)
            details = {"w1_guided": w1_g, "w1_guided_over_unguided": w1_g / w1_u}
            if not w1_g < w1_u:
                failures.append("guided_not_better")
        # The file must hold this op's guided batch: chain id, value, seed.
        rows = np.loadtxt(state.csv_path, delimiter=",", skiprows=1, ndmin=2)
        n = len(guided)
        expected = np.column_stack([np.arange(n), guided, np.full(n, op_seed)])
        if not (rows.shape == expected.shape and np.array_equal(rows, expected, equal_nan=True)):
            failures.append("csv_content")
        return failures, details


# identity_discrete_experiment's support sizes, bound_trial's sample size and
# the strong-duality grid resolution of criterion 3.
SUPPORT_SIZES = (2, 3, 4)
BOUND_N = 200
RESOLUTION = 1.0 / 200.0


@dataclass
class ExactState:
    gens: list
    population: object
    model: object
    rademacher: float


class Exact:
    """One identity instance, one strong-duality pair and one bound trial, all exact."""

    name = "exact"
    nominal_ops_per_s = 12.0
    # The bound holds with probability at least 1 - delta = 0.95 per trial
    # (criterion 9: at least 95 of 100 trials hold).
    soft_failures = frozenset({"bound_does_not_hold"})
    max_soft_share = 0.05
    # Set-up is mostly the fresh interpreter's imports, which vary by about
    # 25% from one to the next; more repeats steady the median.
    setup_repeats = 9

    def setup(self, seed: int, work_dir: Path) -> ExactState:
        population, model = experiments.default_bound_world()
        rad = experiments.population_rademacher(population, BOUND_N, seed=seed).value
        return ExactState(gens=[get_generator(n) for n in GENERATOR_NAMES],
                          population=population, model=model, rademacher=rad)

    def op(self, state: ExactState, op_seed: int):
        rng = np.random.default_rng(op_seed)
        k = int(rng.choice(SUPPORT_SIZES))
        nu, mu = experiments.random_discrete_pair(rng, k)
        terms = [experiments.identity_terms(nu, mu, gen) for gen in state.gens]
        nu3, mu3 = experiments.random_discrete_pair(rng, 3, floor=0.2)
        duality = [oracle.strong_duality_check(nu3, mu3, gen, oracle.HSpec("ball", 0.5),
                                               RESOLUTION)
                   for gen in state.gens]
        report = experiments.bound_trial(op_seed, n=BOUND_N,
                                         rademacher=state.rademacher,
                                         population=state.population, model=state.model)
        return terms, duality, report

    def check(self, state: ExactState, op_seed: int, out) -> tuple[list[str], dict]:
        terms, duality, report = out
        residual = max(t.residual for t in terms)
        tv = max(t.tv_to_nu for t in terms)
        lam = max(abs(t.lambda_h) for t in terms)
        gap = max(abs(d.dual - d.primal) for d in duality)
        rhs = report.D_fH - report.gain_If + report.rademacher + report.slow_rate
        failures = [name for name, ok in (
            ("identity_residual", residual <= 1e-9),   # criterion 1
            ("tv_to_nu", tv <= 1e-10),                 # criterion 2
            ("lambda", lam <= 1e-10),                  # criterion 2
            ("duality_gap", gap <= 2.0 * RESOLUTION),  # criterion 3
            ("bound_does_not_hold", report.d_H_lhs <= rhs + report.tol),  # criterion 9
        ) if not ok]  # a NaN compares False, so it fails too
        return failures, {"identity_residual": residual, "tv_to_nu": tv, "abs_lambda": lam,
                          "abs_duality_gap": gap, "bound_lhs_minus_rhs": report.d_H_lhs - rhs}


WORKLOADS = {w.name: w for w in (Fit, Sample, Exact)}
