"""Discriminator-guided refinement of generative models at desk scale.

The package splits into f-divergence generator machinery (`generators`),
toy distributions and the forward noising process (`distributions`),
discriminator nets with exact gradients (`discriminator`), refined-model
construction (`refine`), samplers (`samplers`), divergence and bound
estimators (`metrics`), brute-force oracles (`oracle`), and the
experiment pipelines plus CLI (`experiments`, `verify`, `cli`).
"""

from .generators import (
    GENERATOR_NAMES,
    GeneratorSpec,
    bayes_pointwise_loss,
    eval_f,
    get_generator,
    inverse_link,
    link,
)
from .distributions import (
    DiscreteDistribution,
    GaussianMixture,
    OUSchedule,
    constant_schedule,
    discrete_ratio,
    gaussian_mixture,
    noise_sample,
    ou_params,
)
from .discriminator import (
    Discriminator,
    TabularDiscriminator,
    TrainConfig,
    grads,
    input_grad,
    objective_R,
    train,
)
from .refine import (
    RefinedModel,
    refine_continuous,
    refine_discrete,
    refined_density_unnormalized,
    refined_score,
    solve_lambda,
)
from .samplers import LangevinConfig, ReverseDiffusionConfig, langevin, reverse_em, w1_1d
from .metrics import (
    BoundReport,
    ConvergenceBoundInputs,
    convergence_bound,
    est_DfH,
    est_gain_direct,
    est_gain_pushforward,
    exact_fdiv,
    fdiv_kl_lemma_check,
    generalization_report,
    vi_duality_check,
)
from .oracle import HSpec, dual_grid_min, primal_sup_tabular

__version__ = "0.1.0"
