"""Small feed-forward discriminators with exact reverse-mode gradients.

The net is two hidden tanh layers plus a scalar readout z(x).  Its "link"
head routes z through the composite link of the attached generator:

    eta(x) = sigmoid(z(x))          class-probability estimate
    h(x)   = f'(eta / (1 - eta)) + b = f'(exp(z(x))) + b

The free additive bias b realizes closure of the discriminator class under
additive constants.  The link parametrization keeps h - b inside the range
of f', so f'^-1(h - b) >= 0 and f* stays finite wherever it must.

All parameters live in one flat float64 vector, `params` (layout in
`_param_views`); w1, b1, w2, b2, w3 are views into it and b3, b read from
it.  Training, copying, freezing and checkpoints handle that one array,
and parameter gradients come back flat in the same layout.

All gradients (parameters and inputs) are exact reverse-mode, written out
by hand; the test suite checks every one against central finite
differences.  A backward pass builds either the parameter gradient or the
input gradient, never both.

Both passes hold the hidden activations feature-major, shape (width, n),
so every bias add, tanh and sum over the points runs along contiguous
rows of n, and they update them in place.  The forward pass allocates
one (width, n) array per layer.  The backward pass uses the cached
activations as its scratch and allocates only dz1, so a forward pass's
cache serves one backward pass.  Neither pass writes to the input points
or to `params`.

`h_batch` runs the net over blocks of _BLOCK_ROWS = 8,192 rows, the
remainder joining the last block (8,192 to 16,383 rows), so a 100k-row
batch holds (width, 16,383) activations, not (width, 100k).  Each block
starts at a multiple of 8,192 rows and is long enough to take the whole
batch's kernels, so under one BLAS thread the result equals one full
pass byte for byte.  Other splits drift in the last bit: a 1-row block
takes matrix-vector kernels, and equal-size blocks shift rows against
the kernels' unrolling.  With more BLAS threads, even one full pass
depends on the thread count.

Training is plain gradient ascent on `params` that halves the step
whenever the objective decreases.  `TrainConfig.steps` caps the number of
updates; training stops earlier once the objective R has gained less than
STOP_FRACTION times its own Monte Carlo standard error over the last
STOP_WINDOW steps.  That standard error, sqrt(var(h_nu) / n_nu +
var(f*(h_mu)) / n_mu), comes from the per-row terms of the forward pass
that gives R, so the rule costs no extra pass, and it is deterministic
per seed.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .distributions import (
    DiscreteDistribution,
    _alignment,
    _checked_support,
    _json_numbers,
    as_batch,
    as_generator,
    discrete_ratio,
)
from .errors import DomainError, TrainingDivergedError, malformed_input
from .generators import GeneratorSpec, get_generator

logger = logging.getLogger(__name__)

CLAMP_MARGIN = 1e-6
STOP_WINDOW = 50  # steps over which the objective's gain is measured
STOP_FRACTION = 0.05  # stop once that gain is below this fraction of one SE
_BLOCK_ROWS = 8192  # h_batch's block length in rows

__all__ = [
    "Discriminator",
    "TabularDiscriminator",
    "TrainConfig",
    "init_discriminator",
    "grads",
    "input_grad",
    "train",
    "exact_tabular",
    "save_discriminator",
    "load_discriminator",
]


def _param_views(flat: np.ndarray, dim: int, width: int) -> list[np.ndarray]:
    """Views w1, b1, w2, b2, w3, b3 and b into a vector laid out like `params`.

    This is the one definition of the flat layout: layer by layer, weights
    before bias, as a checkpoint lists them, then the free bias b.  The
    gradient of `_backprop` follows it.
    """
    shapes = [(width, dim), (width,), (width, width), (width,), (width,), (), ()]
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise DomainError(f"{flat.size} parameters do not fit a net of dim {dim} "
                          f"and width {width} ({sum(sizes)} expected)")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


@dataclass
class Discriminator:
    """Two-hidden-layer tanh net with the link head.

    `params` holds every parameter (zeros when None); the all-zero net has
    eta = 1/2 and h = f'(1) everywhere, the neutral constant.  Mutable only
    during training; `freeze` makes it read-only and the instance safe to
    share across threads.
    """

    generator: GeneratorSpec
    dim: int
    width: int
    params: Optional[np.ndarray] = None
    converged: Optional[bool] = None

    def __post_init__(self):
        if self.generator is None:
            raise DomainError("the link head requires a generator")
        if self.dim < 1 or self.width < 1:
            raise DomainError(f"a net needs dim >= 1 and width >= 1, "
                              f"got dim={self.dim}, width={self.width}")
        if self.params is None:
            self.params = np.zeros(self.width * (self.dim + self.width + 3) + 2)
        self._views = _param_views(self.params, self.dim, self.width)
        self.w1, self.b1, self.w2, self.b2, self.w3, self._b3, self._bias = self._views

    @property
    def b3(self) -> float:
        return float(self._b3)

    @property
    def bias(self) -> float:
        return float(self._bias)

    @bias.setter
    def bias(self, value: float) -> None:
        self._bias[...] = value

    def _forward_full(self, x: np.ndarray) -> dict:
        x = as_batch(x)
        if x.shape[1] != self.dim:
            raise DomainError(f"points of dimension {x.shape[1]} do not fit a net of "
                              f"dimension {self.dim}")
        # np.dot, not @: at d = 1 matmul takes the (1, n) view x.T through its non-BLAS loop
        a1 = np.dot(self.w1, x.T)
        a1 += self.b1[:, None]
        np.tanh(a1, out=a1)
        a2 = self.w2 @ a1
        a2 += self.b2[:, None]
        np.tanh(a2, out=a2)
        z3 = self.w3 @ a2 + self.b3
        h = self.generator.link_of_logit(z3) + self.bias
        return {"x": x, "a1": a1, "a2": a2, "z3": z3, "h": h}

    def h_batch(self, x: np.ndarray) -> np.ndarray:
        """h in blocks of _BLOCK_ROWS rows, the remainder joining the last (module docstring)."""
        x = as_batch(x)
        cuts = np.arange(_BLOCK_ROWS, len(x) - _BLOCK_ROWS + 1, _BLOCK_ROWS)
        return np.concatenate([self._forward_full(block)["h"] for block in np.split(x, cuts)])

    def _backprop(self, cache: dict, dh: Optional[np.ndarray]) -> np.ndarray:
        """Push dL/dh back through the net.

        With dh given, returns the parameter gradient laid out like params.
        dh=None means dL/dh = 1 at every row and returns the (n, d) input
        gradient instead (the pass of `input_grad`), skipping the
        multiplication by ones and the parameter products.  The pass
        consumes the cache: a2 becomes dz2 = w3 dz3 (1 - a2^2) and a1
        becomes 1 - a1^2 in place, so dz1 is its one new (width, n) array.
        """
        z3, a2, a1, x = (cache[k] for k in ("z3", "a2", "a1", "x"))
        dz3 = np.asarray(self.generator.link_of_logit_deriv(z3))
        if dh is not None:
            dz3 = dh * dz3
        g_w3 = None if dh is None else a2 @ dz3
        dz2 = np.multiply(a2, a2, out=a2)
        np.subtract(1.0, dz2, out=dz2)
        dz2 *= self.w3[:, None]
        dz2 *= dz3
        g_w2 = None if dh is None else dz2 @ a1.T
        dz1 = self.w2.T @ dz2
        tanh_deriv = np.multiply(a1, a1, out=a1)
        np.subtract(1.0, tanh_deriv, out=tanh_deriv)
        dz1 *= tanh_deriv
        if dh is None:
            return (self.w1.T @ dz1).T
        # in the order of _param_views; concatenate is far cheaper than writing views
        return np.concatenate((dz1 @ x, dz1.sum(axis=1), g_w2, dz2.sum(axis=1),
                               g_w3, dz3.sum(), dh.sum()), axis=None)

    def copy(self) -> "Discriminator":
        return Discriminator(self.generator, self.dim, self.width, self.params.copy())

    def freeze(self) -> "Discriminator":
        for array in (self.params, *self._views):
            array.setflags(write=False)
        return self


@dataclass
class TabularDiscriminator:
    """One free value per support point; realizes the rich class exactly.

    Support points follow `DiscreteDistribution`'s rule: finite, distinct,
    -0.0 read as 0.0, stored read-only.  Values may be -inf where the ratio
    vanishes.  A support is checked once, at its first construction: the
    constructor checks and copies the one it is given, while the exact
    oracles (`exact_tabular`, `oracle.primal_sup_tabular`) build theirs on
    mu's own support through `_tabular_on`, with no second check.  A
    distribution that shares that support is aligned by identity.
    """

    generator: GeneratorSpec
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.support = _checked_support(self.support)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.support.shape[0],):
            raise DomainError("one value per support point required")

    def h_for(self, dist: DiscreteDistribution) -> np.ndarray:
        """Values aligned to dist.support; every point must be known.

        dist's support, when it is this table's own array, takes a copy of
        the values with no lookup.
        """
        index = _alignment(dist.support, self.support)
        if index is None:
            return self.values.copy()
        if (index < 0).any():
            row = dist.support[np.flatnonzero(index < 0)[0]]
            raise DomainError(f"discriminator undefined at support point {row}")
        return self.values[index]


def _tabular_on(gen: GeneratorSpec, mu: DiscreteDistribution,
                values: np.ndarray) -> TabularDiscriminator:
    """A tabular discriminator on mu's own support, shared as `reweighted` shares it.

    That support was checked when mu was built, so it is not checked again;
    values must already be one float per point.
    """
    tab = object.__new__(TabularDiscriminator)
    tab.generator, tab.support, tab.values = gen, mu.support, values
    return tab


def _h_values(disc, target) -> np.ndarray:
    """h of a net or tabular discriminator on a finite distribution or a sample batch.

    A finite target gives h on its support points; tabular discriminators
    are defined on finite supports only.
    """
    if isinstance(disc, TabularDiscriminator):
        if not isinstance(target, DiscreteDistribution):
            raise DomainError("tabular discriminators evaluate on distributions, not batches")
        return disc.h_for(target)
    if isinstance(target, DiscreteDistribution):
        target = target.support
    return disc.h_batch(target)


@dataclass(frozen=True)
class TrainConfig:
    """Net width, step cap, initial step size (finite, > 0) and initialization seed.

    steps is the maximum number of gradient steps: training stops earlier
    when the objective stalls within its Monte Carlo error (module
    docstring), so a fit makes at most steps + 1 objective evaluations.
    """

    width: int = 32
    steps: int = 500
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if self.width < 1:
            raise DomainError(f"width must be >= 1, got {self.width}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise DomainError(f"step_size must be finite and > 0, got {self.step_size}")


def init_discriminator(gen: GeneratorSpec, dim: int, width: int, seed=0) -> Discriminator:
    """Gaussian weights scaled by 1/sqrt(fan-in), zero biases."""
    rng = as_generator(seed)
    disc = Discriminator(gen, dim, width)
    for weights, fan_in in ((disc.w1, dim), (disc.w2, width), (disc.w3, width)):
        weights[...] = rng.standard_normal(weights.shape) / math.sqrt(fan_in)
    return disc


def _clamped_mu_values(gen: GeneratorSpec, h_mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip h into the conjugate domain with a safety margin.

    Returns (clamped values, pass-through mask for gradients).
    """
    hi = gen.conjugate_domain[1]
    if not math.isfinite(hi):
        return h_mu, np.ones_like(h_mu, dtype=bool)
    limit = hi - CLAMP_MARGIN
    mask = h_mu < limit
    if not mask.all():
        logger.warning(
            "clamped %d/%d discriminator outputs into dom f* (bias pushed h past %g)",
            int((~mask).sum()), h_mu.size, limit,
        )
    return np.minimum(h_mu, limit), mask


def _check_generator(disc, gen: Optional[GeneratorSpec]) -> None:
    """Raise DomainError unless gen is disc's own generator, compared by name."""
    given = getattr(gen, "name", None)
    if given != disc.generator.name:
        raise DomainError(f"generator {given!r} does not match the discriminator's "
                          f"generator {disc.generator.name!r}")


def grads(disc: Discriminator, gen: GeneratorSpec, samples_nu: np.ndarray,
          samples_mu: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gradient, value and SE of R = mean_nu[h] - mean_mu[f* o h] on two batches.

    This is the one evaluator of R on sample batches, with h_mu clamped into
    dom f*.  The exact gradient is laid out like disc.params; the Monte Carlo
    standard error is sqrt(var(h_nu) / n_nu + var(f*(h_mu)) / n_mu).
    gen must be disc.generator (DomainError otherwise); the benchmark's
    tracer reads it by position, so it stays only until the next change
    to the benchmark.
    """
    _check_generator(disc, gen)
    # the nu pass runs back before the mu pass runs forward: one cache is live at a time
    cache = disc._forward_full(samples_nu)
    h_nu = cache["h"]
    g_nu = disc._backprop(cache, np.full(h_nu.size, 1.0 / h_nu.size))
    cache = disc._forward_full(samples_mu)
    h_mu, mask = _clamped_mu_values(gen, cache["h"])
    conj = np.asarray(gen.conjugate_fn(h_mu))
    value = float(h_nu.mean() - conj.mean())
    se = math.sqrt(h_nu.var() / h_nu.size + conj.var() / conj.size)
    # d/dh of -mean f*(h) is -f'^-1(h)/n, zero where the clamp is active
    dmu = -np.asarray(gen.f_prime_inv(h_mu)) * mask / h_mu.size
    g_mu = disc._backprop(cache, dmu)
    return g_nu + g_mu, value, se


def input_grad(disc: Discriminator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h and its exact gradient with respect to the inputs, shapes (n,) and (n, d).

    One forward pass over the whole batch gives h, and one input-only
    backward pass its gradient.  Below 16,384 rows `h_batch` runs the
    same single pass, so its h has the same bytes.
    """
    cache = disc._forward_full(x)
    return cache["h"], disc._backprop(cache, None)


def exact_tabular(nu: DiscreteDistribution, mu: DiscreteDistribution,
                  gen: GeneratorSpec) -> TabularDiscriminator:
    """Closed-form optimum h_i = f'(nu_i / mu_i) on mu's support; -inf where nu vanishes."""
    return _tabular_on(gen, mu, np.asarray(gen.f_prime(discrete_ratio(nu, mu))))


def _ascend(disc: Discriminator, x_nu: np.ndarray, x_mu: np.ndarray,
            config: TrainConfig) -> Discriminator:
    """Gradient ascent on disc.params under the stopping rule of the module docstring.

    Each step evaluates R, its SE and its gradient in one `grads` call.  When
    the rule fires, or when config.steps updates are done, the parameters
    just evaluated are returned frozen, with `converged` telling whether
    the rule fired.
    """
    lr = float(config.step_size)
    history: list[float] = []
    for step in range(config.steps + 1):
        g, value, se = grads(disc, disc.generator, x_nu, x_mu)
        if not math.isfinite(value):
            raise TrainingDivergedError(step)
        stalled = (len(history) >= STOP_WINDOW
                   and value - history[-STOP_WINDOW] < STOP_FRACTION * se)
        if stalled or step == config.steps:
            break
        if history and value < history[-1]:
            lr *= 0.5
        history.append(value)
        disc.params += lr * g
    disc.converged = stalled
    return disc.freeze()


def train(gen: GeneratorSpec, data_nu, data_mu, config: TrainConfig = TrainConfig()
          ) -> Union[Discriminator, TabularDiscriminator]:
    """Recipe step one: fit the discriminator between data and model.

    Two discrete distributions short-circuit to the closed-form tabular
    optimum.  Sample batches train a net by plain gradient ascent on the
    variational objective, for at most config.steps steps.
    """
    if isinstance(data_nu, DiscreteDistribution) and isinstance(data_mu, DiscreteDistribution):
        return exact_tabular(data_nu, data_mu, gen)
    x_nu, x_mu = as_batch(data_nu), as_batch(data_mu)
    if x_nu.shape[1] != x_mu.shape[1]:
        raise DomainError("sample batches have mismatched dimensions")
    if len(x_nu) == 0 or len(x_mu) == 0:
        raise DomainError("sample batches need at least one row")
    disc = init_discriminator(gen, x_nu.shape[1], config.width, config.seed)
    return _ascend(disc, x_nu, x_mu, config)


_CHECKPOINT_VERSION = 1


def discriminator_to_dict(disc: Union[Discriminator, TabularDiscriminator]) -> dict:
    if isinstance(disc, TabularDiscriminator):
        return {
            "version": _CHECKPOINT_VERSION,
            "kind": "tabular",
            "generator": disc.generator.name,
            "support": disc.support.tolist(),
            "values": disc.values.tolist(),
        }
    return {
        "version": _CHECKPOINT_VERSION,
        "kind": "net",
        "generator": disc.generator.name,
        "activation": "tanh",
        # earlier readers of version 1 require both keys; the link head ignores norm_bound
        "head": "link",
        "norm_bound": 1.0,
        "bias": disc.bias,
        "layers": [
            {"shape": [disc.width, disc.dim], "weights": disc.w1.ravel().tolist(),
             "bias": disc.b1.tolist()},
            {"shape": [disc.width, disc.width], "weights": disc.w2.ravel().tolist(),
             "bias": disc.b2.tolist()},
            {"shape": [1, disc.width], "weights": disc.w3.tolist(), "bias": [disc.b3]},
        ],
    }


@malformed_input("checkpoint")
def discriminator_from_dict(doc: dict) -> Union[Discriminator, TabularDiscriminator]:
    if not isinstance(doc, dict):
        raise DomainError("checkpoint must be a JSON object")
    version = doc.get("version")
    if isinstance(version, bool) or version != _CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {version!r}")
    if doc.get("kind") == "tabular":
        values = _json_numbers(doc["values"], "values")
        if np.isnan(values).any() or np.isposinf(values).any():
            raise DomainError("checkpoint values must be finite or -inf")
        return TabularDiscriminator(get_generator(doc["generator"]),
                                    _json_numbers(doc["support"], "support"), values)
    if doc.get("kind") != "net":
        raise DomainError(f"unsupported checkpoint kind {doc.get('kind')!r}")
    if doc.get("activation") != "tanh":
        raise DomainError(f"unsupported activation {doc.get('activation')!r}")
    if doc.get("head", "link") != "link":
        raise DomainError(f"unsupported head {doc.get('head')!r}: only link-head nets load")
    layers = doc["layers"]
    for i, layer in enumerate(layers):
        if isinstance(shape := layer["shape"], list) and any(type(s) is not int for s in shape):
            raise DomainError(f"checkpoint layer {i} shape {shape} must hold integers")
    first = layers[0]["shape"] if layers else None
    width, dim = first if isinstance(first, list) and len(first) == 2 else (0, 0)
    if [layer["shape"] for layer in layers] != [[width, dim], [width, width], [1, width]] or any(
            len(layer["weights"]) != math.prod(layer["shape"])
            or len(layer["bias"]) != layer["shape"][0] for layer in layers):
        raise DomainError("checkpoint layer shapes do not match their weights and biases")
    # layer by layer, weights before bias, then the free bias: the layout of params
    params = [v for layer in layers for v in layer["weights"] + layer["bias"]] + [doc["bias"]]
    params = _json_numbers(params, "weights and biases")
    if not np.isfinite(params).all():
        raise DomainError("checkpoint weights and biases must be finite")
    return Discriminator(get_generator(doc["generator"]), dim, width, params)


def save_discriminator(disc: Union[Discriminator, TabularDiscriminator], path) -> None:
    Path(path).write_text(json.dumps(discriminator_to_dict(disc), sort_keys=True))


def load_discriminator(path) -> Union[Discriminator, TabularDiscriminator]:
    return discriminator_from_dict(json.loads(Path(path).read_text()))
