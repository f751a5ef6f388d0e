"""Small feed-forward discriminators with exact reverse-mode gradients.

The net is two hidden tanh layers plus a scalar readout z(x).  The default
"link" head routes z through the composite link of the attached generator:

    eta(x) = sigmoid(z(x))          class-probability estimate
    h(x)   = f'(eta / (1 - eta)) + b = f'(exp(z(x))) + b

The free additive bias b realizes closure of the discriminator class under
additive constants.  The link parametrization keeps h - b inside the range
of f', so f'^-1(h - b) >= 0 and f* stays finite wherever it must.

A "clamp" head replaces the link with a hard clip of z to [-B, B]; it is
the bounded raw-output class used for IPM and Rademacher estimation and
carries no free bias (the class must stay sup-norm bounded).

All gradients (parameters and inputs) are exact reverse-mode, written out
by hand; the test suite checks every one against central finite
differences.  Training is plain gradient ascent with optional step halving
whenever the objective decreases.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .distributions import DiscreteDistribution, _row_positions, as_generator, discrete_ratio
from .errors import DomainError, TrainingDivergedError
from .generators import GeneratorSpec, get_generator, sigmoid

logger = logging.getLogger(__name__)

CLAMP_MARGIN = 1e-6

__all__ = [
    "Discriminator",
    "TabularDiscriminator",
    "TrainConfig",
    "init_discriminator",
    "zero_discriminator",
    "forward",
    "objective_R",
    "grads",
    "linear_objective_grads",
    "input_grad",
    "tabular_objective_grad",
    "train",
    "exact_tabular",
    "save_discriminator",
    "load_discriminator",
]


@dataclass
class Discriminator:
    """Two-hidden-layer net with a link or clamp head.

    Mutable only during training; `freeze` makes the arrays read-only and
    the instance safe to share across threads.
    """

    generator: Optional[GeneratorSpec]
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    bias: float = 0.0
    activation: str = "tanh"
    head: str = "link"
    norm_bound: float = 1.0
    converged: Optional[bool] = None
    final_objective: Optional[float] = None

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "bias")

    def __post_init__(self):
        if self.head not in ("link", "clamp"):
            raise DomainError(f"unknown head {self.head!r}")
        if self.activation not in ("tanh", "identity"):
            raise DomainError(f"unknown activation {self.activation!r}")
        if self.head == "link" and self.generator is None:
            raise DomainError("link head requires a generator")

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    def _act(self, z):
        return np.tanh(z) if self.activation == "tanh" else z

    def _act_deriv(self, z, a):
        return 1.0 - a * a if self.activation == "tanh" else np.ones_like(z)

    def _forward_full(self, x: np.ndarray) -> dict:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z1 = x @ self.w1.T + self.b1
        a1 = self._act(z1)
        z2 = a1 @ self.w2.T + self.b2
        a2 = self._act(z2)
        z3 = a2 @ self.w3 + self.b3
        if self.head == "link":
            h = self.generator.link_of_logit(z3) + self.bias
        else:
            h = np.clip(z3, -self.norm_bound, self.norm_bound)
        return {"x": x, "z1": z1, "a1": a1, "z2": z2, "a2": a2, "z3": z3, "h": h}

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cache = self._forward_full(x)
        return sigmoid(cache["z3"]), cache["h"]

    def h_batch(self, x: np.ndarray) -> np.ndarray:
        return self._forward_full(x)["h"]

    def _backprop(self, cache: dict, dh: np.ndarray, want_inputs: bool = False):
        """Push dL/dh back through the net.

        Returns (param_grads, input_grads); the latter is None unless
        requested.
        """
        z3, a2, z2, a1, z1, x = (cache[k] for k in ("z3", "a2", "z2", "a1", "z1", "x"))
        if self.head == "link":
            dz3 = dh * np.asarray(self.generator.link_of_logit_deriv(z3))
            dbias = float(dh.sum())
        else:
            inside = np.abs(z3) < self.norm_bound
            dz3 = dh * inside
            dbias = 0.0
        dw3 = a2.T @ dz3
        db3 = float(dz3.sum())
        da2 = np.outer(dz3, self.w3)
        dz2 = da2 * self._act_deriv(z2, a2)
        dw2 = dz2.T @ a1
        db2 = dz2.sum(axis=0)
        da1 = dz2 @ self.w2
        dz1 = da1 * self._act_deriv(z1, a1)
        dw1 = dz1.T @ x
        db1 = dz1.sum(axis=0)
        param_grads = {
            "w1": dw1, "b1": db1, "w2": dw2, "b2": db2,
            "w3": dw3, "b3": db3, "bias": dbias,
        }
        dx = dz1 @ self.w1 if want_inputs else None
        return param_grads, dx

    def copy(self) -> "Discriminator":
        return Discriminator(
            generator=self.generator,
            w1=self.w1.copy(), b1=self.b1.copy(),
            w2=self.w2.copy(), b2=self.b2.copy(),
            w3=self.w3.copy(), b3=self.b3, bias=self.bias,
            activation=self.activation, head=self.head, norm_bound=self.norm_bound,
        )

    def freeze(self) -> "Discriminator":
        for name in ("w1", "b1", "w2", "b2", "w3"):
            getattr(self, name).setflags(write=False)
        return self


@dataclass
class TabularDiscriminator:
    """One free value per support point; realizes the rich class exactly.

    Values may be -inf where the density ratio vanishes.
    """

    support: np.ndarray
    values: np.ndarray
    generator_name: Optional[str] = None

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.support.shape[0],):
            raise DomainError("one value per support point required")

    def h_for(self, dist: DiscreteDistribution) -> np.ndarray:
        """Values aligned to dist.support; every point must be known."""
        index = _row_positions(dist.support, self.support)
        if np.any(index < 0):
            row = dist.support[np.flatnonzero(index < 0)[0]]
            raise DomainError(f"discriminator undefined at support point {row}")
        return self.values[index]

    def shifted(self, c: float) -> "TabularDiscriminator":
        return TabularDiscriminator(self.support, self.values + c, self.generator_name)


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
    return disc.h_batch(np.atleast_2d(np.asarray(target, dtype=float)))


@dataclass(frozen=True)
class TrainConfig:
    width: int = 32
    steps: int = 500
    step_size: float = 0.1
    seed: int = 0
    halve_on_decrease: bool = True
    activation: str = "tanh"


def init_discriminator(gen: Optional[GeneratorSpec], dim: int, width: int, seed=0, *,
                       activation: str = "tanh", head: str = "link",
                       norm_bound: float = 1.0) -> Discriminator:
    rng = as_generator(seed)
    def w(shape, fan_in):
        return rng.standard_normal(shape) / math.sqrt(fan_in)
    return Discriminator(
        generator=gen,
        w1=w((width, dim), dim), b1=np.zeros(width),
        w2=w((width, width), width), b2=np.zeros(width),
        w3=w(width, width), b3=0.0, bias=0.0,
        activation=activation, head=head, norm_bound=norm_bound,
    )


def zero_discriminator(gen: GeneratorSpec, dim: int, width: int = 4) -> Discriminator:
    """All-zero net: eta = 1/2 and h = f'(1) everywhere (neutral constant)."""
    return Discriminator(
        generator=gen,
        w1=np.zeros((width, dim)), b1=np.zeros(width),
        w2=np.zeros((width, width)), b2=np.zeros(width),
        w3=np.zeros(width), b3=0.0, bias=0.0,
    )


def forward(disc: Discriminator, x) -> tuple[float, float]:
    """Evaluate one point, returning (eta, h)."""
    eta, h = disc.forward_batch(np.atleast_2d(np.asarray(x, dtype=float)))
    return float(eta[0]), float(h[0])


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


def objective_R(disc: Discriminator, gen: GeneratorSpec, samples_nu: np.ndarray,
                samples_mu: np.ndarray) -> float:
    """Variational objective mean_nu[h] - mean_mu[f* o h]."""
    h_nu = disc.h_batch(samples_nu)
    h_mu, _ = _clamped_mu_values(gen, disc.h_batch(samples_mu))
    return float(h_nu.mean() - gen.conjugate_fn(h_mu).mean())


def grads(disc: Discriminator, gen: GeneratorSpec, samples_nu: np.ndarray,
          samples_mu: np.ndarray) -> tuple[dict, float]:
    """Exact parameter gradients of objective_R, plus its value."""
    cache_nu = disc._forward_full(samples_nu)
    cache_mu = disc._forward_full(samples_mu)
    n_nu = cache_nu["h"].shape[0]
    n_mu = cache_mu["h"].shape[0]
    h_mu, mask = _clamped_mu_values(gen, cache_mu["h"])
    value = float(cache_nu["h"].mean() - gen.conjugate_fn(h_mu).mean())
    g_nu, _ = disc._backprop(cache_nu, np.full(n_nu, 1.0 / n_nu))
    # d/dh of -mean f*(h) is -f'^-1(h)/n, zero where the clamp is active
    dmu = -np.asarray(gen.f_prime_inv(h_mu)) * mask / n_mu
    g_mu, _ = disc._backprop(cache_mu, dmu)
    total = {k: g_nu[k] + g_mu[k] for k in g_nu}
    return total, value


def linear_objective_grads(disc: Discriminator, x: np.ndarray,
                           coeffs: np.ndarray) -> tuple[dict, float]:
    """Gradients of sum_i coeffs_i h(x_i); drives IPM and Rademacher sups."""
    cache = disc._forward_full(x)
    value = float(cache["h"] @ coeffs)
    g, _ = disc._backprop(cache, np.asarray(coeffs, dtype=float))
    return g, value


def input_grad(disc: Discriminator, x: np.ndarray) -> np.ndarray:
    """Exact gradient of h with respect to the inputs, shape (n, d)."""
    cache = disc._forward_full(x)
    n = cache["h"].shape[0]
    _, dx = disc._backprop(cache, np.ones(n), want_inputs=True)
    return dx


def tabular_objective_grad(tab: TabularDiscriminator, gen: GeneratorSpec,
                           nu: DiscreteDistribution, mu: DiscreteDistribution) -> np.ndarray:
    """dR/dh_i = nu_i - mu_i f'^-1(h_i) for the per-point class."""
    h = tab.h_for(mu)
    nu_aligned = discrete_ratio(nu, mu) * mu.weights
    return nu_aligned - mu.weights * np.asarray(gen.f_prime_inv(h))


def exact_tabular(nu: DiscreteDistribution, mu: DiscreteDistribution,
                  gen: GeneratorSpec) -> TabularDiscriminator:
    """Closed-form optimum h_i = f'(nu_i / mu_i) on mu's support."""
    ratio = discrete_ratio(nu, mu)
    with np.errstate(divide="ignore"):
        values = np.asarray(gen.f_prime(ratio))
    return TabularDiscriminator(mu.support, values, generator_name=gen.name)


def _ascend(disc: Discriminator,
            value_and_grads: Callable[[Discriminator], tuple[dict, float]],
            steps: int, step_size: float, halve_on_decrease: bool) -> Discriminator:
    lr = float(step_size)
    prev = -math.inf
    history: list[float] = []
    for step in range(steps):
        g, value = value_and_grads(disc)
        if not math.isfinite(value):
            raise TrainingDivergedError(step)
        history.append(value)
        if halve_on_decrease and value < prev:
            lr *= 0.5
        prev = value
        disc.w1 += lr * g["w1"]
        disc.b1 += lr * g["b1"]
        disc.w2 += lr * g["w2"]
        disc.b2 += lr * g["b2"]
        disc.w3 += lr * g["w3"]
        disc.b3 += lr * g["b3"]
        if disc.head == "link":
            disc.bias += lr * g["bias"]
    _, final = value_and_grads(disc)
    if not math.isfinite(final):
        raise TrainingDivergedError(steps)
    disc.final_objective = final
    trailing = max(history[-100:]) if history else final
    disc.converged = (trailing - final) <= 1e-8
    return disc.freeze()


def train(gen: GeneratorSpec, data_nu, data_mu, config: TrainConfig = TrainConfig()
          ) -> Union[Discriminator, TabularDiscriminator]:
    """Recipe step one: fit the discriminator between data and model.

    Two discrete distributions short-circuit to the closed-form tabular
    optimum.  Sample batches train a net by plain gradient ascent on the
    variational objective.
    """
    if isinstance(data_nu, DiscreteDistribution) and isinstance(data_mu, DiscreteDistribution):
        return exact_tabular(data_nu, data_mu, gen)
    x_nu = np.atleast_2d(np.asarray(data_nu, dtype=float))
    x_mu = np.atleast_2d(np.asarray(data_mu, dtype=float))
    if x_nu.shape[1] != x_mu.shape[1]:
        raise DomainError("sample batches have mismatched dimensions")
    disc = init_discriminator(gen, x_nu.shape[1], config.width, config.seed,
                              activation=config.activation)
    return _ascend(disc, lambda d: grads(d, gen, x_nu, x_mu),
                   config.steps, config.step_size, config.halve_on_decrease)


def train_linear_sup(disc: Discriminator, x: np.ndarray, coeffs: np.ndarray,
                     config: TrainConfig) -> Discriminator:
    """Maximize sum_i coeffs_i h(x_i) over a clamp-head net in place."""
    return _ascend(disc, lambda d: linear_objective_grads(d, x, coeffs),
                   config.steps, config.step_size, config.halve_on_decrease)


_CHECKPOINT_VERSION = 1


def discriminator_to_dict(disc: Union[Discriminator, TabularDiscriminator]) -> dict:
    if isinstance(disc, TabularDiscriminator):
        return {
            "version": _CHECKPOINT_VERSION,
            "kind": "tabular",
            "generator": disc.generator_name,
            "support": disc.support.tolist(),
            "values": disc.values.tolist(),
        }
    return {
        "version": _CHECKPOINT_VERSION,
        "kind": "net",
        "generator": disc.generator.name if disc.generator is not None else None,
        "activation": disc.activation,
        "head": disc.head,
        "norm_bound": disc.norm_bound,
        "bias": disc.bias,
        "layers": [
            {"shape": list(disc.w1.shape), "weights": disc.w1.ravel().tolist(),
             "bias": disc.b1.tolist()},
            {"shape": list(disc.w2.shape), "weights": disc.w2.ravel().tolist(),
             "bias": disc.b2.tolist()},
            {"shape": [1, disc.w3.shape[0]], "weights": disc.w3.ravel().tolist(),
             "bias": [disc.b3]},
        ],
    }


def discriminator_from_dict(doc: dict) -> Union[Discriminator, TabularDiscriminator]:
    if not isinstance(doc, dict):
        raise DomainError("checkpoint must be a JSON object")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("kind") == "tabular":
        return TabularDiscriminator(np.asarray(doc["support"], dtype=float),
                                    np.asarray(doc["values"], dtype=float),
                                    generator_name=doc["generator"])
    if doc.get("kind") != "net":
        raise DomainError(f"unsupported checkpoint kind {doc.get('kind')!r}")
    layers = doc["layers"]
    def arr(layer):
        return np.asarray(layer["weights"], dtype=float).reshape(layer["shape"])
    gen = get_generator(doc["generator"]) if doc["generator"] is not None else None
    return Discriminator(
        generator=gen,
        w1=arr(layers[0]), b1=np.asarray(layers[0]["bias"], dtype=float),
        w2=arr(layers[1]), b2=np.asarray(layers[1]["bias"], dtype=float),
        w3=arr(layers[2]).ravel(), b3=float(layers[2]["bias"][0]),
        bias=float(doc["bias"]), activation=doc["activation"],
        head=doc["head"], norm_bound=float(doc["norm_bound"]),
    )


def save_discriminator(disc: Union[Discriminator, TabularDiscriminator], path) -> None:
    Path(path).write_text(json.dumps(discriminator_to_dict(disc), sort_keys=True))


def load_discriminator(path) -> Union[Discriminator, TabularDiscriminator]:
    return discriminator_from_dict(json.loads(Path(path).read_text()))
