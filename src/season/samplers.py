"""Samplers: unadjusted Langevin dynamics and guided reverse diffusion.

Both run one chain loop, `_chains`: x starts at an N(0, I) draw and step
k sets x <- x + increment(x, k) + noise_scale * z.  langevin's increment
is step * score(x) on a fixed score field, its noise scale sqrt(2 step).
reverse_em integrates the time-discretized reverse of the forward
noising process on the uniform grid tau_k = k T / K,

    y <- y + s beta [y + 2 (score_k(y) + guidance_k(y))] + sqrt(2 s beta) z,

with step s = T / K and the schedule's constant rate beta.  During step
k the guidance term comes from the discriminator at level tau_{k+1}:
discs[k] is trained at forward time T - tau_{k+1}, and the score handle
is queried at step index k (forward time T - tau_k).  Guidance is the
term (d/ds log f'^-1)(h(y) - lambda_k) * grad h(y) of `refined_score`,
where lambda_k solves the normalizer equation on the current chain batch
under the generator f of discs[k]; its domain check follows the backward
pass.  It vanishes for constant discriminators, leaving trajectories
bit-identical to the unguided run.

Both samplers are deterministic per seed; noise is drawn once per step
for the whole chain batch, so the random stream does not depend on the
drift.  After every step a guard stops the run with ChainDivergenceError,
naming the first chain and the step, once a coordinate is NaN, +-inf or
beyond +-1e6; exactly +-1e6 passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# input_grad is unused here; bench/test_bench.py checks that tracing puts
# samplers.input_grad back, so the name stays.
from .discriminator import Discriminator, _check_generator, input_grad  # noqa: F401
from .distributions import OUSchedule, as_batch, as_generator
from .errors import ChainDivergenceError, DomainError
from .generators import GeneratorSpec
from .refine import _write_csv, refined_score

__all__ = [
    "LangevinConfig",
    "ReverseDiffusionConfig",
    "langevin",
    "reverse_em",
    "w1_1d",
    "export_samples_csv",
]

_GUARD = 1e6


@dataclass(frozen=True)
class LangevinConfig:
    step_size: float
    n_steps: int
    n_chains: int
    dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise DomainError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.n_steps < 0 or self.n_chains < 1:
            raise DomainError("n_steps >= 0 and n_chains >= 1 required")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")


def _check_guard(x: np.ndarray, step: int) -> None:
    """Raise at the first chain holding NaN, +-inf or a coordinate beyond +-1e6.

    One mask: NaN and +-inf fail |x| <= 1e6 just as a large value does.
    """
    bad = ~(np.abs(x) <= _GUARD).all(axis=1)
    if bad.any():
        raise ChainDivergenceError(int(np.flatnonzero(bad)[0]), step)


def _chains(seed: int, n_chains: int, dim: int, n_steps: int, noise_scale: float,
            increment: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """The chain loop of the module docstring, guarded after every step."""
    rng = as_generator(seed)
    x = rng.standard_normal((n_chains, dim))
    for k in range(n_steps):
        x = x + increment(x, k) + noise_scale * rng.standard_normal(x.shape)
        _check_guard(x, k)
    return x


def langevin(score: Callable[[np.ndarray], np.ndarray], cfg: LangevinConfig) -> np.ndarray:
    """Run unadjusted Langevin chains from the Gaussian prior; returns the final batch.

    The batch has shape (n_chains, dim).
    """
    return _chains(cfg.seed, cfg.n_chains, cfg.dim, cfg.n_steps, math.sqrt(2.0 * cfg.step_size),
                   lambda x, k: cfg.step_size * score(x))


@dataclass(frozen=True)
class ReverseDiffusionConfig:
    schedule: OUSchedule
    K: int
    n_chains: int
    dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.n_chains < 1:
            raise DomainError("K >= 1 and n_chains >= 1 required")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")


def reverse_em(score: Callable[[np.ndarray, int], np.ndarray], cfg: ReverseDiffusionConfig,
               gen: Optional[GeneratorSpec] = None,
               discs: Optional[Sequence[Discriminator]] = None) -> np.ndarray:
    """Euler-Maruyama reverse integration from the Gaussian prior.

    score(x, k) is the model score during [tau_k, tau_{k+1}].  With discs
    given (one per step, aligned to level tau_{k+1}) the drift adds the
    guidance term of `refined_score`, domain check included, with lambda
    solved for that level on the chains.  gen must be the generator of
    every disc (DomainError otherwise); the benchmark passes it by
    position, so it stays only until the next change to the benchmark.
    """
    if discs is not None:
        for disc in discs:
            _check_generator(disc, gen)
        if len(discs) != cfg.K:
            raise DomainError(f"{len(discs)} discriminators for K = {cfg.K} levels")
    s = cfg.schedule.T / cfg.K
    beta = cfg.schedule.beta
    drift_scale = s * beta

    def increment(y: np.ndarray, k: int) -> np.ndarray:
        if discs is None:
            drift = score(y, k)
        else:
            drift = refined_score(lambda x: score(x, k), discs[k], y)
        return drift_scale * (y + 2.0 * drift)

    return _chains(cfg.seed, cfg.n_chains, cfg.dim, cfg.K, math.sqrt(2.0 * s * beta), increment)


def w1_1d(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein distance between equal-size 1-d samples (sorted mean gap)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError(f"batch sizes differ: {a.shape} vs {b.shape}")
    if a.size == 0 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("W1 needs nonempty batches of finite values")
    return float(np.abs(np.sort(a) - np.sort(b)).mean())


def export_samples_csv(path, batch: np.ndarray, seed: int) -> None:
    """One row per chain: its index, its coordinates x0, x1, ... and the seed."""
    batch = as_batch(batch)
    d = batch.shape[1]
    columns = [("chain", False), *((f"x{j}", True) for j in range(d)), ("seed", False)]
    # one flat list, d values to a row: a list per row leaves ~0.2 MB of heap behind
    values = iter(batch.ravel().tolist())
    _write_csv(path, columns, zip(range(len(batch)), *[values] * d, itertools.repeat(seed)))
