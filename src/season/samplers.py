"""Samplers: unadjusted Langevin dynamics and guided reverse diffusion.

langevin iterates x <- x + step * score(x) + sqrt(2 step) z on a fixed
score field.  reverse_em integrates the time-discretized reverse of the
forward noising process on the uniform grid tau_k = k T / K,

    y <- y + s beta [y + 2 (score_k(y) + guidance_k(y))] + sqrt(2 s beta) z,

with step s = T / K and the schedule's constant rate beta, starting from
the standard Gaussian prior.  During step k the guidance term comes from
the discriminator at level tau_{k+1}: discs[k] is trained
at forward time T - tau_{k+1}, and the score handle is queried at step
index k (forward time T - tau_k).  Guidance adds
(d/ds log f'^-1)(h(y) - lambda_k) * grad h(y), where lambda_k solves the
normalizer equation on the current chain batch, mean of
f'^-1(h(y) - lambda_k) equal to 1, under the generator f of discs[k].
It vanishes for constant discriminators, leaving trajectories
bit-identical to the unguided run.

Both samplers are deterministic per seed; noise is drawn once per step
for the whole chain batch, so the random stream does not depend on the
drift.
"""

from __future__ import annotations

import csv
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
from .refine import refined_score

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


def _check_guard(x: np.ndarray, step: int) -> None:
    bad = (~np.isfinite(x) | (np.abs(x) > _GUARD)).any(axis=1)
    if bad.any():
        raise ChainDivergenceError(int(np.flatnonzero(bad)[0]), step)


def langevin(score: Callable[[np.ndarray], np.ndarray], cfg: LangevinConfig) -> np.ndarray:
    """Run unadjusted Langevin chains from the Gaussian prior; returns the final batch.

    The batch has shape (n_chains, dim).
    """
    rng = as_generator(cfg.seed)
    x = rng.standard_normal((cfg.n_chains, cfg.dim))
    noise_scale = math.sqrt(2.0 * cfg.step_size)
    for step in range(cfg.n_steps):
        x = x + cfg.step_size * score(x) + noise_scale * rng.standard_normal(x.shape)
        _check_guard(x, step)
    return x


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

    @property
    def step(self) -> float:
        return self.schedule.T / self.K


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
    rng = as_generator(cfg.seed)
    y = rng.standard_normal((cfg.n_chains, cfg.dim))
    s = cfg.step
    beta = cfg.schedule.beta
    drift_scale = s * beta
    noise_scale = math.sqrt(2.0 * s * beta)
    for k in range(cfg.K):
        if discs is None:
            drift = score(y, k)
        else:
            drift = refined_score(lambda x: score(x, k), discs[k], y)
        z = rng.standard_normal(y.shape)
        y = y + drift_scale * (y + 2.0 * drift) + noise_scale * z
        _check_guard(y, k)
    return y


def w1_1d(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein distance between equal-size 1-d samples (sorted mean gap)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError(f"batch sizes differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.sort(a) - np.sort(b)).mean())


def export_samples_csv(path, batch: np.ndarray, seed: int) -> None:
    """One row per sample: chain id, coordinates, seed."""
    batch = as_batch(batch)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain"] + [f"x{j}" for j in range(batch.shape[1])] + ["seed"])
        for i, row in enumerate(batch):
            writer.writerow([i] + [f"{v:.17g}" for v in row] + [seed])
