"""Fixed reference kernels that measure the machine's speed during a run.

The 2-vCPU VM this benchmark was built on changes speed by up to 1.6x over
periods of minutes, with wall time equal to CPU time: the process is not
descheduled; the cores just run slower.  Longer runs do not average that
out.  So the timed phase brackets every op with a reference kernel and
rescales the op's wall time to the speed at which that kernel takes its
nominal time.  On that machine, the rescaled time equals the wall time.

Each kernel is plain numpy with no ``season`` code, so a change to the
program never changes it.  It has the mix of work of its workload's op:
two-layer tanh nets forward and backward on 8000 rows (``fit``), the same
on 2000 rows plus a density evaluation (``sample``), or scalar searches over
3-point arrays (``exact``).  With a matched kernel, the medians of ``sample``
op latency over 25-op blocks varied by 2% instead of 22%.
"""

from __future__ import annotations

import time

import numpy as np


def _net_passes(x, w1, w2, w3, reps: int) -> float:
    """Forward and backward passes of a tanh net, plus a Gaussian density."""
    total = 0.0
    for _ in range(reps):
        a1 = np.tanh(x @ w1.T)
        a2 = np.tanh(a1 @ w2.T)
        z = a2 @ w3
        dz2 = np.outer(1.0 - np.tanh(z) ** 2, w3) * (1.0 - a2 * a2)
        dz1 = (dz2 @ w2) * (1.0 - a1 * a1)
        total += float((dz2.T @ a1).sum() + (dz1.T @ x).sum() + (dz1 @ w1).sum())
        density = np.exp(-0.5 * (x - 2.0) ** 2)
        total += float((density / density.sum()).max())
    return total


def _scalar_search(theta, nu, reps: int) -> float:
    """A clipped window slid over 3 points, as in a golden-section search."""
    total = 0.0
    for i in range(reps):
        h = np.clip(theta, -1.0 + 1e-3 * i, 0.5 + 1e-3 * i)
        mask = nu > 0
        total += float(np.sum(nu[mask] * h[mask])) - float(np.sum(nu * np.log1p(np.exp(h))))
    return total


class Reference:
    """One workload's reference kernel and its nominal time in seconds."""

    def __init__(self, kind: str, nominal_s: float, *, rows: int = 0, reps: int = 1):
        rng = np.random.default_rng(0)
        self.nominal_s = nominal_s
        if kind == "net":
            args = (rng.standard_normal((rows, 1)), rng.standard_normal((16, 1)),
                    rng.standard_normal((16, 16)) / 4.0, rng.standard_normal(16) / 4.0)
            self._run = lambda: _net_passes(*args, reps)
        else:
            args = (np.array([-1.2, 0.3, 0.7]), np.array([0.2, 0.3, 0.5]))
            self._run = lambda: _scalar_search(*args, reps)

    def seconds(self) -> float:
        """Wall time of one call of the kernel."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def scale(self, before_s: float, after_s: float) -> float:
        """Factor that rescales a wall time between two kernel calls to nominal speed."""
        return self.nominal_s / (0.5 * (before_s + after_s))


def references() -> dict[str, Reference]:
    """The reference kernel of each workload, by workload name."""
    return {
        # fit's ops take seconds; a 70 ms kernel follows their speed better than 10 ms.
        "fit": Reference("net", 0.070, rows=8000, reps=21),
        "sample": Reference("net", 0.011, rows=2000, reps=20),
        "exact": Reference("scalar", 0.0055, reps=300),
    }
