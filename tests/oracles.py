"""Oracles only the tests use: independent re-derivations of quantities the
package computes or relies on, kept out of ``src``."""

import math

import numpy as np

from fadenet.bounds import PowerAllocation
from fadenet.fading import _standard_complex


def log_h_squared_mean_mc(
    mean: complex, variance: float, n_samples: int = 10**6, seed=0
) -> tuple[float, float]:
    """Monte Carlo E[log |H|^2] with its standard error; an independent
    sampling check on the exponential-integral identity of
    :func:`fadenet.fading.log_h_squared_mean`."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    rng = np.random.default_rng(seed)
    h = complex(mean) + math.sqrt(variance) * _standard_complex(rng, n_samples)
    values = np.log(np.abs(h) ** 2)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


def separation_ratios(alloc: PowerAllocation) -> tuple[float, ...]:
    """Per level, x_min^2 over the largest x_max^2 of the weaker levels."""
    out = []
    for k in range(alloc.kappa - 1):
        x_min = alloc.levels[k][0]
        strongest_below = max(x_max for _, x_max in alloc.levels[k + 1 :])
        out.append((x_min / strongest_below) ** 2)
    return tuple(out)


def log_spread(alloc: PowerAllocation, nu: int) -> float:
    """log(x_max^2 / x_min^2) of level ``nu`` (1-based), overflow-safe."""
    x_min, x_max = alloc.levels[nu - 1]
    return 2.0 * (math.log(x_max) - math.log(x_min))
