"""Common result container, keyed streams and thread count for Monte Carlo estimators."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# default seed for every stochastic entry point; fixed, never time-based
DEFAULT_SEED = 60493


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical mean with its standard error.

    ``stderr`` is the sample standard deviation (ddof=1) divided by
    sqrt(trials); it is 0 when every draw produced the same value.
    """

    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def trial_rng(seed: int, t: int) -> np.random.Generator:
    """The counter-based stream of trial t, keyed by (seed, t)."""
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, t]))


def resolve_threads(threads: int) -> int:
    """Worker thread count; 0 picks min(4, CPU count)."""
    if threads < 0:
        raise ValueError("threads must be >= 0")
    return threads or min(4, os.cpu_count() or 1)
