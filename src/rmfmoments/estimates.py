"""Common result container, keyed streams and thread count for Monte Carlo estimators."""

from __future__ import annotations

import os
from collections.abc import Iterator
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


def _philox_key(seed: int, t: int) -> np.ndarray:
    # a uint64 array, never a list: numpy would cast a list holding a value
    # >= 2^63 to float64 and merge the streams of distinct seeds
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, t], dtype=np.uint64)


def trial_rng(seed: int, t: int) -> np.random.Generator:
    """The counter-based stream of trial t, keyed by (seed, t)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, t)))


def trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The streams of trials lo..hi-1, bit for bit those of ``trial_rng``.

    One Philox is reset for each trial to key (seed, t), counter 0 and an
    empty buffer, which costs a fraction of building a new one.  The same
    generator object is yielded every time, so draw from each stream
    before advancing to the next.
    """
    bit_gen = np.random.Philox(key=_philox_key(seed, lo))
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    for t in range(lo, hi):
        state["state"]["key"][1] = t
        bit_gen.state = state
        yield rng


def resolve_threads(threads: int) -> int:
    """Worker thread count; 0 picks min(4, CPU count)."""
    if threads < 0:
        raise ValueError("threads must be >= 0")
    return threads or min(4, os.cpu_count() or 1)
