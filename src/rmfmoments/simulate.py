"""Monte Carlo sampling of random multiplicative sums.

A Steinhaus f is completely multiplicative and a Rademacher f is
multiplicative on squarefree n, so both obey f(n) = f(p) f(n/p) with
p = spf(n), the smallest prime factor of n, from the sieve of ``arith``.
One table, built per estimate, orders 0..x by Omega(n) = 1 + Omega(n/p),
the number of prime factors counted with multiplicity, and stores the
columns of p and n/p; each Omega-level is then filled from the levels
below it with one vectorized product.  Steinhaus rows take exp only at
the primes and fold the weight n^-sigma into f(p); Rademacher rows are
the same fill in int8, with f(n) = 0 wherever p also divides n/p, so
their sums are exact integers.

Estimates are reproducible bit for bit: trial t always draws from a
counter-based stream keyed by (seed, t), independent of chunking and
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import primes_up_to, smallest_prime_factors, spf_blocks
from .errors import refuse_past
from .estimates import MomentEstimate, keyed_estimate

__all__ = ["estimate_abs_moment", "helson_table"]

# The fill table of 0..x peaks at 28.5 bytes a number while it is built
# (traced at x = 2e6, 5e6 and 10^7; same host as below), 272 MiB at x = 10^7
_TABLE_BYTES_PER_NUMBER = 29
_MAX_SIEVE_X = 10_000_000
# bytes of fill state per chunk of trials; small chunks keep the gathers
# in cache, and one trial's row is never split.  At x = 10^5 two threads
# hold two chunk states at once: the benchmark's sampled pass peaked at
# 81-93 MB RSS with 8 MiB, 72-78 MB with 4 MiB and 100-105 MB with 16 MiB,
# at equal Steinhaus times (2-vCPU KVM guest, Python 3.11, numpy 2.4)
_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class _FillTable:
    """Column layout of the rows built by ``_multiplicative_rows``.

    Column i holds f(n[i]).  Column 0 is n = 0 with f(0) = 0, column 1 is
    n = 1, columns 2 .. pi(x) + 1 are the primes in increasing order, and
    every later Omega-level occupies one slice lo:hi.  Each level carries
    the columns of spf(n) and of n/spf(n); where f(n) must vanish, the
    second points at column 0.
    """

    n: np.ndarray
    levels: list[tuple[int, int, np.ndarray, np.ndarray]]


def _fill_table(x: int, squarefree: bool) -> _FillTable:
    """Smallest-prime-factor table of 0..x, grouped by Omega(n).

    With ``squarefree`` the table encodes the Rademacher rule: f(n) = 0
    where p = spf(n) also divides n/p, and so for every n that is not
    squarefree.
    """
    # int32 columns, as x <= _MAX_SIEVE_X < 2^31; Omega(0) = -1 puts n = 0 in column 0
    spf = smallest_prime_factors(x)
    cof = np.arange(x + 1, dtype=np.int32) // spf
    omega = np.empty(x + 1, dtype=np.int8)
    omega[:2] = (-1, 0)
    for lo, hi in spf_blocks(x):
        omega[lo:hi] = omega[cof[lo:hi]] + 1
    col = np.empty(x + 1, dtype=np.int32)
    parts, levels, lo = [], [], 0
    for k in range(-1, int(omega.max()) + 1):
        members = np.flatnonzero(omega == k).astype(np.int32)
        hi = lo + len(members)
        col[members] = np.arange(lo, hi, dtype=np.int32)
        if k > 1:
            p, q = spf[members], cof[members]
            q_col = col[q]
            if squarefree:
                q_col[spf[q] == p] = 0
            levels.append((lo, hi, col[p], q_col))
        parts.append(members)
        lo = hi
    n = np.concatenate(parts)
    return _FillTable(n=n, levels=levels)


def _multiplicative_rows(values_at_primes: np.ndarray, table: _FillTable) -> np.ndarray:
    """One row of f(n) per row of f(p), laid out as ``table`` says.

    values_at_primes is (trials, pi(x)) in the order of
    ``primes_up_to(x)``; the rows keep its dtype.
    """
    trials, npr = values_at_primes.shape
    rows = np.empty((trials, len(table.n)), dtype=values_at_primes.dtype)
    rows[:, 0] = 0
    rows[:, 1] = 1
    rows[:, 2 : 2 + npr] = values_at_primes
    for lo, hi, p_col, q_col in table.levels:
        f_p = np.take(rows, p_col, axis=1)
        np.multiply(f_p, np.take(rows, q_col, axis=1), out=rows[:, lo:hi])
    return rows


def estimate_abs_moment(
    model: str,
    x: int,
    sigma: float,
    two_k: float,
    trials: int,
    seed: int,
    threads: int = 1,
) -> MomentEstimate:
    """Sample mean of |S_x|^two_k with its standard error.

    model is "steinhaus" or "rademacher"; the Rademacher model is only
    defined at sigma = 0.  two_k may be fractional (the low-moment
    regime is the interesting one).
    """
    if model not in ("steinhaus", "rademacher"):
        raise ValueError("model must be 'steinhaus' or 'rademacher'")
    if model == "rademacher" and sigma != 0.0:
        raise ValueError("the Rademacher model is sampled at sigma = 0 only")
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    if not two_k > 0:
        raise ValueError("two_k must be positive")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    x = int(x)
    if x < 1:
        raise ValueError("x must be at least 1")
    need, cap = _TABLE_BYTES_PER_NUMBER * x, _TABLE_BYTES_PER_NUMBER * _MAX_SIEVE_X
    refuse_past(f"simulation fill table at x = {x}", need, cap, "memory")
    primes = primes_up_to(x)
    npr = len(primes)
    table = _fill_table(x, squarefree=model == "rademacher")
    # a trial's state: its row of complex128 or int8 cells and its share of
    # the two gathers that fill the widest Omega-level
    cell_bytes = 16 if model == "steinhaus" else 1
    widest = max((hi - lo for lo, hi, _, _ in table.levels), default=0)
    chunk = max(1, min(64, _CHUNK_BYTES // (cell_bytes * (x + 1 + 2 * widest))))
    # n^-sigma is completely multiplicative, so the fill carries it from f(p)
    weights = primes.astype(np.float64) ** -sigma if sigma else None

    def fill(start: int, rngs, out: np.ndarray) -> None:
        if model == "steinhaus":
            u = np.empty((len(out), npr))
            for i, rng in enumerate(rngs):
                u[i] = rng.random(npr)
            f_p = np.exp(2j * np.pi * u)
            if weights is not None:
                f_p *= weights
        else:
            # each trial's signs go straight into int8, never through a float64
            # block of draws eight times the size
            f_p = np.empty((len(out), npr), dtype=np.int8)
            for i, rng in enumerate(rngs):
                f_p[i] = rng.random(npr) < 0.5
            f_p = f_p * 2 - 1
        s = np.abs(_multiplicative_rows(f_p, table).sum(axis=1))
        out[:] = s.astype(np.float64) ** two_k

    return keyed_estimate(trials, seed, threads, chunk, fill)


def helson_table(
    x_list: list[int], trials: int, seed: int, threads: int = 1
) -> list[dict[str, float]]:
    """First-absolute-moment table: does E|S_x| / sqrt(x) flatten or sink?

    Each row carries the simulated mean against two fixed reference
    levels: the conjectured coefficient C(1/2, 0) and the amplitude upper
    bound.  C(1/2, 0) is no limit: Harper (Forum Math. Pi 8, 2020, e1)
    proved E|S_x| ~ sqrt(x) / (log log x)^(1/4) up to constants, so the
    ratio sinks, if slowly.  The conjecture's value is kept because the
    pipeline reproduces it.
    """
    from .analytic import conjectured_coefficient, cs_bound_minimize

    coeff = conjectured_coefficient(0.5, 0.0)
    bound = cs_bound_minimize().amplitude_bound
    rows = []
    for x in x_list:
        est = estimate_abs_moment("steinhaus", x, 0.0, 1.0, trials, seed, threads)
        rows.append(
            {
                "x": float(x),
                "mean_abs": est.mean,
                "stderr": est.stderr,
                "ratio_sqrt_x": est.mean / math.sqrt(x),
                "conjectured_coefficient": coeff,
                "amplitude_bound": bound,
            }
        )
    return rows

