"""Monte Carlo sampling of random multiplicative sums.

A Steinhaus sample assigns an independent uniform phase u_p to each
prime and gives n the phase sum_{p^j | n} alpha_p(n) u_p; the sieve
builds all x phases at once with one strided add per prime power, never
factorizing anything.  The Rademacher model flips a sign per prime and
lives on squarefree integers, so its partial sums are exact integers.

Estimates are reproducible bit for bit: trial t always draws from a
counter-based stream keyed by (seed, t), independent of chunking and
thread count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import primes_up_to
from .errors import ResourceLimitError
from .estimates import MomentEstimate, resolve_threads, trial_rng

__all__ = [
    "PhaseSieve",
    "build_phase_sieve",
    "sample_steinhaus_sum",
    "sample_rademacher_sum",
    "estimate_abs_moment",
    "helson_table",
    "write_helson_csv",
]

_MAX_SIEVE_X = 10_000_000


@dataclass(frozen=True)
class PhaseSieve:
    """theta[n] in [0, 1) is the phase of the n-th Steinhaus value; index 0 unused."""

    x: int
    theta: np.ndarray


def _check_x(x: int) -> int:
    x = int(x)
    if x < 1:
        raise ValueError("x must be at least 1")
    if x > _MAX_SIEVE_X:
        raise ResourceLimitError(f"simulation guard: x <= {_MAX_SIEVE_X}")
    return x


def _phase_matrix(x: int, u: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Rows of Steinhaus phases for a batch of trials; u is (trials, len(primes))."""
    theta = np.zeros((u.shape[0], x + 1))
    for j, p in enumerate(primes):
        pk = int(p)
        col = u[:, j : j + 1]
        while pk <= x:
            theta[:, pk::pk] += col
            pk *= int(p)
    return theta


def build_phase_sieve(x: int, rng: np.random.Generator) -> PhaseSieve:
    x = _check_x(x)
    primes = primes_up_to(x)
    u = rng.random((1, len(primes)))
    theta = _phase_matrix(x, u, primes)[0]
    theta %= 1.0
    theta[0] = 0.0
    return PhaseSieve(x=x, theta=theta)


def sample_steinhaus_sum(x: int, sigma: float, rng: np.random.Generator) -> complex:
    """One draw of sum_{n <= x} f(n) / n^sigma for a fresh Steinhaus f."""
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    sieve = build_phase_sieve(x, rng)
    n = np.arange(1, sieve.x + 1, dtype=np.float64)
    weights = n**-sigma if sigma else np.ones_like(n)
    vals = np.exp(2j * np.pi * sieve.theta[1:]) * weights
    return complex(vals.sum())


def _squarefree_mask(x: int) -> np.ndarray:
    sq = np.ones(x + 1, dtype=bool)
    sq[0] = False
    for p in primes_up_to(int(math.isqrt(x))):
        p2 = int(p) * int(p)
        sq[p2::p2] = False
    return sq


def _rademacher_matrix(x: int, eps: np.ndarray, primes: np.ndarray) -> np.ndarray:
    signs = np.ones((eps.shape[0], x + 1), dtype=np.int8)
    for j, p in enumerate(primes):
        p = int(p)
        signs[:, p::p] *= eps[:, j : j + 1]
    return signs


def sample_rademacher_sum(x: int, rng: np.random.Generator) -> int:
    """One draw of the integer sum_{n <= x} f(n) for a fresh Rademacher f."""
    x = _check_x(x)
    primes = primes_up_to(x)
    # derived from uniforms, not integers(), so trial t of an estimate run
    # and a standalone draw from the same keyed stream agree exactly
    eps = (rng.random((1, len(primes))) < 0.5).astype(np.int8) * 2 - 1
    signs = _rademacher_matrix(x, eps, primes)[0]
    mask = _squarefree_mask(x)
    return int(signs[mask].sum())


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
    x = _check_x(x)
    primes = primes_up_to(x)
    npr = len(primes)
    threads = resolve_threads(threads)
    chunk = max(1, min(64, int(2e8 / (8 * (x + 1)))))
    vals = np.empty(trials, dtype=np.float64)
    n = np.arange(1, x + 1, dtype=np.float64)
    weights = n**-sigma if sigma else None
    sq = _squarefree_mask(x) if model == "rademacher" else None

    def run_block(lo: int, hi: int):
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            rows = np.empty((stop - start, npr))
            for i in range(stop - start):
                rows[i] = trial_rng(seed, start + i).random(npr)
            if model == "steinhaus":
                theta = _phase_matrix(x, rows, primes)
                vals_c = np.exp(2j * np.pi * theta[:, 1:])
                if weights is not None:
                    vals_c *= weights
                s = np.abs(vals_c.sum(axis=1))
            else:
                eps = (rows < 0.5).astype(np.int8) * 2 - 1
                signs = _rademacher_matrix(x, eps, primes)
                s = np.abs(signs[:, sq].sum(axis=1).astype(np.float64))
            vals[start:stop] = s**two_k

    if threads == 1:
        run_block(0, trials)
    else:
        per = -(-trials // threads)
        bounds = [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return MomentEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def helson_table(
    x_list: list[int], trials: int, seed: int, threads: int = 1
) -> list[dict[str, float]]:
    """First-absolute-moment table: does E|S_x| / sqrt(x) flatten or sink?

    Each row carries the simulated mean against the two fixed reference
    levels: the conjectured limiting coefficient and the amplitude upper
    bound, so the table reads as a verdict at a glance.
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


def write_helson_csv(rows: list[dict[str, float]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
