"""The prime sieve, trial-division factorization, and the Euler-product constants.

The products evaluated here are the arithmetic prefactors that appear in
moment asymptotics of random multiplicative sums:

    a(k) = prod_p (1 - 1/p)^(k^2) * sum_m d_k(p^m)^2 / p^m
    b(k) = prod_p (1 - 1/p)^(k(2k-1)) * sum_{i<=k} C(2k, 2i) / p^i

where d_k(p^m) = C(k+m-1, m) is the k-fold divisor function at prime
powers, extended to real k > 0 through the Gamma function.  Both go
through one routine, ``_euler_product``, which takes the local series as
a callable: the finite polynomial for b(k), and for a(k) the d_k
series ``_dk_square_series``, summed for all primes at once, each prime
leaving the loop once its own geometric envelope certifies its tail.
Both products converge like sum 1/p^2 and are accumulated in log space over
primes up to a cutoff P.  The discarded p > P part is not merely
bounded but modeled: the exact 1/p^2 and 1/p^3 coefficients of the local
factor's log are summed over all p > P through prime-zeta values, so what
the returned ``tail_bound`` certifies is only the fourth-order remainder
(bounded via a Cauchy estimate on the local log) plus the inner-sum and
prime-zeta evaluation slack.  That keeps P near 10^5 at eps = 1e-8 where
a naive second-order bound would demand P beyond 10^9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "Factorization",
    "EulerProductResult",
    "factorize_small",
    "primes_up_to",
    "dk_prime_power",
    "a_constant",
    "b_constant",
]

Factorization = list[tuple[int, int]]

# Largest prime cutoff the Euler products will sieve to before refusing.
_MAX_TRUNCATION = 300_000_000
# One shared, monotonically growing prime table (int64).
_prime_cache: np.ndarray | None = None


# ---------------------------------------------------------------------------
# prime sieve and factorization


def factorize_small(n: int) -> Factorization:
    """Trial-division factorization; fine for n up to ~10^12."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: Factorization = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


_prime_cache_limit = 0


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grown on demand)."""
    global _prime_cache, _prime_cache_limit
    if limit > _MAX_TRUNCATION:
        raise ResourceLimitError(f"prime table limit {limit} exceeds {_MAX_TRUNCATION}")
    if _prime_cache is None or limit > _prime_cache_limit:
        target = max(limit, 1 << 16)
        composite = np.zeros(target + 1, dtype=bool)
        composite[:2] = True
        for p in range(2, math.isqrt(target) + 1):
            if not composite[p]:
                composite[p * p :: p] = True
        _prime_cache = np.flatnonzero(~composite).astype(np.int64)
        _prime_cache.setflags(write=False)
        _prime_cache_limit = target
    cut = int(np.searchsorted(_prime_cache, limit, side="right"))
    return _prime_cache[:cut]


# ---------------------------------------------------------------------------
# divisor-function values


def dk_prime_power(k: float, m: int) -> float:
    """d_k(p^m) = C(k+m-1, m), extended to real k > 0.

    Computed through log-Gamma differences for non-integer k so that
    values stay finite for m up to 60; exact binomial for integer k.
    """
    if k <= 0:
        raise ValueError("dk_prime_power requires k > 0")
    if m < 0:
        raise ValueError("dk_prime_power requires m >= 0")
    if m == 0:
        return 1.0
    ik = int(k)
    if ik == k:
        return float(math.comb(ik + m - 1, m))
    return math.exp(math.lgamma(k + m) - math.lgamma(m + 1) - math.lgamma(k))


# ---------------------------------------------------------------------------
# Euler products


@dataclass(frozen=True)
class EulerProductResult:
    """A truncated Euler product with a certified truncation bound.

    ``tail_bound`` bounds |log(value) - log(full product)|, covering both
    the prime cutoff and the truncation of the inner m-sums.
    """

    value: float
    truncation_prime: int
    tail_bound: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("Euler product value must be positive")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")


def _prime_tail_power(s: float, P: int) -> float:
    # sum_{p > P} p^-s <= 1.3 * s/(s-1) * P^(1-s) / log P by partial
    # summation against pi(t) <= 1.3 t / log t (valid for t >= 17).
    return 1.3 * s / (s - 1.0) * P ** (1.0 - s) / math.log(P)


def _zeta(s: float) -> float:
    # Euler-Maclaurin with M = 100 and corrections through B_4; the first
    # dropped term is below 1e-15 for every s >= 2.
    m_cut = 100
    acc = math.fsum(n ** (-s) for n in range(1, m_cut))
    acc += m_cut ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * m_cut ** (-s)
    acc += s * m_cut ** (-s - 1.0) / 12.0
    acc -= s * (s + 1.0) * (s + 2.0) * m_cut ** (-s - 3.0) / 720.0
    return acc


def _mobius_upto(limit: int) -> list[int]:
    mu = [1] * (limit + 1)
    primes = []
    is_comp = [False] * (limit + 1)
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


@lru_cache(maxsize=None)
def _prime_zeta(s: float) -> float:
    """sum_p p^-s via Moebius inversion of log zeta; absolute error < 1e-13."""
    n_max = max(2, math.ceil(75.0 / s))
    mu = _mobius_upto(n_max)
    acc = 0.0
    for n in range(1, n_max + 1):
        if mu[n] == 0:
            continue
        acc += mu[n] / n * math.log(_zeta(n * s))
    return acc


def _tail_model(c2: float, c3: float, P: int, primes: np.ndarray) -> tuple[float, float]:
    """(sum over p > P of c2/p^2 + c3/p^3, evaluation slack) via prime zeta."""
    invp = 1.0 / primes
    t2 = _prime_zeta(2.0) - math.fsum((invp * invp).tolist())
    t3 = _prime_zeta(3.0) - math.fsum((invp * invp * invp).tolist())
    slack = (abs(c2) + abs(c3) + 1.0) * 1e-12
    return c2 * t2 + c3 * t3, slack


def _cauchy_fourth_bound(m_r: float, r: float, P: int) -> float:
    # The local log is analytic on |y| <= r with modulus at most m_r, so
    # its Taylor coefficients obey |c_m| <= m_r / r^m and the discarded
    # orders m >= 4 sum to at most this over all p > P.
    return m_r / r**4 * _prime_tail_power(4.0, P) / (1.0 - 1.0 / (P * r))


def _choose_radius(inner_coefficient_sum) -> tuple[float, float]:
    """(r, U(r)) with U < 0.7: a disk where the local factor stays away from 0.

    ``inner_coefficient_sum`` maps r to sum_m |u_m| r^m for the inner
    series 1 + sum u_m y^m of the local factor.
    """
    r = 0.02
    while r > 0.0005:
        u = inner_coefficient_sum(r)
        if u < 0.7:
            return r, u
        r /= 2.0
    raise RuntimeError("no analyticity radius found (k far out of supported range)")


def _choose_cutoff(m_r: float, r: float, eps: float) -> int:
    P = 100_000
    while _cauchy_fourth_bound(m_r, r, P) >= 0.25 * eps:
        P *= 2
        if P > _MAX_TRUNCATION:
            raise ResourceLimitError(
                f"eps={eps} needs truncation prime beyond {_MAX_TRUNCATION}"
            )
    return P


def _dk_square_series(k: float, y, rel_tol: float):
    """(S, tail) with S = sum_{m>=0} d_k(p^m)^2 y^m, elementwise over ``y``.

    ``tail`` bounds the part of S left out.  From step m on every term
    ratio ((k+j)/(j+1))^2 y is at most rho = max(((k+m)/(m+1))^2 y, y),
    because ((k+j)/(j+1))^2 is monotone in j (downward for k >= 1, upward
    toward 1 for k < 1); an entry leaves the loop once its rho < 0.95 and
    its geometric envelope term * rho / (1 - rho) is within rel_tol * S.
    """
    y = np.asarray(y, dtype=np.float64)
    s, tail = np.ones(y.size), np.zeros(y.size)
    live = np.arange(y.size)
    y_live, s_live = y.ravel(), s.copy()
    d = 1.0
    for m in range(1, 10_001):
        d = d * (k + m - 1) / m
        term = d * d * y_live**m
        s_live += term
        rho = np.maximum(((k + m) / (m + 1)) ** 2 * y_live, y_live)
        envelope = term * rho / (1.0 - np.minimum(rho, 0.95))
        done = (rho < 0.95) & (envelope <= rel_tol * s_live)
        s[live[done]] = s_live[done]
        tail[live[done]] = envelope[done]
        live, y_live, s_live = live[~done], y_live[~done], s_live[~done]
        if not live.size:
            return s.reshape(y.shape), tail.reshape(y.shape)
    raise RuntimeError("d_k local series failed to converge (k far out of supported range)")


def _euler_product(
    E: float, u1: float, u2: float, u3: float, series, eps: float
) -> EulerProductResult:
    """prod_p (1 - 1/p)^E * S(1/p), certified to |Delta log| <= eps.

    ``series(y)`` returns (S(y), bound on what S leaves out) for the local
    series S(y) = 1 + u1 y + u2 y^2 + u3 y^3 + ... with nonnegative
    coefficients; u1 = E, so the 1/p terms of the local log cancel.
    """
    # y^2 and y^3 coefficients of the local log E log(1-y) + log S(y)
    c2 = u2 - u1 * u1 / 2.0 - E / 2.0
    c3 = u3 - u1 * u2 + u1**3 / 3.0 - E / 3.0
    r, u_r = _choose_radius(lambda r: sum(series(r)) - 1.0)
    m_r = -E * math.log1p(-r) - math.log1p(-u_r)
    P = _choose_cutoff(m_r, r, eps)
    primes = primes_up_to(P).astype(np.float64)
    invp = 1.0 / primes
    s, inner_tail = series(invp)
    logterms = E * np.log1p(-invp) + np.log(s)
    model, slack = _tail_model(c2, c3, P, primes)
    total_log = math.fsum(logterms.tolist()) + model
    tail = _cauchy_fourth_bound(m_r, r, P) + slack + float(np.sum(inner_tail / s))
    return EulerProductResult(value=math.exp(total_log), truncation_prime=P, tail_bound=tail)


@lru_cache(maxsize=None)
def a_constant(k: float, eps: float = 1e-8) -> EulerProductResult:
    """The arithmetic factor a(k), certified to |Delta log| <= eps.

    k = 1 telescopes exactly: the local factor is (1-1/p) * sum p^-m = 1,
    so the product is returned as exactly 1 with zero tail.
    """
    if k <= 0:
        raise ValueError("a_constant requires k > 0")
    if not 0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    if k == 1:
        return EulerProductResult(value=1.0, truncation_prime=2, tail_bound=0.0)
    d2 = k * (k + 1) / 2.0
    d3 = k * (k + 1) * (k + 2) / 6.0
    # each local sum runs to float resolution (rel_tol <= 1e-16), so its
    # truncation never limits the product's accuracy
    rel_tol = min(eps, 1e-10) * 1e-6
    return _euler_product(
        k * k, k * k, d2 * d2, d3 * d3, lambda y: _dk_square_series(k, y, rel_tol), eps
    )


@lru_cache(maxsize=None)
def b_constant(k: int, eps: float = 1e-8) -> EulerProductResult:
    """The sign-pattern Euler factor b(k); inner sum is a finite polynomial."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("b_constant requires integer k >= 1")
    if not 0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")

    def series(y):
        s = 1.0
        for i in range(1, k + 1):
            s = s + math.comb(2 * k, 2 * i) * y**i
        return s, 0.0

    bigk = k * (2 * k - 1)
    return _euler_product(bigk, bigk, math.comb(2 * k, 4), math.comb(2 * k, 6), series, eps)

