"""Sieves, factorization, and the Euler-product constants.

The products evaluated here are the arithmetic prefactors that appear in
moment asymptotics of random multiplicative sums:

    a(k) = prod_p (1 - 1/p)^(k^2) * sum_m d_k(p^m)^2 / p^m
    b(k) = prod_p (1 - 1/p)^(k(2k-1)) * sum_{i<=k} C(2k, 2i) / p^i

where d_k(p^m) = C(k+m-1, m) is the k-fold divisor function at prime
powers, extended to real k > 0 through the Gamma function.  Both products
converge like sum 1/p^2 and are accumulated in log space over primes in
ascending order up to a cutoff P.  The discarded p > P part is not merely
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
    "FactorSieve",
    "Factorization",
    "EulerProductResult",
    "build_spf_sieve",
    "factorize",
    "factorize_small",
    "primes_up_to",
    "dk_prime_power",
    "a_constant",
    "b_constant",
    "char_local_factor",
]

Factorization = list[tuple[int, int]]

# Largest prime cutoff the Euler products will sieve to before refusing.
_MAX_TRUNCATION = 300_000_000
# One shared, monotonically growing prime table (int64).
_prime_cache: np.ndarray | None = None


# ---------------------------------------------------------------------------
# sieves and factorization


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 2 <= n <= limit.

    ``spf`` is an int32 array of length limit+1 with spf[n] = smallest
    prime factor of n (spf[0] = spf[1] = 0).  Immutable after build and
    safe to share between threads.
    """

    limit: int
    spf: np.ndarray

    def smallest_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [2, {self.limit}]")
        return int(self.spf[n])


def build_spf_sieve(limit: int) -> FactorSieve:
    """Sieve of smallest prime factors up to ``limit`` (4 bytes/entry)."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > 2_000_000_000:
        raise ResourceLimitError(f"spf sieve limit {limit} exceeds 2e9 entries")
    spf = np.arange(limit + 1, dtype=np.int32)
    spf[:2] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            idx = np.arange(p * p, limit + 1, p)
            sub = spf[idx]
            spf[idx] = np.where(sub == idx, p, sub)
    spf.setflags(write=False)
    return FactorSieve(limit=limit, spf=spf)


def factorize(n: int, sieve: FactorSieve) -> Factorization:
    """Factor ``n`` into ordered (prime, exponent) pairs via the spf table."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    if n > sieve.limit:
        raise ValueError(f"n={n} exceeds sieve limit {sieve.limit}")
    out: Factorization = []
    spf = sieve.spf
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


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


def _a_local_log_small(k: float, p: int, eps: float) -> tuple[float, float]:
    """(log local factor, inner-sum tail bound) for one small prime."""
    s = 1.0
    term = 1.0
    d_prev = 1.0
    m = 0
    while True:
        m += 1
        d_curr = d_prev * (k + m - 1) / m
        term = d_curr * d_curr / float(p) ** m
        s += term
        d_prev = d_curr
        # term ratios are monotone in m (downward for k >= 1, upward toward
        # 1/p for k < 1), so their sup from here on is max(current, 1/p)
        rho = max(((k + m) / (m + 1)) ** 2 / p, 1.0 / p)
        if rho < 0.95 and term < eps * 1e-3 * s:
            inner_tail = term * rho / (1.0 - rho)
            break
        if m > 400:
            raise RuntimeError("inner sum failed to converge (unreachable for k>0, p>=2)")
    return k * k * math.log1p(-1.0 / p) + math.log(s), inner_tail / s


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

    # exact p^-2 and p^-3 coefficients of the local log (the p^-1 ones cancel)
    e1 = k * k
    d2 = k * (k + 1) / 2.0
    d3 = k * (k + 1) * (k + 2) / 6.0
    c2 = d2 * d2 - e1 * e1 / 2.0 - k * k / 2.0
    c3 = d3 * d3 - e1 * d2 * d2 + e1**3 / 3.0 - k * k / 3.0

    def inner_sum_abs(r: float) -> float:
        total = 0.0
        d = 1.0
        m = 0
        while True:
            m += 1
            d = d * (k + m - 1) / m
            term = d * d * r**m
            total += term
            rho = max(((k + m) / (m + 1)) ** 2 * r, r)
            if rho < 0.95 and term * rho / (1.0 - rho) < 1e-18:
                return total
            if m > 10_000:
                return math.inf

    r, u_r = _choose_radius(inner_sum_abs)
    m_r = -k * k * math.log1p(-r) - math.log1p(-u_r)
    P = _choose_cutoff(m_r, r, eps)
    primes = primes_up_to(P)

    split = 10_000
    inner_tail_total = 0.0
    logs_small = []
    for p in primes[primes < split].tolist():
        lg, rel_tail = _a_local_log_small(k, p, eps)
        logs_small.append(lg)
        inner_tail_total += rel_tail

    big = primes[primes >= split].astype(np.float64)
    log_big_sum = 0.0
    if len(big):
        invp = 1.0 / big
        s = np.ones_like(big)
        d = 1.0
        for m in range(1, 7):
            d = d * (k + m - 1) / m
            s += (d * d) * invp**m
        # remainder of the m-sum: next term times a geometric envelope
        d7 = d * (k + 6) / 7
        rem = (d7 * d7) * invp**7 * 2.0
        logterms = (k * k) * np.log1p(-invp) + np.log1p(s - 1.0)
        log_big_sum = math.fsum(logterms.tolist())
        inner_tail_total += float(np.sum(rem / s))

    model, slack = _tail_model(c2, c3, P, primes.astype(np.float64))
    total_log = math.fsum(logs_small) + log_big_sum + model
    tail = _cauchy_fourth_bound(m_r, r, P) + slack + inner_tail_total
    return EulerProductResult(
        value=math.exp(total_log), truncation_prime=P, tail_bound=tail
    )


@lru_cache(maxsize=None)
def b_constant(k: int, eps: float = 1e-8) -> EulerProductResult:
    """The sign-pattern Euler factor b(k); inner sum is a finite polynomial."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("b_constant requires integer k >= 1")
    if not 0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")

    bigk = k * (2 * k - 1)
    c4b = math.comb(2 * k, 4)
    c6b = math.comb(2 * k, 6)
    # exact p^-2 and p^-3 coefficients of the local log; the p^-1
    # coefficient C(2k,2) - K vanishes identically
    c2 = c4b - bigk * bigk / 2.0 - bigk / 2.0
    c3 = c6b - bigk * c4b + bigk**3 / 3.0 - bigk / 3.0

    def inner_sum_abs(r: float) -> float:
        return sum(math.comb(2 * k, 2 * i) * r**i for i in range(1, k + 1))

    r, u_r = _choose_radius(inner_sum_abs)
    m_r = -bigk * math.log1p(-r) - math.log1p(-u_r)
    P = _choose_cutoff(m_r, r, eps)
    primes = primes_up_to(P).astype(np.float64)
    invp = 1.0 / primes
    s = np.ones_like(primes)
    for i in range(1, k + 1):
        s += math.comb(2 * k, 2 * i) * invp**i
    logterms = bigk * np.log1p(-invp) + np.log(s)
    model, slack = _tail_model(c2, c3, P, primes)
    total_log = math.fsum(logterms.tolist()) + model
    tail = _cauchy_fourth_bound(m_r, r, P) + slack
    return EulerProductResult(value=math.exp(total_log), truncation_prime=P, tail_bound=tail)


def char_local_factor(k: int, q_factorization: Factorization) -> float:
    """prod over distinct p | q of (sum_m d_k(p^m)^2 / p^m)^(-1).

    Inner sums are truncated once a geometric envelope certifies the
    remaining tail below 1e-12 relative.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("char_local_factor requires integer k >= 1")
    out = 1.0
    for p, _e in q_factorization:
        s = 1.0
        d = 1.0
        m = 0
        while True:
            m += 1
            d = d * (k + m - 1) / m
            term = d * d / float(p) ** m
            s += term
            rho = max(((k + m) / (m + 1)) ** 2 / p, 1.0 / p)
            if rho < 0.95 and term * rho / (1 - rho) < 1e-12 * s:
                break
            if m > 500:
                raise RuntimeError("local sum failed to converge")
        out /= s
    return out
