"""The prime sieves, the per-n tables they give, and the Euler-product constants.

``primes_up_to`` is a bool sieve that reaches the Euler-product cutoffs.
The smallest-prime-factor table is behind every table indexed by n <= x
(mu, phi, Omega, the squarefree signatures): each is one recurrence from
n / spf(n) over the blocks of ``spf_blocks`` (Gries and Misra, CACM 21, 1978).

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

from .errors import _MEMORY_GUARD, refuse_past

__all__ = [
    "Factorization",
    "EulerProductResult",
    "factorize_small",
    "primes_up_to",
    "smallest_prime_factors",
    "spf_blocks",
    "dk_prime_power",
    "a_constant",
    "b_constant",
]

Factorization = list[tuple[int, int]]

# Largest prime table, and so Euler-product cutoff: its bool sieve takes a
# byte a number, and about 700 MiB at the cap with its negation and the primes
_MAX_TRUNCATION = 300_000_000
# One shared, monotonically growing prime table (int64).
_prime_cache: np.ndarray | None = None


# ---------------------------------------------------------------------------
# prime sieves, factorization and the per-n tables


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
    refuse_past(f"prime table up to {limit}", limit, _MAX_TRUNCATION, "memory")
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


def smallest_prime_factors(x: int) -> np.ndarray:
    """spf(n) for n = 0..x as int32, with spf(0) = spf(1) = 1.

    Each prime p <= sqrt(x) writes its multiples from p^2 on, the largest
    p first, so the smallest prime dividing n writes last; what no prime
    writes is prime and keeps spf(n) = n.
    """
    # 4 bytes a number; the 1 GiB guard also keeps x < 2^31 for int32
    refuse_past(f"smallest-prime-factor table to {x}", 4 * (x + 1), _MEMORY_GUARD, "memory")
    spf = np.arange(x + 1, dtype=np.int32)
    spf[:2] = 1
    for p in primes_up_to(math.isqrt(x))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


def spf_blocks(x: int):
    """[lo, hi) blocks that cover 2..x in order, each n in one with n / spf(n) < lo.

    n / spf(n) <= n / 2, so a block may run to 2 lo; it is also cut at
    2^20 numbers, which bounds the temporaries of a pass over it.
    """
    lo = 2
    while lo <= x:
        hi = min(2 * lo, lo + (1 << 20), x + 1)
        yield lo, hi
        lo = hi


def _spf_table(x: int, dtype, step) -> np.ndarray:
    """f(n) for n = 0..x, f(0) = 0 and f(1) = 1, else step(f(q), p, p | q), p = spf(n), q = n/p."""
    f = np.zeros(x + 1, dtype=dtype)
    f[1:2] = 1
    spf = smallest_prime_factors(x)
    for lo, hi in spf_blocks(x):
        p = spf[lo:hi]
        q = np.arange(lo, hi, dtype=np.int32) // p
        f[lo:hi] = step(f[q], p, q % p == 0)
    return f


def _mobius_table(x: int) -> np.ndarray:
    """int8 mu(n) for n = 0..x: 0 if p = spf(n) divides q = n/p, else -mu(q)."""
    return _spf_table(x, np.int8, lambda mu_q, p, divides: np.where(divides, 0, -mu_q))


def _totient_table(x: int) -> np.ndarray:
    """int64 phi(n) for n = 0..x: phi(q) p if p = spf(n) divides q = n/p, else phi(q) (p - 1)."""
    return _spf_table(x, np.int64, lambda phi_q, p, divides: phi_q * np.where(divides, p, p - 1))


def _squarefree_masks(x: int) -> tuple[list[int], int]:
    """Prime-signature bitmasks of the squarefree integers in [1, x], in order.

    mask(n) = mask(q) | bit(p), p = spf(n) and q = n/p, or -1 (n not
    squarefree) where mask(q) is -1 or p divides q, i.e. spf(q) = p.
    """
    primes = primes_up_to(x).tolist()
    index = {p: i for i, p in enumerate(primes)}
    spf = smallest_prime_factors(x).tolist()
    masks = [-1, 0]  # mask(0) is never read; mask(1) = 0
    for n in range(2, x + 1):
        p, q = spf[n], n // spf[n]
        masks.append(-1 if masks[q] < 0 or spf[q] == p else masks[q] | 1 << index[p])
    return [m for m in masks[1:] if m >= 0], len(primes)


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


def _euler_maclaurin_tail(t: float, m):
    """sum_{n>=m} n^-t minus the integral of u^-t over [m, oo), t > 0, elementwise over float m.

    Euler-Maclaurin with corrections through B_6; the first dropped term,
    t (t+1) ... (t+6) m^(-t-7) / 1209600, is below 1e-19 at m = 100 for
    t <= 2 and falls as m or t grows past that.
    """
    p3 = t * (t + 1) * (t + 2)
    return m**-t * (0.5 + t / (12 * m) - p3 / (720 * m**3) + p3 * (t + 3) * (t + 4) / (30240 * m**5))


def _zeta(s: float) -> float:
    # the terms below M = 100, then the integral and the Euler-Maclaurin tail from M
    head = [n ** (-s) for n in range(1, 100)]
    return math.fsum([*head, 100 ** (1.0 - s) / (s - 1.0), _euler_maclaurin_tail(s, 100)])


@lru_cache(maxsize=None)
def _prime_zeta(s: float) -> float:
    """sum_p p^-s via Moebius inversion of log zeta; absolute error < 1e-13."""
    n_max = max(2, math.ceil(75.0 / s))
    acc = 0.0
    for n, mu in enumerate(_mobius_table(n_max).tolist()):
        if mu:
            acc += mu / n * math.log(_zeta(n * s))
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
        refuse_past(f"Euler product at eps = {eps}, sieved to {P},", P, _MAX_TRUNCATION, "memory")
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

