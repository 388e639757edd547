"""Exact moment evaluations as finite lattice counts.

Three families of identities are implemented:

* Steinhaus: E|sum_{n<=x} X_n n^-sigma|^(2k) equals the weighted
  multiplicative energy sum_n n^(-2 sigma) r_k(n;x)^2, where r_k(n;x)
  counts ordered k-tuples of integers <= x with product n.  The map is
  built level by level from r_k(n) = sum_{c <= x, c | n} r_{k-1}(n/c),
  scattered into consecutive windows of 2^20 products, so nothing is
  sorted and the memory is the (k-1)-level map plus one window.  The
  energy reduces the k-th level window by window without keeping it;
  guards on memory and run time refuse a map before it is allocated.
  The map serves k >= 3, and at k = 2 it is the independent route.
  The unweighted k = 2 energy instead sums the totient identity over the
  O(sqrt x) blocks of equal floor(x/m), with the summatory totient sieved
  up to x^(2/3) and recursed above it, in O(x^(2/3)) steps.  The weighted
  k = 2 energy sums the coprime-pair identity
  E_2,sigma(x) = sum_{M<=x} w_s(M) H_s(floor(x/M))^2, s = 2 sigma, over
  float tables to x filled by O(sqrt x) strided updates, about
  (6/pi^2) x ln x element operations; guards on memory and run time admit
  x up to 1.96e7, past 10^7, and the sigma = 1/2 energy it reaches is the
  arithmetic side of the constant a(2) alpha(2).

* Rademacher: E(sum_{n<=x} Y_n)^(2k) is evaluated two independent ways,
  by full enumeration of sign assignments to the primes (a fast Walsh
  transform over the 2^pi(x/2) patterns of the primes <= x/2, each prime
  above x/2 adding an independent sign in closed form) and by counting
  2k-tuples of squarefree integers whose product is a perfect square
  (GF(2) prime signatures with a half convolution).  Their exact
  agreement is the main cross-check of this module.

* Dirichlet characters mod a prime q: the character-averaged 2k-th
  moment equals an exact congruence count by orthogonality; both sides
  are computed independently (an integer cyclic convolution of the index
  histogram vs a residue convolution) and compared, and a floating FFT
  over the index transform is kept as a third, inexact check.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize_small, primes_up_to
from .errors import _MEMORY_GUARD, ResourceLimitError, refuse_past

__all__ = [
    "MultiplicityMap",
    "EnergyResult",
    "CharAverageResult",
    "product_multiplicity_map",
    "steinhaus_energy",
    "rademacher_moment_sign_enum",
    "rademacher_moment_tuple_count",
    "char_moment_average",
    "congruence_count",
]

# The unweighted k = 2 energy sieves the totient up to y = x^(2/3) / 4 and
# takes the summatory totient at the ~x^(1/3) values floor(x/j) above y in
# numpy, about 4 x / sqrt(y) element operations; both parts cost ~x^(2/3).
# Measured at 0.16-0.20 us per unit of x^(2/3) (0.9 s at x = 10^10, 3.6 s
# at 10^11; Python 3.11, numpy 2.4, 2-vCPU KVM guest), so the guard on run
# time is about 5 s.  The largest admitted x, 1.64e11, has y = 7.5e6 and a
# peak RSS of 193 MB, under _MEMORY_GUARD, and every int64 partial sum of
# the recursion stays under 2 x (y + 1) = 2.5e18 < 2^63.
_TOTIENT_STEP_GUARD = 3 * 10**7
# The multiplicity maps stream products through one int64 window of 2^20
# cells.  A window with its nonzeros and, for sigma > 0, its float terms
# and their fsum list take under 64 MiB (traced peak 59 MiB for the k = 2,
# x = 10^4 weighted energy); a map entry is an int64 value and count,
# held twice while the windows' pieces are joined.
_WINDOW = 1 << 20
_WINDOW_BYTES = 64 << 20
_MAP_BYTES_PER_ENTRY = 32
# A k-level scatter costs about x C(x+k-2, k-1) + x^k / 16 operations: the
# scatter adds, bounded through the multiset count of the (k-1)-level
# products, and the window cells, 16 of which cost about one add.
# Measured at 8-11 ns an operation for k = 3..4 and 27 for the k = 2 map;
# the weighted k = 3 energy, whose fsum terms add to the cost, took 11.6 at
# x = 1000 (5.6e8 operations in 6.6 s, 3.7 s unweighted; Python 3.11,
# numpy 2.4, 2-vCPU KVM guest), so the guard is at most about 25 s.  The
# largest verify, test or benchmark input, steinhaus_energy(3, 300), is
# 1.5e7 operations.
_SCATTER_CELLS_PER_OP = 16
_SCATTER_OP_GUARD = 2 * 10**9
# the weighted k=1 energy is a Python fsum over x terms, ~0.15 s per 10^6
# terms on a 2-vCPU KVM guest with Python 3.11
_FSUM_TERM_GUARD = 10**7
# the sign enumeration's Walsh table has 2^pi(x/2) cells, one int8 each:
# 2^24 cells (16 MiB) admit x <= 193
_SIGN_PRIME_GUARD = 24
# the exact character average raises a Kronecker-packed integer to the
# k-th power; 2^23 result bits take ~1.3 s (same host), and the cost grows
# like bits^1.58 under CPython's Karatsuba multiplication
_KRONECKER_BIT_GUARD = 2**23
# the congruence count does (k-1) q^2 array operations, 13-21 ns each in
# int64 (x^k < 2^63) and 110-140 ns on the object arrays past that (same
# host): (2, 9973, 9973) is 9.95e7 of them and takes 1.3 s, so every k = 2
# modulus under the q <= 10^4 guard fits
_CONGRUENCE_OP_GUARD = 10**8
# The tuple count builds x masks of pi(x) // 64 + 1 words and XORs each of
# the at most min(2^pi(x), x^j) signatures of every level j < k with the
# <= x base masks.  The levels nest (n = 1 has mask 0), so that is at most
# x (1 + (k - 1) |level_{k-1}|) mask words.  Measured at 110-160 ns a word
# for k = 2 (1.1 s at x = 1600, 5.3 s at 2400, 7.9 s at 2900, 13 s at 3200;
# same host), so the guard is about 10 s, k = 2 up to x = 2927.
_TUPLE_WORD_GUARD = 6 * 10**7
# The weighted k = 2 energy's coprime-pair identity holds three float64
# tables over 0..x (H_s, mu(d) d^-s, phi_s) and mu in int8, with at most
# half a table as a temporary, 29 bytes per x, and the final fsum's 2^20-term
# chunk as one window (traced peak 28 bytes per x at x = 10^7): the memory
# guard admits x <= 3.47e7.  Its (6/pi^2) x ln x strided updates take
# 18-23 ns each (1.8 s at x = 10^7; same host), so the guard on run time,
# about 4.5 s, binds first and admits x <= 1.96e7.
_COPRIME_PAIR_BYTES_PER_X = 29
_COPRIME_PAIR_UPDATE_GUARD = 2 * 10**8


# ---------------------------------------------------------------------------
# multiplicity maps


@dataclass(frozen=True)
class MultiplicityMap:
    """r_k(n; x) for all products n of k factors <= x, stored sparsely.

    ``values`` holds the distinct products in ascending order and
    ``counts`` the matching multiplicities; sum(counts) = x^k.
    """

    k: int
    x: int
    values: np.ndarray
    counts: np.ndarray

    def count(self, n: int) -> int:
        i = int(np.searchsorted(self.values, n))
        if i < len(self.values) and self.values[i] == n:
            return int(self.counts[i])
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.values.tolist(), self.counts.tolist()))

    @property
    def total_tuples(self) -> int:
        return int(self.counts.sum())


def _check_map_guards(k: int, x: int, output: bool) -> None:
    """Refuse a k-level scatter before allocating anything.

    The distinct products of j factors <= x number at most C(x + j - 1, j),
    the count of multisets.  That bounds the (k-1)-level map held while
    the k-th level streams, the k-level map kept when ``output`` is set,
    and the scatter adds x |V_{k-1}|.  The earlier levels are smaller, so
    with ``output`` the bound also covers their build; without it the
    caller builds the (k-1)-level map with ``product_multiplicity_map``,
    which checks its own.
    """
    entries = math.comb(x + k - 2, k - 1) + (math.comb(x + k - 1, k) if output else 0)
    subject = f"multiplicity map at k = {k}, x = {x}"
    need = _MAP_BYTES_PER_ENTRY * entries + _WINDOW_BYTES
    refuse_past(subject, need, _MEMORY_GUARD, "memory")
    ops = x * math.comb(x + k - 2, k - 1) + x**k // _SCATTER_CELLS_PER_OP
    refuse_past(subject, ops, _SCATTER_OP_GUARD, "run time", " scatter operations")


def _scatter_windows(values: np.ndarray, counts: np.ndarray, x: int):
    """Stream the next level of a multiplicity map, one window of products at a time.

    ``values`` (ascending) and ``counts`` hold r(v) for one level.  This
    yields ``(lo, buf)`` with buf[n - lo] = sum_{c <= x, c | n} r(n / c)
    for n in [lo, lo + len(buf)), window after window.  ``buf`` is reused:
    read it before asking for the next window.  For each c the v with c v
    in the window are one slice of ``values``, found for all c by two
    searchsorted calls, so no product outside the window is formed.
    """
    mult = np.arange(1, x + 1, dtype=np.int64)
    top = x * int(values[-1])
    buf = np.zeros(min(_WINDOW, top + 1), dtype=np.int64)
    for lo in range(0, top + 1, len(buf)):
        hi = lo + len(buf)
        starts = np.searchsorted(values, (lo + mult - 1) // mult).tolist()
        ends = np.searchsorted(values, (hi + mult - 1) // mult).tolist()
        for c, a, b in zip(range(1, x + 1), starts, ends):
            if a < b:
                np.add.at(buf, c * values[a:b] - lo, counts[a:b])
        yield lo, buf
        buf.fill(0)


def _window_entries(lo: int, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nz = (buf != 0).nonzero()[0]
    return nz + lo, buf[nz]


def product_multiplicity_map(k: int, x: int) -> MultiplicityMap:
    """Build the product-multiplicity map level by level by windowed divisor scatter."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if x < 1:
        raise ValueError("x must be a positive integer")
    x = int(x)
    _check_map_guards(k, x, output=True)
    vals = np.arange(1, x + 1, dtype=np.int64)
    cnts = np.ones(x, dtype=np.int64)
    for _ in range(k - 1):
        pieces = [_window_entries(lo, buf) for lo, buf in _scatter_windows(vals, cnts, x)]
        vals = np.concatenate([v for v, _ in pieces])
        cnts = np.concatenate([c for _, c in pieces])
    return MultiplicityMap(k=k, x=x, values=vals, counts=cnts)


# ---------------------------------------------------------------------------
# Steinhaus energy


@dataclass(frozen=True)
class EnergyResult:
    """Weighted multiplicative energy. ``value`` is an exact int at sigma=0."""

    k: int
    x: int
    sigma: float
    value: int | float
    tuple_space_size: int


def _totient_table(x: int) -> np.ndarray:
    """phi(n) for n = 0..x.

    Only the primes p <= sqrt(x) are sieved, each with two strided slices,
    while ``rest`` divides their powers out of n.  What is left of n is 1
    or its one prime factor q > sqrt(x), and q divides what phi holds so
    far, so one vectorized pass takes phi(n) / q off where q > 1.
    """
    phi = np.arange(x + 1, dtype=np.int64)
    rest = np.arange(x + 1, dtype=np.int32 if x < 2**31 else np.int64)
    for p in primes_up_to(math.isqrt(x)).tolist():
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= x:
            rest[q::q] //= p
            q *= p
    cofactor = np.zeros_like(phi)
    np.floor_divide(phi, rest, out=cofactor, where=rest > 1)
    phi -= cofactor
    return phi


def _totient_cutoff(x: int) -> int:
    """The sieve bound y of the k = 2 energy at x, after its guard on run time."""
    steps = round(x ** (2 / 3))
    refuse_past(f"k = 2 totient path at x = {x}", steps, _TOTIENT_STEP_GUARD, "run time", " steps")
    return max(math.isqrt(x), steps // 4)


def _energy_k2_sigma0(x: int) -> int:
    """E_2(x) = 2 sum_{i<=x} (2i - 1) Phi(floor(x/i)) - x^2, Phi the summatory totient.

    The solutions of ab = cd with a, b, c, d <= x, parametrized by
    g = gcd(a, c), number sum_{m<=x} (2 phi(m) - [m=1]) floor(x/m)^2, and
    floor(x/m)^2 is the sum of 2i - 1 over i <= x/m.  The sum over i runs
    by the O(sqrt x) blocks of equal floor(x/i), so Phi is needed only at
    the values floor(x/j).  Those up to y ~ x^(2/3) come from the sieved
    table.  The larger ones, at j <= J = floor(x/(y+1)), come in
    increasing order from sum_{d<=n} Phi(floor(n/d)) = n(n+1)/2
    (Deleglise and Rivat, Experiment. Math. 1996): with n = floor(x/j),
    floor(n/d) = floor(x/(jd)) is big[jd] when jd <= J and a table entry
    otherwise.
    """
    y = _totient_cutoff(x)
    small = np.cumsum(_totient_table(y))
    J = x // (y + 1)
    big = [0] * (J + 1)  # big[j] = Phi(floor(x/j)), Python ints past int64
    for j in range(J, 0, -1):
        n = x // j
        r = math.isqrt(n)
        top = J // j  # d <= top: floor(n/d) > y, already in big
        s = n * (n + 1) // 2 - sum(big[j * d] for d in range(2, top + 1))
        # top < d <= r: one table entry each
        s -= int(small[n // np.arange(top + 1, r + 1, dtype=np.int64)].sum())
        # d > r: floor(n/d) = v <= n/(r+1), for the n//v - n//(v+1) values
        # of d in (n/(v+1), n/v], all past r since n//(n//(r+1) + 1) = r
        v = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
        s -= int(np.dot(small[v], n // v - n // (v + 1)))
        big[j] = s
    total = 0
    i = 1
    while i <= x:
        q = x // i
        e = x // q
        # a block above y is a single i <= J
        total += (e * e - (i - 1) ** 2) * (int(small[q]) if q <= y else big[e])
        i = e + 1
    return 2 * total - x * x


def _sum_of_squares_exact(counts: np.ndarray) -> int:
    # chunked int64 dot with a per-chunk overflow budget check
    total = 0
    for lo in range(0, len(counts), 1 << 20):
        c = counts[lo : lo + (1 << 20)]
        top = int(c.max()) if len(c) else 0
        if top * top * len(c) > 4 * 10**18:
            total += sum(int(v) * int(v) for v in c.tolist())
        else:
            total += int(np.dot(c, c))
    return total


def _mobius_table(x: int) -> np.ndarray:
    """mu(n) for n = 0..x, as int8.

    As in ``_totient_table`` only the primes p <= sqrt(x) are sieved: each
    flips the sign of its multiples with one strided slice, zeroes those
    of p^2 with another, and is divided once out of ``rest``.  A squarefree
    n whose rest stays above 1 has one prime factor past sqrt(x) left,
    which flips its sign once more.
    """
    mu = np.ones(x + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(x + 1, dtype=np.int32 if x < 2**31 else np.int64)
    for p in primes_up_to(math.isqrt(x)).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rest[p::p] //= p
    np.negative(mu, out=mu, where=rest > 1)
    return mu


def _check_coprime_pair_guards(x: int) -> None:
    subject = f"k = 2 coprime-pair identity at x = {x}"
    need = _COPRIME_PAIR_BYTES_PER_X * x + _WINDOW_BYTES
    refuse_past(subject, need, _MEMORY_GUARD, "memory")
    updates = round(6 / math.pi**2 * x * math.log(x))
    refuse_past(subject, updates, _COPRIME_PAIR_UPDATE_GUARD, "run time", " strided updates")


def _energy_k2_coprime_pairs(x: int, sigma: float) -> float:
    """E_2,sigma(x) = sum_{M<=x} w_s(M) H_s(floor(x/M))^2, s = 2 sigma.

    The solutions of ab = cd are a = gm, c = gn, b = hn, d = hm with
    gcd(m, n) = 1, and each weighs (ghmn)^-s.  So g and h run to x/M,
    M = max(m, n), and give H_s(y) = sum_{g<=y} g^-s each, while the
    coprime pairs of maximum M give w_s(1) = 1 and, past 1,
    w_s(M) = 2 M^-s phi_s(M) with phi_s(M) = sum_{n<=M, (n,M)=1} n^-s
    = sum_{d|M} mu(d) d^-s H_s(M/d).  At s = 0 this is the totient sum.

    phi_s is filled divisor by divisor: each squarefree d <= top =
    floor(x/(isqrt(x)+1)) adds mu(d) d^-s H_s(i) at M = d i in one strided
    slice, and each multiplier i <= x/(top+1) <= isqrt(x) adds the d > top
    in another, so the loop takes O(sqrt x) Python steps.  The terms are
    summed by one fsum over 2^20-term chunks.
    """
    _check_coprime_pair_guards(x)
    s = 2.0 * sigma
    mu = _mobius_table(x)
    coef = np.arange(x + 1, dtype=np.float64)
    np.power(coef, -s, out=coef, where=coef > 0)
    h = np.cumsum(coef)  # h[y] = H_s(y); coef[0] = 0
    coef *= mu  # coef[d] = mu(d) d^-s
    del mu
    phi = h.copy()  # the d = 1 term
    top = max(1, x // (math.isqrt(x) + 1))
    for d in (np.flatnonzero(coef[2 : top + 1]) + 2).tolist():
        phi[d::d] += coef[d] * h[1 : x // d + 1]
    phi[top + 1 :] += coef[top + 1 :]  # i = 1, where H_s(1) = 1
    for i in range(2, x // (top + 1) + 1):
        phi[(top + 1) * i : x + 1 : i] += coef[top + 1 : x // i + 1] * h[i]
    del coef

    def chunks():
        for lo in range(1, x + 1, _WINDOW):
            m = np.arange(lo, min(lo + _WINDOW, x + 1))
            t = 2.0 * m.astype(np.float64) ** -s * phi[lo : lo + len(m)] * h[x // m] ** 2
            if lo == 1:
                t[0] = h[x] ** 2  # w_s(1) = 1
            yield t.tolist()

    return math.fsum(itertools.chain.from_iterable(chunks()))


def _energy_map(k: int, x: int, sigma: float) -> int | float:
    """sum_n n^(-2 sigma) r_k(n;x)^2 from the k-level map, streamed window by window."""
    _check_map_guards(k, x, output=False)
    below = product_multiplicity_map(k - 1, x)
    windows = _scatter_windows(below.values, below.counts, x)
    if sigma == 0.0:
        return sum(_sum_of_squares_exact(buf) for _, buf in windows)
    # fsum over consecutive chunks of 2^20 distinct products, not over
    # windows, so the float does not depend on the window width
    chunks = []
    pending = np.empty(0)
    for lo, buf in windows:
        v, c = _window_entries(lo, buf)
        c = c.astype(np.float64)
        pending = np.concatenate((pending, v.astype(np.float64) ** (-2.0 * sigma) * c * c))
        while len(pending) >= 1 << 20:
            chunks.append(math.fsum(pending[: 1 << 20].tolist()))
            pending = pending[1 << 20 :]
    chunks.append(math.fsum(pending.tolist()))
    return math.fsum(chunks)


def steinhaus_energy(k: int, x: float, sigma: float = 0.0) -> EnergyResult:
    """sum_n n^(-2 sigma) r_k(n;x)^2, the 2k-th moment of the Steinhaus sum.

    k = 1 is the diagonal; k = 2 takes the summatory-totient block sum at
    sigma = 0 (an exact int) and the coprime-pair identity past it (a
    float, x up to 1.96e7 under its guards); k >= 3 streams the
    product-multiplicity map, which stays callable at k = 2 as the
    independent route.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    xf = int(math.floor(x))
    if xf < 1:
        raise ValueError("x must be at least 1")
    space = xf ** (2 * k)

    if k == 1:
        # the equation surface is the diagonal m1 = m2
        if sigma == 0.0:
            return EnergyResult(k, xf, sigma, xf, space)
        refuse_past(f"k = 1 energy at x = {xf}", xf, _FSUM_TERM_GUARD, "run time", " fsum terms")
        val = math.fsum(n ** (-2.0 * sigma) for n in range(1, xf + 1))
        return EnergyResult(k, xf, sigma, val, space)
    if k == 2:
        value = _energy_k2_sigma0(xf) if sigma == 0.0 else _energy_k2_coprime_pairs(xf, sigma)
        return EnergyResult(k, xf, sigma, value, space)
    return EnergyResult(k, xf, sigma, _energy_map(k, xf, sigma), space)


# ---------------------------------------------------------------------------
# Rademacher moments


def _squarefree_masks(x: int) -> tuple[list[int], int]:
    """Prime-signature bitmasks of the squarefree integers in [1, x]."""
    primes = primes_up_to(x).tolist()
    index = {p: i for i, p in enumerate(primes)}
    masks = []
    for n in range(1, x + 1):
        m = n
        mask = 0
        squarefree = True
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                m //= p
                if m % p == 0:
                    squarefree = False
                    break
                mask |= 1 << index[p]
        if squarefree:
            if m > 1:
                mask |= 1 << index[m]
            masks.append(mask)
    return masks, len(primes)


def _butterfly(v: np.ndarray) -> None:
    # one Walsh-Hadamard level in place, pairing v[:, 0] with v[:, 1]
    top = v[:, 0, :].copy()
    v[:, 0, :] = top + v[:, 1, :]
    v[:, 1, :] = top - v[:, 1, :]


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a (length a power of 2), in place.

    The levels commute, and a level of stride h moves runs of h cells, so
    short strides cost Python and numpy overhead per run.  The levels
    h >= 16 run first on the flat array; the four low ones then run on the
    (16, n / 16) transpose, where every run is n / 16 long.
    """
    n = len(a)
    low = min(n, 16)
    h = low
    while h < n:
        _butterfly(a.reshape(-1, 2, h))
        h *= 2
    rows = np.ascontiguousarray(a.reshape(-1, low).T)
    h = 1
    while h < low:
        _butterfly(rows.reshape(-1, 2, h * (n // low)))
        h *= 2
    a.reshape(-1, low)[...] = rows.T
    return a


def rademacher_moment_sign_enum(k: int, x: int) -> int:
    """E (sum_{n<=x} Y_n)^(2k) by enumerating the sign patterns of the primes.

    A prime p > x/2 divides only n = p among the squarefree n <= x, so its
    sign is an independent +-1 term: S = S_small + sum of the m large signs.
    The Walsh transform of the signature histogram over the primes <= x/2
    gives S_small for every small sign pattern at once, and the large signs
    add a binomial law: the moment is
    sum_s c_s sum_j C(m, j) (s + m - 2j)^(2k) / 2^pi(x), always an integer
    (it equals the tuple count).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if x < 1:
        raise ValueError("x must be at least 1")
    x = int(x)
    # pi(x/2) is counted no further than 2^16, the prime table's least size,
    # so a huge x is refused without a sieve (any x/2 >= 97 passes the guard)
    nsmall = len(primes_up_to(min(x // 2, 1 << 16)))
    cells = 1 << nsmall
    refuse_past(f"2^{nsmall}-cell Walsh table at x = {x}", cells, 1 << _SIGN_PRIME_GUARD, "memory")
    masks, nprimes = _squarefree_masks(x)
    # the large primes hold the top bits, and a mask with one is n = p itself
    small = [mask for mask in masks if mask < 1 << nsmall]
    # every partial sum of the transform is a signed sum of the len(small)
    # histogram entries; int8 arrays wrap without a warning, so the dtype
    # is the narrowest that holds that bound
    bound = len(small)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound)
    f = np.zeros(1 << nsmall, dtype=dtype)
    for mask in small:
        f[mask] += 1
    sums = _walsh_hadamard(f)
    # bincount casts to intp, so it takes the table in 2^20-cell slices
    hist = np.zeros(2 * bound + 1, dtype=np.int64)
    for lo in range(0, len(sums), 1 << 20):
        chunk = sums[lo : lo + (1 << 20)].astype(np.int64) + bound
        hist += np.bincount(chunk, minlength=len(hist))
    # j of the m large signs are negative in C(m, j) of their 2^m patterns
    m = nprimes - nsmall
    large = [(math.comb(m, j), m - 2 * j) for j in range(m + 1)]
    total = 0
    for s, c in enumerate(hist.tolist()):
        if c:
            total += c * sum(ways * (s - bound + t) ** (2 * k) for ways, t in large)
    denom = 1 << nprimes
    if total % denom:
        raise RuntimeError("sign-pattern average was not an integer; enumeration bug")
    return total // denom


def rademacher_moment_tuple_count(k: int, x: int) -> int:
    """Count 2k-tuples of squarefree n_i <= x whose product is a square.

    The parity of each prime's exponent is tracked as a GF(2) signature;
    a product is a square iff the XOR of all 2k signatures vanishes, so
    the count is sum over signatures s of (number of k-tuples with XOR s)^2.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if x < 1:
        raise ValueError("x must be at least 1")
    x = int(x)
    # pi(x) is counted no further than 2^18, past which the x masks alone pass the guard
    nprimes = len(primes_up_to(min(x, 1 << 18)))
    size = min(1 << nprimes, x ** min(k - 1, nprimes))
    words = x * (1 + (k - 1) * size) * (nprimes // 64 + 1)
    refuse_past(f"tuple count at k = {k}, x = {x}", words, _TUPLE_WORD_GUARD, "run time", " words")
    masks, _ = _squarefree_masks(x)
    base = {}
    for m in masks:
        base[m] = base.get(m, 0) + 1
    level = dict(base)
    for _ in range(k - 1):
        nxt: dict[int, int] = {}
        for s1, c1 in level.items():
            for s2, c2 in base.items():
                key = s1 ^ s2
                nxt[key] = nxt.get(key, 0) + c1 * c2
        level = nxt
    return sum(c * c for c in level.values())


# ---------------------------------------------------------------------------
# Dirichlet characters mod a prime


@dataclass(frozen=True)
class CharAverageResult:
    """Character-averaged 2k-th moment together with its exact counterpart.

    ``avg_all`` is the average over all phi(q) characters, computed in
    integers; ``float_error`` records how far the floating FFT evaluation
    ``avg_all_float`` landed from it.  ``congruence_count`` is the
    independent residue-side count, -1 where its own guards refuse it.
    """

    k: int
    q: int
    x: int
    avg_all: Fraction
    avg_nonprincipal: Fraction
    congruence_count: int
    avg_all_float: float
    float_error: float


def _primitive_root(q: int) -> int:
    phi = q - 1
    fac = [p for p, _ in factorize_small(phi)]
    g = 2
    while True:
        if all(pow(g, phi // p, q) != 1 for p in fac):
            return g
        g += 1
        if g >= q:
            raise RuntimeError(f"no primitive root found for q={q}")


def _index_histogram(q: int, x: int) -> list[int]:
    """h[t] = #{n <= x : n = g^t mod q} for a fixed primitive root g.

    #{n <= x : n = r mod q} is floor(x/q) + [1 <= r <= x mod q], so the
    histogram costs O(q) whatever x is.
    """
    g = _primitive_root(q)
    full, rest = divmod(x, q)
    h = []
    r = 1
    for _ in range(q - 1):
        h.append(full + (r <= rest))
        r = r * g % q
    return h


def congruence_count(k: int, q: int, x: int) -> int:
    """#{(m_1..m_2k): m_i <= x, gcd(m_i, q)=1, prod first k = prod last k mod q}."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if q < 2 or factorize_small(q) != [(q, 1)]:
        raise ValueError("q must be prime (composite moduli are out of scope)")
    # at k = 1 a Python pass over the residues (2.4 ms at q = 9973); past it the op guard binds
    refuse_past(f"congruence count at q = {q}", q, 10_000, "run time", " residues")
    if x < 1:
        raise ValueError("x must be at least 1")
    ops = (k - 1) * q * q
    subject = f"congruence count at k = {k}, q = {q}"
    refuse_past(subject, ops, _CONGRUENCE_OP_GUARD, "run time", " array operations")
    # a j-level entry counts j-tuples, so every entry and partial sum is at
    # most x^k; object arrays only where that passes int64
    dtype = np.int64 if x**k < 2**63 else object
    full, rest = divmod(x, q)
    counts = np.array([0] + [full + (r <= rest) for r in range(1, q)], dtype=dtype)
    residues = np.arange(q)
    level = counts
    for _ in range(k - 1):
        nxt = np.zeros(q, dtype=dtype)
        for t, lt in enumerate(level.tolist()):
            if lt:
                nxt[t * residues % q] += lt * counts
        level = nxt
    return sum(c * c for c in level[1:].tolist())


def _cyclic_power_square_sum(h: list[int], k: int) -> int:
    """sum_t (h^{*k}(t))^2 for the k-fold cyclic convolution of h.

    Kronecker substitution: h is packed into one integer with a slot wide
    enough for any coefficient of the linear k-fold product (each is at
    most sum(h)^k), raised to the k-th power, unpacked and folded mod
    len(h).
    """
    if k == 1:
        return sum(c * c for c in h)
    n = len(h)
    width = (sum(h) ** k).bit_length() // 8 + 1
    bits = 8 * width * (k * (n - 1) + 1)
    subject = f"k = {k} power of the packed histogram mod {n + 1}"
    refuse_past(subject, bits, _KRONECKER_BIT_GUARD, "run time", " bits")
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in h), "little")
    raw = (packed**k).to_bytes(bits // 8, "little")
    coeffs = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    return sum(sum(coeffs[t::n]) ** 2 for t in range(n))


def char_moment_average(k: int, q: int, x: int) -> CharAverageResult:
    """Average of |sum_{n<=x} chi(n)|^(2k) over all characters mod prime q.

    By orthogonality the average is sum_t (h^{*k}(t))^2, with h the index
    histogram and h^{*k} its k-fold cyclic convolution mod q-1, which is
    computed exactly in integers.  All phi(q) character sums also come
    from one floating FFT of h; that average and its distance from the
    exact one are reported as a check.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if q < 2 or factorize_small(q) != [(q, 1)]:
        raise ValueError("q must be prime (composite moduli are out of scope)")
    # a Python pass over the residues: 0.72 s at k = 1, q = 999983 (same host)
    refuse_past(f"character average at q = {q}", q, 10**6, "run time", " residues")
    if x < 1:
        raise ValueError("x must be at least 1")
    h = _index_histogram(q, x)
    # chi_j(g^t) = exp(2 pi i j t / (q-1)); sums for all j at once
    sums = np.fft.fft(np.array(h, dtype=np.float64))
    powers = np.abs(sums) ** (2 * k)
    phi = q - 1
    avg_float = float(np.sum(powers)) / phi
    avg_int = _cyclic_power_square_sum(h, k)
    avg_all = Fraction(avg_int)
    principal = sum(h)  # chi_0 sum is just the coprime count
    if phi > 1:
        avg_nonprincipal = Fraction(avg_int * phi - principal ** (2 * k), phi - 1)
    else:
        avg_nonprincipal = Fraction(0)
    try:
        cc = congruence_count(k, q, x)
    except ResourceLimitError:
        cc = -1
    return CharAverageResult(
        k=k,
        q=q,
        x=x,
        avg_all=avg_all,
        avg_nonprincipal=avg_nonprincipal,
        congruence_count=cc,
        avg_all_float=avg_float,
        float_error=float(abs(Fraction(avg_float) - avg_int)),
    )
