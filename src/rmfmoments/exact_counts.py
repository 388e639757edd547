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
  The k = 2 energy at every sigma instead sums the coprime-pair identity
  E_2,sigma(x) = sum_{M<=x} w_s(M) H_s(floor(x/M))^2, s = 2 sigma, by the
  hyperbola method over the summatory weight W_s: sieved to x^(2/3) (the
  totient table of ``arith`` at sigma = 0, exact ints; at sigma > 0 mu,
  then phi_s by O(sqrt y) strided updates, floats) and recursed above it from
  sum_{d<=n} d^-2s W_s(floor(n/d)) = H_s(n)^2, in O(x^(2/3)) steps, x up
  to 1.64e11 under one guard on run time.  The sigma = 1/2 energy is the
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
  are computed independently and compared, and a floating FFT over the
  index transform is kept as a third, inexact check.  The average is an
  integer cyclic convolution of the index histogram through a primitive
  root.  The count stays on the residues: the number of n <= x in a class
  u != 0 is a step function of u, full + [u <= rest] with x = full q + rest,
  so each level convolves with it by gathering level[s / u] over the u on
  the shorter side of the step, q min(rest, q - 1 - rest) cells, with
  modular inverses only and no primitive root or discrete log.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _euler_maclaurin_tail, _mobius_table, _squarefree_masks, _totient_table
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

# The k = 2 energy sieves its weights up to y = x^(2/3) / 4 and recurses for
# the ~x^(1/3) values floor(x/j) above y in numpy, about 4 x / sqrt(y)
# element operations; both parts cost ~x^(2/3).  y is at least
# min(x, 2^10), so the Euler-Maclaurin tails past it are exact to 1e-20.
# At sigma = 0 (ints) it was measured at 0.12-0.22 us per unit of x^(2/3)
# (0.56-0.73 s at x = 10^10, 2.5-3.8 s at 10^11; Python 3.11, numpy 2.4,
# 2-vCPU KVM guest), so the guard on run time is about 5 s.  The largest
# admitted x, 1.64e11, has y = 7.5e6 and a peak RSS of 145-155 MB, under
# _MEMORY_GUARD, and every int64 partial sum of the recursion stays under
# 4 x (y + 1) = 4.9e18 < 2^63.  At sigma > 0 (floats) the same steps took
# 0.16-0.26 us each (1.1 s at 10^10, 3.4-4.1 s at 10^11, 4.8-5.7 s at
# 1.64e11; same host), so one guard serves both; the float tables' fill
# peaks at 35 bytes per y (290 MB RSS at 1.64e11).
_K2_STEP_GUARD = 3 * 10**7
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
# The congruence count gathers q cells for each u on the shorter side of
# its residue step, q min(rest, q - 1 - rest) a level, plus q for the level
# itself, and the guard counts exactly those cells.  Measured at 6-7 ns a
# cell in int64 (x^k < 2^63) and 33-34 ns on the object arrays past that:
# 0.73 s at (3, 9973, 4986), 1.05 s at (4, 9973, 4986) with the guard
# lifted, and 1.7 s on object arrays at (2, 9973, 10^10 + 1897) (same
# host), so the guard is about 0.7 s in int64 and 3.4 s on object arrays.
_CONGRUENCE_CELL_GUARD = 10**8
# The tuple count builds x masks of pi(x) // 64 + 1 words and XORs each of
# the at most min(2^pi(x), x^j) signatures of every level j < k with the
# <= x base masks.  The levels nest (n = 1 has mask 0), so that is at most
# x (1 + (k - 1) |level_{k-1}|) mask words.  Measured at 110-160 ns a word
# for k = 2 (1.1 s at x = 1600, 5.3 s at 2400, 7.9 s at 2900, 13 s at 3200;
# same host), so the guard is about 10 s, k = 2 up to x = 2927.
_TUPLE_WORD_GUARD = 6 * 10**7


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


def _k2_cutoff(x: int) -> int:
    """The sieve bound y of the k = 2 energy at x, after its guard on run time."""
    steps = round(x ** (2 / 3))
    refuse_past(f"k = 2 energy at x = {x}", steps, _K2_STEP_GUARD, "run time", " steps")
    return max(math.isqrt(x), steps // 4, min(x, 1 << 10))


def _pair_weight_table(y: int, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w_s, H_s, n^-s) over 0..y at s > 0, as float64.

    w_s(1) = 1 and, past 1, w_s(M) = 2 M^-s phi_s(M) with phi_s(M) =
    sum_{n<=M, (n,M)=1} n^-s = sum_{d|M} mu(d) d^-s H_s(M/d), filled divisor
    by divisor: each squarefree d <= top = floor(y/(isqrt(y)+1)) adds
    mu(d) d^-s H_s(i) at M = d i in one strided slice, and each multiplier
    i <= y/(top+1) <= isqrt(y) adds the d > top in another, so the loop
    takes O(sqrt y) Python steps.
    """
    power = np.arange(y + 1, dtype=np.float64)
    np.power(power, -s, out=power, where=power > 0)
    h = np.cumsum(power)  # h[n] = H_s(n); power[0] = 0
    coef = power * _mobius_table(y)  # coef[d] = mu(d) d^-s
    w = h.copy()  # the d = 1 term
    top = max(1, y // (math.isqrt(y) + 1))
    for d in (np.flatnonzero(coef[2 : top + 1]) + 2).tolist():
        w[d::d] += coef[d] * h[1 : y // d + 1]
    w[top + 1 :] += coef[top + 1 :]  # i = 1, where H_s(1) = 1
    for i in range(2, y // (top + 1) + 1):
        w[(top + 1) * i : y + 1 : i] += coef[top + 1 : y // i + 1] * h[i]
    w *= power
    w *= 2.0
    w[1] = 1.0
    return w, h, power


def _power_sums(table: np.ndarray, t: float, m: np.ndarray) -> np.ndarray:
    """H_t(m) = sum_{n<=m} n^-t elementwise over m, from the table H_t(0..y) and past it.

    Past y it adds to H_t(y) the sum over (y, m]: the integral of u^-t over
    [y + 1, m + 1], in expm1/log1p form, and the difference of the
    Euler-Maclaurin tails at y + 1 and m + 1.
    """
    y = len(table) - 1
    out = table[np.minimum(m, y)]
    past = m > y
    a, b = float(y + 1), m[past] + 1.0
    log_ratio = np.log1p((b - a) / a)
    integral = a ** (1 - t) * np.expm1((1 - t) * log_ratio) / (1 - t) if t != 1.0 else log_ratio
    out[past] += integral + _euler_maclaurin_tail(t, a) - _euler_maclaurin_tail(t, b)
    return out


def _energy_k2(x: int, sigma: float) -> int | float:
    """E_2,sigma(x) = sum_{M<=x} w_s(M) H_s(floor(x/M))^2, s = 2 sigma, in O(x^(2/3)) steps.

    The solutions of ab = cd are a = gm, c = gn, b = hn, d = hm with
    gcd(m, n) = 1, and each weighs (ghmn)^-s.  So g and h run to x/M,
    M = max(m, n), and give H_s(x/M) = sum_{g<=x/M} g^-s each, while the
    coprime pairs of maximum M weigh w_s(M) (``_pair_weight_table``); at
    s = 0, H_0(n) = n and w_0(M) = 2 phi(M) - [M = 1], exact ints.

    Grouping the pairs (n, M) <= N by their gcd d gives
    sum_{d<=N} d^-2s W_s(floor(N/d)) = H_s(N)^2 with W_s the summatory w_s
    (at s = 0 the recursion of Deleglise and Rivat, Experiment. Math. 1996).
    W_s up to y ~ x^(2/3) comes from the table; the W_s(floor(x/j)) above
    it, at j <= J = floor(x/(y+1)), come in increasing order from that
    identity: with N = floor(x/j), floor(N/d) = floor(x/(jd)) is big[jd]
    when jd <= J and a table entry otherwise.  Past the table, H_s and the
    sums of d^-2s come from ``_power_sums``.  With u = isqrt(x), the
    hyperbola method then gives
    E = sum_{M<=u} w_s(M) H_s(x/M)^2 + sum_{i<=u} (H_s(i)^2 - H_s(i-1)^2)
    W_s(x/i) - W_s(u) H_s(u)^2, a sum of positive terms but the last.
    """
    s = 2.0 * sigma
    y = _k2_cutoff(x)
    J, u = x // (y + 1), math.isqrt(x)
    m = np.arange(1, u + 1, dtype=np.int64)
    # hx = H_s(x/M) and h2 = H_s(i)^2 - H_s(i-1)^2 for M, i <= u, hu = H_s(u)
    if s == 0.0:
        w = 2 * _totient_table(y)
        w[1] = 1
        hx, h2, hu = (x // m).astype(object), 2 * m - 1, u
        big = np.zeros(J + 1, dtype=object)  # big[j] = W_0(floor(x/j)), Python ints
    else:
        w, h, power = _pair_weight_table(y, s)
        hx, h2, hu = _power_sums(h, s, x // m), power[1 : u + 1] * (h[1 : u + 1] + h[:u]), h[u]
        hc = np.square(power)
        np.cumsum(hc, out=hc)  # hc[n] = H_2s(n)
        big = np.zeros(J + 1)
    first = (w[1 : u + 1] * hx * hx).sum()
    W = np.cumsum(w, out=w)
    for j in range(J, 0, -1):
        n, top = x // j, J // j  # d <= top: floor(n/d) > y, already in big
        r = math.isqrt(n)
        # top < d <= r: one table entry each
        d = np.arange(top + 1, r + 1, dtype=np.int64)
        # d > r: floor(n/d) = v <= n/(r+1), for the d in (n/(v+1), n/v],
        # all past r since n//(n//(r+1) + 1) = r
        v = np.arange(1, n // (r + 1) + 2, dtype=np.int64)
        if s == 0.0:
            # plain sums and counts; every int64 partial sum stays under 4 x (y + 1)
            known, hv = big[2 * j : top * j + 1 : j].sum() + int(W[n // d].sum()), n // v
        else:
            # weighted by d^-2s = power[d]^2, and by H_2s(n/v) - H_2s(n/(v+1)) for d > r
            known = (big[2 * j : top * j + 1 : j] * power[2 : top + 1] ** 2).sum()
            known += (W[n // d] * power[d] ** 2).sum()
            hv = _power_sums(hc, 2.0 * s, n // v)
        big[j] = hx[j - 1] ** 2 - known - (W[v[:-1]] * (hv[:-1] - hv[1:])).sum().item()
    tail = W[x // np.arange(J + 1, u + 1, dtype=np.int64)]  # W_s(x/i), J < i <= u
    total = first + (h2 * np.concatenate((big[1:], tail))).sum() - W[u].item() * hu**2
    return total if s == 0.0 else float(total)


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

    k = 1 is the diagonal; k = 2 sums the coprime-pair identity in
    O(x^(2/3)) steps, an exact int at sigma = 0 and a float past it, x up to
    1.64e11 under its guard; k >= 3 streams the product-multiplicity map,
    which stays callable at k = 2 as the independent route.
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
        return EnergyResult(k, xf, sigma, _energy_k2(xf, sigma), space)
    return EnergyResult(k, xf, sigma, _energy_map(k, xf, sigma), space)


# ---------------------------------------------------------------------------
# Rademacher moments


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
    full, rest = divmod(x, q)
    cells = (k - 1) * q * (min(rest, q - 1 - rest) + 1)
    subject = f"congruence count at k = {k}, q = {q}, x = {x}"
    refuse_past(subject, cells, _CONGRUENCE_CELL_GUARD, "run time", " gathered cells")
    # a j-level entry counts j-tuples, so every entry and partial sum is at
    # most x^k: at the step from level j the gathered sums and (full + 1) L
    # lie in [0, x^(j+1)], as L <= x^j and full + 1 <= x; object arrays only
    # where x^k passes int64
    dtype = np.int64 if x**k < 2**63 else object
    counts = np.array([0] + [full + (r <= rest) for r in range(1, q)], dtype=dtype)
    # counts[u] = full + [u <= rest] on u != 0, so the next level is
    # nxt[s] = full L + sum_{u <= rest} level[s / u] with L = sum(level), or
    # (full + 1) L - sum_{u > rest} level[s / u]: gather the shorter side
    if 2 * rest > q - 1:
        base, sign, side = full + 1, -1, range(rest + 1, q)
    else:
        base, sign, side = full, 1, range(1, rest + 1)
    inverses = [pow(u, -1, q) for u in side]
    residues = np.arange(q)
    level = counts
    for _ in range(k - 1):
        gathered = np.zeros(q, dtype=dtype)
        for v in inverses:
            gathered += level[residues * v % q]
        level = base * level.sum() + sign * gathered
        level[0] = 0
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
