"""Moments of truncated characteristic polynomials over U(N) and SO(2N).

The 2k-th moment of the L-truncated characteristic polynomial of a Haar
unitary has an exact lattice expression: a sum of w^(total entry sum)
over k x k nonnegative integer matrices whose row and column sums are
all at most L, with w = |z|^2.  The orthogonal analogue replaces the
matrix by edge weights on the complete graph K_{2k} with all vertex
degrees at most L and weight z^(2 total).  A k x k matrix is an edge
weighting of the bipartite graph K_{k,k}, so both are sums over edge
weightings with every vertex degree at most L, and one dynamic program
over residual vertex capacities, taken edge by edge, evaluates both.
Within documented budgets it carries exact integer coefficients of the
powers of w and only the final polynomial evaluation happens in floats;
past them it carries w itself.

Monte Carlo counterparts sample Haar unitaries via QR of a complex
Gaussian matrix with the diagonal-phase correction (the uncorrected QR
is not Haar distributed).  Draws are taken in stacks: each trial fills
its Ginibre matrix from its own (seed, trial) stream, and one stacked QR
runs over the block.  A moment of Lambda_L needs only the secular
coefficients c_0..c_L, so only the traces of the first L powers are
taken and Newton's identities run to degree L, vectorized over the
stack; every coefficient is bit for bit the one a single draw gives.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .analytic import hyper_2F1_series
from .errors import ResourceLimitError
from .estimates import MomentEstimate, resolve_threads, trial_rngs
from .polytopes import beta_constant, gamma_constant

__all__ = [
    "TruncatedMomentQuery",
    "SecularSample",
    "unitary_truncated_coefficients",
    "unitary_truncated_moment_exact",
    "so_truncated_coefficients",
    "so_truncated_moment_exact",
    "hyper_Fk",
    "I1_two_ways",
    "haar_unitary_secular",
    "mc_truncated_moment",
    "unitary_asymptotic_rhs",
    "so_asymptotic_rhs",
]

_UNITARY_L_CAP = {1: 200, 2: 40, 3: 40, 4: 12}
_UNITARY_EXACT_CAP = {1: 200, 2: 40, 3: 20, 4: 12}
_SO_L_CAP = {1: 200, 2: 24, 3: 8}
_SO_EXACT_CAP = {1: 200, 2: 20, 3: 8}
# Haar draws are taken in stacks of at most this many matrix entries:
# 1024 draws at N = 8, 16 at N = 64
_BLOCK_ENTRIES = 1 << 16
# A Haar draw costs about (L+1) N^3 + _HAAR_DRAW_OPS units: the QR and the
# L - 1 matrix products, plus a fixed cost for the stream reset, the Ginibre
# fill and the dot.  Measured at 0.25-0.64 ns a unit for N = 32..64 and
# 5-20 us a draw for N <= 8 (Python 3.11, numpy 2.4, single-threaded
# BLAS, 2-vCPU KVM guest), so the guard is about 100 s of draws.  The
# largest verify, test or benchmark input (N = 64, L = 8, 200 samples) is
# 4.8e8 units; the guard also caps the samples array at 3e6 entries.
_HAAR_DRAW_OPS = 1 << 16
_HAAR_OP_GUARD = 2 * 10**11


@dataclass(frozen=True)
class TruncatedMomentQuery:
    group: str
    k: int
    L: int
    z_abs: float

    def __post_init__(self):
        if self.group not in ("unitary", "special_orthogonal"):
            raise ValueError("group must be 'unitary' or 'special_orthogonal'")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if not self.z_abs > 1.0:
            raise ValueError("z_abs must exceed 1")


def _check_query(group: str, k: int, L: int, z_abs: float) -> TruncatedMomentQuery:
    q = TruncatedMomentQuery(group=group, k=k, L=L, z_abs=float(z_abs))
    caps = _UNITARY_L_CAP if group == "unitary" else _SO_L_CAP
    if k not in caps:
        raise ResourceLimitError(f"{group} moment guard: k={k} unsupported")
    if L > caps[k]:
        raise ResourceLimitError(f"{group} moment guard: k={k} allows L <= {caps[k]}")
    return q


# ---------------------------------------------------------------------------
# exact lattice DPs


def _capped_degree_dp(
    n: int, edges: list[tuple[int, int]], L: int, w: float | None = None
) -> tuple[int, ...] | float:
    """Sum of w^(total weight) over edge weightings with every vertex degree <= L.

    The state has one residual-capacity axis per open vertex: it opens at
    the vertex's first edge with capacity L and is summed out after its
    last edge.  Weight c on edge (i, j) moves mass from (r_i, r_j) to
    (r_i - c, r_j - c), so one edge step is the in-place diagonal prefix
    sum A[r_i, r_j] += w A[r_i + 1, r_j + 1], taken downward in r_i.  With
    w None a leading axis holds the exact coefficient of each power of w,
    each step also shifts it by one, and the coefficients come back as a
    tuple; otherwise the float total comes back.
    """
    last = {v: e for e, edge in enumerate(edges) for v in edge}
    lead = int(w is None)  # 1 when axis 0 holds the exact coefficients
    A = np.zeros(n * L // 2 + 1, dtype=np.int64) if lead else np.ones(())
    A[(0,) * lead] = 1
    open_axes: list[int] = []
    for e, edge in enumerate(edges):
        for v in edge:
            if v not in open_axes:
                A = np.pad(A[..., None], [(0, 0)] * A.ndim + [(L, 0)])
                open_axes.append(v)
        ai, aj = (lead + open_axes.index(v) for v in edge)
        for r in range(L - 1, -1, -1):
            dst = [slice(None)] * A.ndim
            src = [slice(None)] * A.ndim
            dst[ai], src[ai] = r, r + 1
            dst[aj], src[aj] = slice(0, L), slice(1, L + 1)
            if lead:
                dst[0], src[0] = slice(1, None), slice(0, -1)
                A[tuple(dst)] += A[tuple(src)]
            else:
                A[tuple(dst)] += w * A[tuple(src)]
        for v in edge:
            if last[v] == e:
                A = A.sum(axis=lead + open_axes.index(v))
                open_axes.remove(v)
    return tuple(int(c) for c in A) if lead else float(A)


def _unitary_edges(k: int) -> list[tuple[int, int]]:
    # K_{k,k} column by column, so only one column axis is open at a time
    return [(row, k + col) for col in range(k) for row in range(k)]


def _so_edges(k: int) -> list[tuple[int, int]]:
    return list(combinations(range(2 * k), 2))


@cache
def unitary_truncated_coefficients(k: int, L: int) -> tuple[int, ...]:
    """coeffs[s] = # of k x k nonnegative integer matrices with every row
    and column sum <= L and total entry sum s (s = 0..kL)."""
    _check_query("unitary", k, L, 2.0)
    if L > _UNITARY_EXACT_CAP[k]:
        raise ResourceLimitError(
            f"exact coefficient guard: k={k} allows L <= {_UNITARY_EXACT_CAP[k]}"
        )
    return _capped_degree_dp(2 * k, _unitary_edges(k), L)


def unitary_truncated_moment_exact(k: int, L: int, z_abs: float) -> float:
    """E over Haar U(N), N >= kL, of |Lambda_L(z)|^(2k), via the lattice sum."""
    q = _check_query("unitary", k, L, z_abs)
    w = q.z_abs * q.z_abs
    if L <= _UNITARY_EXACT_CAP[k]:
        coeffs = unitary_truncated_coefficients(k, L)
        return math.fsum(c * w**s for s, c in enumerate(coeffs))
    return _capped_degree_dp(2 * k, _unitary_edges(k), L, w)


@cache
def so_truncated_coefficients(k: int, L: int) -> tuple[int, ...]:
    """coeffs[s] = # of edge weightings of K_{2k} with all vertex degrees <= L
    and total edge weight s (s = 0..kL)."""
    _check_query("special_orthogonal", k, L, 2.0)
    if L > _SO_EXACT_CAP[k]:
        raise ResourceLimitError(
            f"exact coefficient guard: k={k} allows L <= {_SO_EXACT_CAP[k]}"
        )
    return _capped_degree_dp(2 * k, _so_edges(k), L)


def so_truncated_moment_exact(k: int, L: int, z_abs: float) -> float:
    """E over SO(2N) of Lambda_L(z)^(2k) for real z, via the K_{2k} lattice sum.

    For L in {0, 1} the lattice formula is evaluated as stated even
    though the underlying identity is only claimed for longer
    truncations; callers comparing against asymptotics should stay at
    L >= 2.
    """
    q = _check_query("special_orthogonal", k, L, z_abs)
    w = q.z_abs * q.z_abs
    if L <= _SO_EXACT_CAP[k]:
        coeffs = so_truncated_coefficients(k, L)
        return math.fsum(c * w**s for s, c in enumerate(coeffs))
    return _capped_degree_dp(2 * k, _so_edges(k), L, w)


# ---------------------------------------------------------------------------
# hypergeometric factor and the I1 identity


def hyper_Fk(k: int, z_abs: float) -> float:
    """F_k(z) = 2F1(1-k, 1-k; 2-2k; 1 - |z|^-2), a terminating k-term sum.

    k = 1 is the empty-product convention F_1 = 1.  The series ends at
    m = k - 1, before its denominator 2 - 2k + m reaches zero.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("hyper_Fk requires integer k >= 1")
    if not z_abs > 1.0:
        raise ValueError("hyper_Fk requires |z| > 1")
    return hyper_2F1_series(1.0 - k, 1.0 - k, 2.0 - 2.0 * k, 1.0 - z_abs**-2)


def I1_two_ways(k: int, z_abs: float) -> tuple[float, float]:
    """The fundamental radial integral by residue sum and by closed form.

    Returns (residue_value, closedform_value); the hypergeometric
    transformation chain predicts they are equal, and the test suite
    holds them to 1e-10 relative across k <= 6.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("I1_two_ways requires integer k >= 1")
    if not z_abs > 1.0:
        raise ValueError("I1_two_ways requires |z| > 1")
    w = z_abs * z_abs
    u = 1.0 - 1.0 / w  # 1 - |z|^-2
    residue = 0.0
    for m in range(k):
        residue += (
            (-1.0) ** m
            * math.comb(k - 1, m)
            * (math.gamma(k + m) / math.gamma(m + 1))
            * (1.0 / (1.0 - w)) ** m
        )
    residue /= math.gamma(k) * u**k
    closed = math.gamma(2 * k - 1) / (math.gamma(k) ** 2 * u ** (2 * k - 1)) * hyper_Fk(k, z_abs)
    return residue, closed


# ---------------------------------------------------------------------------
# Haar sampling and Monte Carlo moments


@dataclass(frozen=True)
class SecularSample:
    """Secular coefficients c(0..N) of one Haar unitary draw.

    ``flagged`` marks samples whose |c(N)| drifted more than 1e-6 from 1,
    i.e. visible loss of unitarity in the trace pipeline.
    """

    N: int
    coefficients: np.ndarray
    flagged: bool


def _haar_unitaries(N: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """One Haar unitary from U(N) per stream, stacked along axis 0.

    Each stream draws the real and then the imaginary parts of one complex
    Ginibre matrix; one stacked QR follows, with R's diagonal phases folded
    back into Q (without that correction the columns are not Haar).
    """
    x = np.stack([rng.standard_normal((2, N, N)) for rng in rngs])
    q, r = np.linalg.qr((x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _secular_head(u: np.ndarray, L: int) -> np.ndarray:
    """c_0..c_L of det(I + x U) = sum_m c_m x^m for every matrix U of the stack u.

    Only the traces p_1..p_L of the first L powers are taken.  Newton's
    identities n c_n = sum_{i=1..n} (-1)^(i-1) c_{n-i} p_i then run to
    degree L over the whole stack, in real arithmetic with each sum taken
    left to right, so every coefficient is bit for bit the one that
    complex scalar arithmetic gives (numpy's vectorized complex multiply
    may round differently).
    """
    c = np.zeros((u.shape[0], L + 1), dtype=np.complex128)
    c[:, 0] = 1.0
    er, ei = c.real, c.imag
    pr, pi = np.zeros_like(er), np.zeros_like(ei)
    power = u
    for j in range(1, L + 1):
        if j > 1:
            power = power @ u
        trace = np.trace(power, axis1=1, axis2=2)
        pr[:, j], pi[:, j] = trace.real, trace.imag
    sign = (-1.0) ** np.arange(L)
    for n in range(1, L + 1):
        ar = sign[:n] * er[:, n - 1 :: -1]
        ai = sign[:n] * ei[:, n - 1 :: -1]
        br, bi = pr[:, 1 : n + 1], pi[:, 1 : n + 1]
        # complex division by n is multiplication by 1.0 / n in numpy
        er[:, n] = np.cumsum(ar * br - ai * bi, axis=1)[:, -1] * (1.0 / n)
        ei[:, n] = np.cumsum(ar * bi + ai * br, axis=1)[:, -1] * (1.0 / n)
    return c


def _secular_blocks(
    N: int, L: int, seed: int, lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(first trial, c_0..c_L of each draw) for the Haar draws of trials lo..hi-1.

    Trial t draws from the stream keyed by (seed, t); the draws are taken
    in blocks of at most _BLOCK_ENTRIES matrix entries.
    """
    step = max(1, _BLOCK_ENTRIES // (N * N))
    for start in range(lo, hi, step):
        u = _haar_unitaries(N, trial_rngs(seed, start, min(start + step, hi)))
        yield start, _secular_head(u, L)


def haar_unitary_secular(N: int, rng: np.random.Generator) -> SecularSample:
    """One Haar draw from U(N) with its full vector of secular coefficients."""
    if not 1 <= N <= 64:
        raise ValueError("N must lie in 1..64")
    coeffs = _secular_head(_haar_unitaries(N, [rng]), N)[0]
    drift = abs(abs(coeffs[N]) - 1.0)
    return SecularSample(N=N, coefficients=coeffs, flagged=drift > 1e-6)


def mc_truncated_moment(
    group: str,
    k: int,
    L: int,
    z_abs: float,
    N: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> MomentEstimate:
    """Monte Carlo estimate of E |Lambda_L(z)|^(2k) over Haar U(N).

    Valid only for N >= k L, the regime where the exact lattice identity
    holds; smaller N is a precondition error, not a warning.  Each trial
    draws from its own counter-based stream keyed by (seed, trial), so
    results are reproducible bit for bit at any thread count.
    """
    if group != "unitary":
        raise ValueError("Monte Carlo moments are implemented for the unitary group only")
    q = _check_query("unitary", k, L, z_abs)
    if N < k * L:
        raise ValueError(f"N={N} is below the validity threshold k*L={k * L}")
    if not 1 <= N <= 64:
        raise ValueError("N must lie in 1..64")
    if samples < 100:
        raise ValueError("samples must be at least 100")
    ops = samples * ((L + 1) * N**3 + _HAAR_DRAW_OPS)
    if ops > _HAAR_OP_GUARD:
        raise ResourceLimitError(
            f"Haar Monte Carlo at N = {N}, L = {L} with {samples} samples takes "
            f"samples ((L+1) N^3 + {_HAAR_DRAW_OPS}) = {ops:.3g} operations, "
            f"past the {_HAAR_OP_GUARD:.0e} guard on run time"
        )
    nthreads = resolve_threads(threads)
    zpow = (-q.z_abs) ** np.arange(L + 1)
    vals = np.empty(samples, dtype=np.float64)

    def work(lo: int, hi: int):
        for start, c in _secular_blocks(N, L, seed, lo, hi):
            # one dot per row: a stacked c @ zpow rounds differently
            for i, row in enumerate(c, start):
                vals[i] = abs(np.dot(row, zpow)) ** (2 * k)

    if nthreads == 1:
        work(0, samples)
    else:
        step = -(-samples // nthreads)
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(lambda lo: work(lo, min(lo + step, samples)), range(0, samples, step)))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MomentEstimate(mean=mean, stderr=stderr, trials=samples, seed=seed)


# ---------------------------------------------------------------------------
# asymptotic right-hand sides


def unitary_asymptotic_rhs(k: int, L: int, z_abs: float) -> float:
    """beta(k) F_k(z) Gamma(2k-1) / (Gamma(k)^2 (1-|z|^-2)^(2k-1)) * |z|^(2kL) L^((k-1)^2).

    At k = 1 everything but the geometric limit |z|^(2L) / (1 - |z|^-2)
    collapses to 1, matching the exact closed form of the k=1 DP.
    L = 0 with k >= 2 evaluates to 0 (asymptotic regime only).
    """
    q = _check_query("unitary", k, L, z_abs)
    u = 1.0 - q.z_abs**-2
    beta = float(beta_constant(k))
    prefactor = beta * hyper_Fk(k, q.z_abs) * math.gamma(2 * k - 1) / (math.gamma(k) ** 2 * u ** (2 * k - 1))
    return prefactor * q.z_abs ** (2 * k * L) * float(L) ** ((k - 1) ** 2)


def so_asymptotic_rhs(k: int, L: int, z_abs: float) -> float:
    """gamma(k) / (1 - |z|^-1)^(2k) * |z|^(2kL) L^(2k^2-3k) for k in {2, 3}.

    k = 1 has no degree polytope; it falls back to the exact geometric
    limit |z|^(2L) / (1 - |z|^-2) instead.
    """
    q = _check_query("special_orthogonal", k, L, z_abs)
    if k == 1:
        return q.z_abs ** (2 * L) / (1.0 - q.z_abs**-2)
    gamma = float(gamma_constant(k))
    return (
        gamma
        / (1.0 - 1.0 / q.z_abs) ** (2 * k)
        * q.z_abs ** (2 * k * L)
        * float(L) ** (2 * k * k - 3 * k)
    )
