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
Its own guards (vertex count, memory, run time, int64 range) choose the
route: where they admit the exact counts it returns integer coefficients
of the powers of w, read off the degrees of the vertices as they close (the
rows of K_{k,k}, every vertex of K_{2k} at twice the weight), and only
the final polynomial evaluation happens in floats; past them it carries
a float w itself, and past its guards on that route too the moment is
refused with the resource named.

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
from collections.abc import Callable, Iterable
from functools import cache

import numpy as np

from .analytic import hyper_2F1_series
from .errors import ResourceLimitError, in_float_range, refuse_past
from .estimates import MomentEstimate, keyed_estimate
from .polytopes import (
    _bipartite_edges,
    _capped_degree_dp,
    _check_dp_vertices,
    _complete_edges,
    beta_constant,
    gamma_constant,
)

__all__ = [
    "unitary_truncated_coefficients",
    "unitary_truncated_moment_exact",
    "so_truncated_coefficients",
    "so_truncated_moment_exact",
    "hyper_Fk",
    "I1_two_ways",
    "mc_truncated_moment",
    "unitary_asymptotic_rhs",
    "so_asymptotic_rhs",
]

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


def _check_args(k: int, L: int, z_abs: float) -> float:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if L < 0:
        raise ValueError("L must be nonnegative")
    if not z_abs > 1.0:
        raise ValueError("z_abs must exceed 1")
    return float(z_abs)


def _in_float_range(group: str, k: int, L: int, z_abs: float, value: Callable[[], float]) -> float:
    """value(), refused past the float range with the moment and |z|^(2kL)'s size named."""
    return in_float_range(
        f"{group} moment at k = {k}, L = {L}, |z| = {z_abs:g}",
        value,
        f"; |z|^(2kL) alone is 10^{k * L * math.log10(z_abs * z_abs):.0f}",
    )


# ---------------------------------------------------------------------------
# exact lattice sums


def _group_edges(group: str, k: int) -> list[tuple[int, int]]:
    # unitary: the k x k matrix as K_{k,k}; SO(2N): the complete graph K_{2k}
    _check_dp_vertices(2 * k)
    return _bipartite_edges(k, k) if group == "unitary" else _complete_edges(2 * k)


def _coefficients(group: str, k: int, L: int) -> tuple[int, ...]:
    _check_args(k, L, math.inf)
    return _capped_degree_dp(2 * k, _group_edges(group, k), L)


def _moment_exact(group: str, k: int, L: int, z_abs: float) -> float:
    z_abs = _check_args(k, L, z_abs)
    w = z_abs * z_abs
    edges = _group_edges(group, k)
    cached = unitary_truncated_coefficients if group == "unitary" else so_truncated_coefficients
    # the exact counts wherever the DP's guards admit them, else a float w
    try:
        coefficients = cached(k, L)
    except ResourceLimitError:
        coefficients = None

    # every term, and every entry of the float DP state, is at most the
    # moment, so a float overflow anywhere means the moment passes the range
    def value() -> float:
        if coefficients is not None:
            return math.fsum(c * w**s for s, c in enumerate(coefficients))
        return _capped_degree_dp(2 * k, edges, L, w)

    return _in_float_range(group, k, L, z_abs, value)


@cache
def unitary_truncated_coefficients(k: int, L: int) -> tuple[int, ...]:
    """coeffs[s] = # of k x k nonnegative integer matrices with every row
    and column sum <= L and total entry sum s (s = 0..kL)."""
    return _coefficients("unitary", k, L)


def unitary_truncated_moment_exact(k: int, L: int, z_abs: float) -> float:
    """E over Haar U(N), N >= kL, of |Lambda_L(z)|^(2k), via the lattice sum."""
    return _moment_exact("unitary", k, L, z_abs)


@cache
def so_truncated_coefficients(k: int, L: int) -> tuple[int, ...]:
    """coeffs[s] = # of edge weightings of K_{2k} with all vertex degrees <= L
    and total edge weight s (s = 0..kL)."""
    return _coefficients("special_orthogonal", k, L)


def so_truncated_moment_exact(k: int, L: int, z_abs: float) -> float:
    """E over SO(2N) of Lambda_L(z)^(2k) for real z, via the K_{2k} lattice sum.

    For L in {0, 1} the lattice formula is evaluated as stated even
    though the underlying identity is only claimed for longer
    truncations; callers comparing against asymptotics should stay at
    L >= 2.
    """
    return _moment_exact("special_orthogonal", k, L, z_abs)


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


def _haar_block(N: int) -> int:
    """Haar draws per block: at most _BLOCK_ENTRIES matrix entries."""
    return max(1, _BLOCK_ENTRIES // (N * N))


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
    z_abs = _check_args(k, L, z_abs)
    if N < k * L:
        raise ValueError(f"N={N} is below the validity threshold k*L={k * L}")
    if not 1 <= N <= 64:
        raise ValueError("N must lie in 1..64")
    if samples < 100:
        raise ValueError("samples must be at least 100")
    ops = samples * ((L + 1) * N**3 + _HAAR_DRAW_OPS)
    subject = f"Haar Monte Carlo at N = {N}, L = {L} with {samples} samples"
    refuse_past(subject, ops, _HAAR_OP_GUARD, "run time", " operations")

    def fill(start: int, rngs, out: np.ndarray) -> None:
        _abs_powers(_secular_head(_haar_unitaries(N, rngs), L), k, z_abs, out)

    return keyed_estimate(samples, seed, threads, _haar_block(N), fill)


def _abs_powers(c: np.ndarray, k: int, z_abs: float, out: np.ndarray) -> None:
    """out[i] = |sum_j c[i, j] (-|z|)^j|^(2k), for the draws' rows c_0..c_L of c."""
    zpow = (-z_abs) ** np.arange(c.shape[1])
    # one dot per row: a stacked c @ zpow rounds differently
    for i, row in enumerate(c):
        out[i] = abs(np.dot(row, zpow)) ** (2 * k)


# ---------------------------------------------------------------------------
# asymptotic right-hand sides


def unitary_asymptotic_rhs(k: int, L: int, z_abs: float) -> float:
    """beta(k) F_k(z) Gamma(2k-1) / (Gamma(k)^2 (1-|z|^-2)^(2k-1)) * |z|^(2kL) L^((k-1)^2).

    At k = 1 everything but the geometric limit |z|^(2L) / (1 - |z|^-2)
    collapses to 1, matching the exact closed form of the k=1 DP.
    L = 0 with k >= 2 evaluates to 0 (asymptotic regime only).
    """
    z_abs = _check_args(k, L, z_abs)
    u = 1.0 - z_abs**-2
    beta = float(beta_constant(k))
    prefactor = beta * hyper_Fk(k, z_abs) * math.gamma(2 * k - 1) / (math.gamma(k) ** 2 * u ** (2 * k - 1))
    return _in_float_range(
        "unitary", k, L, z_abs, lambda: prefactor * z_abs ** (2 * k * L) * float(L) ** ((k - 1) ** 2)
    )


def so_asymptotic_rhs(k: int, L: int, z_abs: float) -> float:
    """gamma(k) [(1 - y)^(-2k) + (1 + y)^(-2k)] |z|^(2kL) L^(2k^2-3k), y = 1/|z|, k in {2, 3}.

    The moment is the lattice sum of |z|^(2W) over the edge weightings of
    K_{2k} with every degree <= L, W the total weight.  Write the degrees
    as L - delta_v: then |z|^(2W) = |z|^(2kL) y^(sum delta), since the
    degrees sum to 2W.  For a fixed deficit vector delta the weightings
    number 2 gamma(k) L^(2k^2-3k) to leading order in L when sum delta is
    even (the factor 2 is the even-sublattice factor ``gamma_constant``
    divides out) and none when it is odd.  The even part of the sum of
    y^(sum delta) over delta >= 0 is [(1 - y)^(-2k) + (1 + y)^(-2k)] / 2,
    which gives the constant.

    k = 1 has no degree polytope; it falls back to the exact geometric
    limit |z|^(2L) / (1 - |z|^-2) instead.
    """
    z_abs = _check_args(k, L, z_abs)
    group = "special_orthogonal"
    if k == 1:
        return _in_float_range(group, k, L, z_abs, lambda: z_abs ** (2 * L) / (1.0 - z_abs**-2))
    gamma = float(gamma_constant(k))
    y = 1.0 / z_abs
    prefactor = gamma * ((1.0 - y) ** (-2 * k) + (1.0 + y) ** (-2 * k))
    return _in_float_range(
        group, k, L, z_abs, lambda: prefactor * z_abs ** (2 * k * L) * float(L) ** (2 * k * k - 3 * k)
    )
