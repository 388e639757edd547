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
is not Haar distributed), then build secular coefficients from traces
through Newton's identities.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .analytic import hyper_2F1_series
from .errors import ResourceLimitError
from .estimates import MomentEstimate, resolve_threads, trial_rng
from .polytopes import beta_constant, count_margin_matrices, gamma_constant

__all__ = [
    "TruncatedMomentQuery",
    "SecularSample",
    "MagicSquareSpec",
    "unitary_truncated_coefficients",
    "unitary_truncated_moment_exact",
    "so_truncated_coefficients",
    "so_truncated_moment_exact",
    "hyper_Fk",
    "I1_two_ways",
    "magic_count",
    "haar_unitary_secular",
    "mc_truncated_moment",
    "unitary_asymptotic_rhs",
    "so_asymptotic_rhs",
]

_UNITARY_L_CAP = {1: 200, 2: 40, 3: 40, 4: 12}
_UNITARY_EXACT_CAP = {1: 200, 2: 40, 3: 20, 4: 12}
_SO_L_CAP = {1: 200, 2: 24, 3: 8}
_SO_EXACT_CAP = {1: 200, 2: 20, 3: 8}


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
# magic squares


@dataclass(frozen=True)
class MagicSquareSpec:
    """Row-sum and column-sum partitions for a joint secular moment."""

    mu: tuple[int, ...]
    mu_tilde: tuple[int, ...]

    def __post_init__(self):
        for part in (self.mu, self.mu_tilde):
            if len(part) > 12:
                raise ValueError("partitions of more than 12 parts are out of scope")
            if any(not isinstance(v, int) or v < 0 or v > 12 for v in part):
                raise ValueError("partition entries must be integers in [0, 12]")


def magic_count(spec: MagicSquareSpec) -> int:
    """Number of nonnegative integer matrices with row sums mu, column sums mu_tilde."""
    if sum(spec.mu) != sum(spec.mu_tilde):
        return 0
    return count_margin_matrices(tuple(spec.mu), tuple(spec.mu_tilde))


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


def _secular_from_traces(traces: np.ndarray, count: int) -> np.ndarray:
    # Newton's identities: n e_n = sum_{i=1..n} (-1)^(i-1) e_{n-i} p_i
    e = np.zeros(count + 1, dtype=np.complex128)
    e[0] = 1.0
    for n in range(1, count + 1):
        acc = 0.0 + 0.0j
        sign = 1.0
        for i in range(1, n + 1):
            acc += sign * e[n - i] * traces[i]
            sign = -sign
        e[n] = acc / n
    return e


def haar_unitary_secular(N: int, rng: np.random.Generator) -> SecularSample:
    """One Haar draw from U(N) with its full vector of secular coefficients.

    QR of a complex Ginibre matrix, with R's diagonal phases folded back
    into Q; without that correction the columns are not Haar.
    """
    if not 1 <= N <= 64:
        raise ValueError("N must lie in 1..64")
    g = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))[None, :]
    traces = np.zeros(N + 1, dtype=np.complex128)
    power = np.eye(N, dtype=np.complex128)
    for j in range(1, N + 1):
        power = power @ u
        traces[j] = np.trace(power)
    coeffs = _secular_from_traces(traces, N)
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
    nthreads = resolve_threads(threads)
    zpow = (-q.z_abs) ** np.arange(L + 1)
    vals = np.empty(samples, dtype=np.float64)

    def work(lo: int, hi: int):
        for i in range(lo, hi):
            sample = haar_unitary_secular(N, trial_rng(seed, i))
            lam = np.dot(sample.coefficients[: L + 1], zpow)
            vals[i] = abs(lam) ** (2 * k)

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
