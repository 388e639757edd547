"""Lattice-relative volumes of margin-constrained polytopes.

The moment asymptotics in this package carry three geometric constants,
each realized as the volume of a polytope of nonnegative matrices or
edge weights:

* ``birkhoff(k)``   : k x k matrices, every row and column sum equal;
* ``beta_mixed(k)`` : (k-1) x k matrices, row sums equal, column sums
                      bounded (adding the column-slack row turns one
                      family into the other, which is why their dilation
                      counts must agree, entry for entry);
* ``alpha_box(k)``  : k x k matrices with row and column sums bounded;
* ``gamma_sym(k)``  : edge weights on the complete graph K_{2k} with all
                      vertex degrees equal (dilations counted at even
                      degree 2t to stay on the integer lattice).

Volumes are normalized as leading coefficients of Ehrhart polynomials,
interpolated exactly over rationals, then validated at out-of-sample
dilations.  By Ehrhart-Macdonald reciprocity, (-1)^d P(-t) counts the
interior lattice points of the t-th dilation, so each fit needs only
about half the dilations d + 1 points would: the counts at t = 0..m,
and P at -1..-c-m.  For the three integral families the interior is
itself a smaller dilation (t - k for ``birkhoff`` and ``beta_mixed``,
t - k - 1 for ``alpha_box``), so their counts mirror into the negative
grid at no cost; ``birkhoff(4)``, ``beta_mixed(4)`` count t <= 6 and
``alpha_box(4)`` t <= 9, three out-of-sample checks included.  For
``gamma_sym`` the interior points are the weightings whose degrees all
equal 2t - 2k + 1, an odd target the degree table never reaches, so its
polynomial draws on two kernels: the degree table for t >= 0 (t <= 7
at k = 3) and the capped-degree DP on K_{2k} for t < 0.

``birkhoff`` is counted by memoized recursion over row compositions
with exact margins, the last two rows in closed form; ``alpha_box`` and
``beta_mixed`` by the capped-degree edge
DP on K_{k,k} and K_{k-1,k} that also gives the ``rmt`` moments (its
graded counts read the total weight off the degrees of the closing
vertices, so no weight axis rides through the edge steps, and
``beta_mixed`` at t is the count with every row saturated);
``gamma_sym`` by one int64 table of degree-vector counts on K_{2k-2},
built by adding vertices one at a time, and a table of the ways the last
two vertices split each residual degree vector, one matrix product over
pairs of vertices; every dilation's count is a masked sum of their
products.
Floating interpolation is hopeless at degree 9 and up; everything here
is integer and Fraction arithmetic, apart from that one matrix product,
whose float64 sums are integers below 2^53 and so exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np

from .errors import _MEMORY_GUARD, refuse_past

__all__ = [
    "PolytopeSpec",
    "RationalPolynomial",
    "birkhoff",
    "beta_mixed",
    "alpha_box",
    "gamma_sym",
    "lattice_count",
    "ehrhart_polynomial",
    "relative_volume",
    "beta_constant",
    "alpha_constant",
    "gamma_constant",
    "count_margin_matrices",
]

_FAMILIES = ("birkhoff", "beta_mixed", "alpha_box", "gamma_sym")


@dataclass(frozen=True)
class PolytopeSpec:
    family: str
    k: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gamma_sym":
            if not 2 <= self.k <= 3:
                raise ValueError("gamma_sym supports k in {2, 3}")
        else:
            if not 1 <= self.k <= 5:
                raise ValueError(f"{self.family} supports k in 1..5")

    @property
    def dimension(self) -> int:
        k = self.k
        if self.family in ("birkhoff", "beta_mixed"):
            return (k - 1) ** 2
        if self.family == "alpha_box":
            return k * k
        return 2 * k * k - 3 * k


def birkhoff(k: int) -> PolytopeSpec:
    return PolytopeSpec("birkhoff", k)


def beta_mixed(k: int) -> PolytopeSpec:
    return PolytopeSpec("beta_mixed", k)


def alpha_box(k: int) -> PolytopeSpec:
    return PolytopeSpec("alpha_box", k)


def gamma_sym(k: int) -> PolytopeSpec:
    return PolytopeSpec("gamma_sym", k)


# ---------------------------------------------------------------------------
# exact margins: composition enumeration


def _compositions(total: int, caps: tuple[int, ...]):
    """Yield tuples c, 0 <= c_i <= caps_i, sum c = total; the last part is forced."""
    for head in product(*(range(min(cap, total) + 1) for cap in caps[:-1])):
        last = total - sum(head)
        if 0 <= last <= caps[-1]:
            yield head + (last,)


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> int:
    """Tuples 0 <= x_i <= caps_i with sum total, by inclusion-exclusion.

    Forcing x_i > caps_i for each i in a set S leaves the compositions of
    total - sum_S (caps_i + 1) into m parts: sum over S of
    (-1)^|S| C(total - sum_S (caps_i + 1) + m - 1, m - 1).
    """
    m = len(caps)
    if m == 0:
        return int(total == 0)
    count = 0
    for size in range(m + 1):
        for subset in combinations(caps, size):
            rest = total - sum(subset) - size
            if rest >= 0:
                count += (-1) ** size * math.comb(rest + m - 1, m - 1)
    return count


@cache
def count_margin_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Nonnegative integer matrices with exact row sums and column sums.

    Row order is irrelevant to the count, as is column order; callers may
    pass margins in any order.  The recursion peels off the first row and
    canonicalizes the reduced column margins by sorting.  With two rows
    left the first fixes the second (column j takes cols_j minus the first
    row's entry), so the count is the number of first rows bounded by the
    column sums, in closed form.
    """
    if any(r < 0 for r in rows) or any(c < 0 for c in cols):
        return 0
    if sum(rows) != sum(cols):
        return 0
    if not rows or not cols:
        # the sums agree, so every margin is 0: one empty matrix
        return 1
    if len(rows) == 2:
        return _bounded_compositions(rows[0], cols)
    rows = tuple(sorted(rows, reverse=True))
    cols = tuple(sorted(cols, reverse=True))
    total = 0
    for comp in _compositions(rows[0], cols):
        reduced = tuple(sorted((c - v for c, v in zip(cols, comp)), reverse=True))
        total += count_margin_matrices(rows[1:], reduced)
    return total


# ---------------------------------------------------------------------------
# the capped-degree edge DP


def _bipartite_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    # K_{rows,cols} column by column, so only one column axis is open at a time
    return [(row, rows + col) for col in range(cols) for row in range(rows)]


def _complete_edges(m: int) -> list[tuple[int, int]]:
    return list(combinations(range(m), 2))


def _graded_vertices(edges: list[tuple[int, int]]) -> tuple[set[int], int]:
    """The vertices whose degrees sum to the total weight W or to 2W, and which.

    On a bipartite edge list (no first endpoint is ever a second one) the
    first endpoints' degrees sum to W; on any other list every vertex
    counts and the degrees sum to 2W.
    """
    firsts = {i for i, _ in edges}
    if firsts.isdisjoint(j for _, j in edges):
        return firsts, 1
    return {v for edge in edges for v in edge}, 2


# numpy's ufunc buffers (8192 elements each) and a kernel's own
# bookkeeping, on top of the arrays its peak walk counts; measured at up to
# 133 KiB (the DP, float w) and 195 KiB (the gamma degree table)
_DP_SCRATCH_BYTES = 1 << 18
# A capped-degree DP costs 2-10 ns per cell update that ``_dp_cost`` counts,
# at states of 10^6 cells and up (Python 3.11, numpy 2.4, 2-vCPU KVM guest):
# 2-5 ns for exact counts, up to 10 ns for a float w over many short axes.
# Its Python-level steps, 15-35 us each, add at most about 0.1 s inside the
# vertex and memory guards, so only cells count.  The guard is at most
# about 10 s of DP.  It admits unitary k = 3 at
# L = 89 (9.2e8 updates, 3.6 s exact) and k = 4 at L = 32 (6.9e8, 3.5 s with
# a float w); it refuses k = 11 at L = 3 (1.4e9 updates, 12.7 s with a float
# w) and k = 12 at L = 3, whose edge steps sweep states of up to 512 MiB.
_DP_CELL_GUARD = 10**9
# the most axes a numpy array may have before numpy 2
_NUMPY_MAX_AXES = 32


def _dp_cost(edges: list[tuple[int, int]], L: int, graded: set[int]) -> tuple[int, int]:
    """Peak bytes and cell updates of the capped-degree DP, from its schedule alone.

    The state is the accumulator (length 1 until a graded vertex closes, L
    longer after each) times L + 1 per open vertex, 8 bytes a cell.
    Opening, summing out and folding each build a new state while the old
    one is alive, so each counts both.  The state only grows when a vertex
    opens, so an edge step's temporary, one diagonal slice of at most
    1/(L + 1) of the state, fits under the opening before it.

    An opening writes the new state, a close reads the old one and writes
    the new, and each of an edge step's L slice adds updates 1/(L + 1)^2 of
    the state.
    """
    last = {v: e for e, edge in enumerate(edges) for v in edge}
    opened: set[int] = set()
    acc, axes, peak, cells = 1, 0, 1, 0
    for e, edge in enumerate(edges):
        for v in edge:
            if v not in opened:
                opened.add(v)
                peak = max(peak, acc * (L + 1) ** axes * (L + 2))
                axes += 1
                cells += acc * (L + 1) ** axes
        cells += acc * (L + 1) ** (axes - 2) * L * L
        for v in edge:
            if last[v] == e:
                old = acc * (L + 1) ** axes
                axes -= 1
                acc += L * (v in graded)
                peak = max(peak, old + acc * (L + 1) ** axes)
                cells += old + acc * (L + 1) ** axes
    return 8 * peak + _DP_SCRATCH_BYTES, cells


def _check_dp_vertices(n: int) -> None:
    """Refuse a capped-degree DP on more vertices than its state can have axes.

    The state has an axis per open vertex and the accumulator's, and numpy
    arrays hold at most ``_NUMPY_MAX_AXES``.  A caller that builds an edge
    list from a vertex count calls this before the list exists.
    """
    subject = f"capped-degree DP on {n} vertices"
    refuse_past(subject, n + 1, _NUMPY_MAX_AXES, "numpy array dimensions", " array axes")


def _check_dp_guards(n: int, edges: list[tuple[int, int]], L: int, w) -> None:
    """Refuse a capped-degree DP before it allocates.

    The vertex count is bounded by ``_check_dp_vertices``, memory and run
    time by ``_dp_cost``.  The exact counts stay below
    prod_v C(L + a_v, a_v): give each edge to its first endpoint v, and
    the a_v edges of v carry at most L.  With w None (exact coefficients)
    every guard applies; with a float w the int64 one does not.
    """
    _check_dp_vertices(n)
    subject = f"capped-degree DP on {n} vertices at L = {L}"
    peak, cells = _dp_cost(edges, L, _graded_vertices(edges)[0] if w is None else set())
    refuse_past(subject, peak, _MEMORY_GUARD, "memory")
    refuse_past(subject, cells, _DP_CELL_GUARD, "run time", " cell updates")
    if w is None:
        bound = math.prod(math.comb(L + a, a) for a in Counter(i for i, _ in edges).values())
        refuse_past(f"{subject}, by its count bound,", bound, 2**63 - 1, "int64 range")


def _fold(A: np.ndarray, axis: int, L: int) -> np.ndarray:
    """Close a graded vertex: B[g + L - r] += A[g, r], r the vertex's residual on ``axis``."""
    A = np.moveaxis(A, axis, 1)
    B = np.zeros((A.shape[0] + L,) + A.shape[2:], dtype=A.dtype)
    for r in range(L + 1):
        B[L - r : L - r + A.shape[0]] += A[:, r]
    return B


def _capped_degree_dp(
    n: int, edges: list[tuple[int, int]], L: int, w: float | None = None
) -> tuple[int, ...] | float:
    """Sum of w^(total weight) over edge weightings with every vertex degree <= L.

    The state has one residual-capacity axis per open vertex: it opens at
    the vertex's first edge with capacity L and is closed after its last
    edge.  Weight c on edge (i, j) moves mass from (r_i, r_j) to
    (r_i - c, r_j - c), so one edge step is the in-place diagonal prefix
    sum A[r_i, r_j] += w A[r_i + 1, r_j + 1], taken downward in r_i.  With
    a float w a closing vertex is summed out and the float total comes
    back.

    With w None the exact coefficient of each power of w comes back, as a
    tuple of n L // 2 + 1 entries.  The total weight W is a function of
    the final degrees alone: on a bipartite edge list it is the sum of the
    first endpoints' degrees, on any other 2W is the sum of every degree
    (``_graded_vertices``).  A vertex's degree is known once it closes, as
    L - r, so W is read there and no weight axis rides through the edge
    steps, which are the w = 1 step.  A graded vertex's close folds its
    axis into a leading accumulator of the degrees closed so far,
    B[g + L - r] += A[g, r], where any other vertex is summed out.  The
    accumulator has length 1 until the first graded close, which in the
    column-by-column K_{k,k} order comes in the last column.  On a
    non-bipartite list the coefficients are its even entries.
    """
    _check_dp_guards(n, edges, L, w)
    graded, scale = _graded_vertices(edges) if w is None else (set(), 1)
    last = {v: e for e, edge in enumerate(edges) for v in edge}
    # axis 0 is the accumulator, then one axis per open vertex
    A = np.ones(1, dtype=np.int64 if w is None else np.float64)
    open_axes: list[int] = []
    for e, edge in enumerate(edges):
        for v in edge:
            if v not in open_axes:
                A = np.pad(A[..., None], [(0, 0)] * A.ndim + [(L, 0)])
                open_axes.append(v)
        ai, aj = (1 + open_axes.index(v) for v in edge)
        for r in range(L - 1, -1, -1):
            dst = [slice(None)] * A.ndim
            src = [slice(None)] * A.ndim
            dst[ai], src[ai] = r, r + 1
            dst[aj], src[aj] = slice(0, L), slice(1, L + 1)
            A[tuple(dst)] += A[tuple(src)] if w is None else w * A[tuple(src)]
        for v in edge:
            if last[v] == e:
                axis = 1 + open_axes.index(v)
                A = _fold(A, axis, L) if v in graded else A.sum(axis=axis)
                open_axes.remove(v)
    if w is not None:
        return A.item()
    coefficients = A.tolist()[::scale]
    return tuple(coefficients + [0] * (n * L // 2 + 1 - len(coefficients)))


def _degree_table(m: int, D: int) -> np.ndarray:
    """G[r] = edge weightings of K_m with degree vector r, for r in [0, D]^m.

    Vertices join one at a time.  The new vertex's degree n is spread over
    the old vertices, G'(r, n) = sum over s <= r with sum(r - s) = n of
    G(s), which is one diagonal prefix sum per old axis.  Degrees only
    grow as edges are added, so cutting every axis at D loses nothing
    below D.
    """
    table = np.zeros(D + 1, dtype=np.int64)
    table[0] = 1
    for j in range(1, m):
        grown = np.zeros(table.shape + (D + 1,), dtype=np.int64)
        grown[..., 0] = table
        for axis in range(j):
            view = np.moveaxis(grown, axis, 0)
            for r in range(1, D + 1):
                view[r, ..., 1:] += view[r - 1, ..., :-1]
        table = grown
    return table


def _pair_profiles(D: int, spread: int) -> np.ndarray:
    """U[(c1, c2), 2 delta + spread] = #{0 <= e <= c : e1 + e2 = (c1 + c2) / 2 + delta}.

    A pair of caps with sum sigma splits j as e1 + e2 in
    min(j, sigma - j, c1, c2) + 1 ways for 0 <= j <= sigma, a profile
    symmetric about sigma / 2.  It is indexed by the offset delta from
    there, half-integral when sigma is odd, for |2 delta| <= spread.
    """
    c = np.arange(D + 1)
    sigma = np.add.outer(c, c).reshape(-1, 1)
    low = np.minimum.outer(c, c).reshape(-1, 1)
    two_j = np.arange(-spread, spread + 1) + sigma
    j = two_j >> 1
    U = np.minimum(np.minimum(j, sigma - j), low) + 1
    U[(two_j % 2 == 1) | (j < 0) | (j > sigma)] = 0
    return U.astype(np.float64)


def _closure_table(k: int, D: int) -> np.ndarray:
    """M(c) = #{0 <= e <= c : sum(e) = sum(c) / 2} for c in [0, D]^(2k-2), as floats.

    With the caps paired as (c1, c2) and (c3, c4), M sums the first pair's
    profile at sigma_p / 2 + delta against the second's at
    sigma_q / 2 - delta, which by symmetry is its profile at +delta: M is
    the matrix product U U^T over the pair index, with |2 delta| <= 2D.
    Every partial sum is an integer at most (D + 1)^3, so the float64
    product is exact.  With one pair (k = 2) M is the profile at delta = 0.
    """
    if k == 2:
        return _pair_profiles(D, 0).reshape(D + 1, D + 1)
    U = _pair_profiles(D, 2 * D)
    return (U @ U.T).reshape((D + 1,) * 4)


def _gamma_peak_bytes(k: int, T: int) -> int:
    """Most bytes the gamma_sym(k) counts for t = 0..T hold at once.

    With m = 2k - 2, D = 2T and E = (D + 1)^m cells of 8 bytes: the degree
    table holds its last two stages, E / (D + 1) and E cells; the pair
    profiles, (D + 1)^2 rows of 4D + 1 (of 1 at k = 2), are built through
    at most four int64 arrays of their size and three bool ones next to G;
    U is alive while the product M forms next to G; and the last dilation
    holds G, M, its int64 terms and a bool mask of E cells, then its
    E / (D + 1) row sums as int64 and as Python ints (at most 32 bytes and
    a list slot).
    """
    m, D = 2 * k - 2, 2 * T
    cells = (D + 1) ** m
    rows = cells // (D + 1)
    profile = (D + 1) ** 2 * (4 * D + 1 if k == 3 else 1)
    peak = max(
        8 * (rows + cells),
        8 * cells + 35 * profile,
        8 * (2 * cells + profile),
        24 * cells + max(cells, 48 * rows),
    )
    return peak + _DP_SCRATCH_BYTES


def _gamma_counts(k: int, T: int) -> tuple[int, ...]:
    """Lattice points of the t-th gamma_sym(k) dilation for t = 0..T.

    The last two vertices a, b of K_{2k} are eliminated in closed form.  A
    weighting of K_{2k-2} with degrees s leaves each vertex i the residual
    c_i = 2t - s_i, which its edges to a and b split as e_i + g_i.  Both a
    and b have degree 2t, so sum(e) = sum(g) = 2t - f with f the weight of
    the edge ab: e takes half of sum(c), and f = 2t - sum(c) / 2 must not
    be negative.  Hence count(t) is the sum over s in [0, 2t]^(2k-2) of
    G(s) M(2t - s) [sum(2t - s) <= 4t], with G the degree table of K_{2k-2}
    and M the closure table.  Each row sum of at most 2t + 1 terms is an
    int64, and the rows are added as Python ints.
    """
    m, D = 2 * k - 2, 2 * T
    subject = f"gamma_sym({k}) dilation {T}"
    refuse_past(f"{subject}, for its tables,", _gamma_peak_bytes(k, T), _MEMORY_GUARD, "memory")
    # G counts weightings of C(m, 2) edges in [0, D], and M choices of m - 1
    # free entries in [0, D]; a row sum adds at most D + 1 of their products
    bound = (D + 1) ** (math.comb(m, 2) + m)
    refuse_past(f"{subject}, by its row-sum bound,", bound, 2**63 - 1, "int64 range")
    G = _degree_table(m, D)
    M = _closure_table(k, D)
    sigma = np.add.outer(np.arange(D + 1), np.arange(D + 1))
    counts = []
    for t in range(T + 1):
        box = (slice(0, 2 * t + 1),) * m
        residual = (slice(2 * t, None, -1),) * m
        terms = M[residual].astype(np.int64)
        terms *= G[box]
        if m == 4:
            # the residual pair sums sigma_p + sigma_q may not pass 4t
            pair = sigma[residual[:2]]
            terms[np.less.outer(4 * t - pair, pair)] = 0
        counts.append(sum(terms.sum(axis=-1).ravel().tolist()))
        del terms  # before the next, larger box is built
    return tuple(counts)


# k -> the gamma_sym(k) counts of the largest dilation range built so far
_GAMMA_COUNTS: dict[int, tuple[int, ...]] = {}


def lattice_count(spec: PolytopeSpec, t: int) -> int:
    """Exact number of lattice points in the t-th dilation."""
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    k = spec.k
    if spec.family == "birkhoff":
        return count_margin_matrices((t,) * k, (t,) * k)
    if spec.family == "beta_mixed":
        # every row sum is at most t and the total is (k-1) t, so each is t
        return _capped_degree_dp(2 * k - 1, _bipartite_edges(k - 1, k), t)[(k - 1) * t]
    if spec.family == "alpha_box":
        # every row and column sum at most t: all the graded coefficients
        return sum(_capped_degree_dp(2 * k, _bipartite_edges(k, k), t))
    # gamma_sym: degrees 2t on K_{2k}; one build serves every dilation the
    # fit counts, and a dilation past every build so far replaces it
    counts = _GAMMA_COUNTS.get(k, ())
    if t >= len(counts):
        counts = _GAMMA_COUNTS[k] = _gamma_counts(k, max(t, _fit_grid(spec)[1] + 3))
    return counts[t]


# ---------------------------------------------------------------------------
# Ehrhart interpolation


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending order."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1]

    def __call__(self, t: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


def _newton_interpolate(values: list[int], start: int) -> RationalPolynomial:
    """Exact interpolation through (start + i, values[i]), i = 0..d."""
    d = len(values) - 1
    diffs = [Fraction(v) for v in values]
    # divided differences on the unit grid reduce to forward differences / i!
    table = [diffs[0]]
    work = diffs
    for i in range(1, d + 1):
        work = [work[j + 1] - work[j] for j in range(len(work) - 1)]
        table.append(work[0] / math.factorial(i))
    # expand prod_{j<i} (t - start - j) into monomials
    coeffs = [Fraction(0)] * (d + 1)
    basis = [Fraction(1)]
    for i in range(d + 1):
        for j, b in enumerate(basis):
            coeffs[j] += table[i] * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for j, b in enumerate(basis):
            new_basis[j] -= b * (start + i)
            new_basis[j + 1] += b
        basis = new_basis
    return RationalPolynomial(tuple(coeffs))


def _fit_grid(spec: PolytopeSpec) -> tuple[int, int]:
    """(c, m): the fit interpolates P on the grid -c-m..m, counting t = 0..m.

    For the three integral families c is the mirror shift of
    ``_reciprocal_counts``, k or k + 1.  For ``gamma_sym`` the negative
    end comes from its own kernel, and c = 1 gives the degree table and
    the capped DP equal shares.  The grid's c + 2m + 1 points must fix
    the degree d, so m = ceil((d - c) / 2).
    """
    k = spec.k
    c = {"birkhoff": k, "beta_mixed": k, "alpha_box": k + 1, "gamma_sym": 1}[spec.family]
    return c, max(0, (spec.dimension - c + 1) // 2)


def _reciprocal_counts(spec: PolytopeSpec, counts: list[int]) -> list[int]:
    """P(-1), ..., P(-c-m) by Ehrhart-Macdonald reciprocity, from counts = P(0..m).

    (-1)^d P(-t) counts the interior lattice points of the t-th dilation,
    d the dimension (Stanley, Adv. Math. 14, 1974).  An interior point has
    every entry or edge weight >= 1 and every bounded margin strict, so
    taking 1 off each entry maps the interior points one to one onto a
    smaller polytope's lattice points:

    * ``birkhoff`` and ``beta_mixed``: the (t - k)-th dilation (k entries
      in each line, and a column sum below t drops to at most t - k);
    * ``alpha_box``: the (t - k - 1)-th dilation (every line sum below t);
    * ``gamma_sym``: the weightings of K_{2k} whose degrees all equal the
      odd value 2t - 2k + 1, the top coefficient of the capped-degree DP
      there, which shares no code with the degree table.

    There are none when that target is negative.  So the integral
    families mirror, P(-c-t) = (-1)^d P(t) with c from ``_fit_grid``, and
    ``gamma_sym`` counts afresh.
    """
    c = _fit_grid(spec)[0]
    if spec.family == "gamma_sym":
        k = spec.k
        interior = [
            _capped_degree_dp(2 * k, _complete_edges(2 * k), 2 * t - 2 * k + 1)[-1] if t >= k else 0
            for t in range(1, c + len(counts))
        ]
    else:
        interior = [0] * (c - 1) + counts
    return [(-1) ** spec.dimension * n for n in interior]


@cache
def ehrhart_polynomial(spec: PolytopeSpec) -> RationalPolynomial:
    """Interpolate the dilation-count polynomial and validate it out of sample.

    With (c, m) from ``_fit_grid``, the counts at t = 0..m and
    P(-1..-c-m) from ``_reciprocal_counts`` pin P on the grid -c-m..m.
    The grid may hold more than d + 1 points; every interpolated
    coefficient above degree d must then be 0.  Predictions at t = m+1,
    m+2, m+3 are then checked against fresh counts.  A mismatch means a
    counting bug, not a data issue, hence RuntimeError.  So the fit
    counts t <= m + 3: t <= 6 for ``birkhoff(4)`` and ``beta_mixed(4)``,
    t <= 9 for them at k = 5 and for ``alpha_box(4)``, and t <= 7 for
    ``gamma_sym(3)``, whose negative end takes the capped DP at L = 1, 3
    and 5.
    """
    d = spec.dimension
    c, m = _fit_grid(spec)
    counts = [lattice_count(spec, t) for t in range(m + 1)]
    poly = _newton_interpolate(_reciprocal_counts(spec, counts)[::-1] + counts, -c - m)
    if any(poly.coefficients[d + 1 :]):
        raise RuntimeError(
            f"interpolation for {spec.family}(k={spec.k}) at t={-c - m}..{m} has nonzero "
            f"coefficients above degree {d}: {poly.coefficients[d + 1 :]}"
        )
    poly = RationalPolynomial(poly.coefficients[: d + 1])
    for t in range(m + 1, m + 4):
        predicted = poly(t)
        actual = lattice_count(spec, t)
        if predicted != actual:
            raise RuntimeError(
                f"interpolation mismatch for {spec.family}(k={spec.k}) at t={t}: "
                f"predicted {predicted}, counted {actual}"
            )
    return poly


def relative_volume(spec: PolytopeSpec) -> Fraction:
    """Leading Ehrhart coefficient: the volume in the affine span, measured
    against the induced lattice."""
    lc = ehrhart_polynomial(spec).leading_coefficient
    if lc <= 0:
        raise RuntimeError(f"nonpositive volume for {spec.family}(k={spec.k})")
    return lc


# ---------------------------------------------------------------------------
# named constants


def beta_constant(k: int) -> Fraction:
    """beta(k) as an exact rational, computed by two routes that must agree.

    The equal-margin route and the capped-column route count the same
    matrices (append the column-slack row to a capped matrix and its row
    sum is forced), but the two share no code: one recurses on exact
    margins, the other is the edge DP behind every unitary moment.
    Equality of the full Ehrhart polynomials is therefore a strong check
    of both, and it pins the volume normalization used everywhere else.
    """
    if not 1 <= k <= 5:
        raise ValueError("beta_constant supports k in 1..5")
    pa = ehrhart_polynomial(birkhoff(k))
    pb = ehrhart_polynomial(beta_mixed(k))
    if pa.coefficients != pb.coefficients:
        raise RuntimeError(
            f"beta route disagreement at k={k}: {pa.coefficients} vs {pb.coefficients}"
        )
    return pa.leading_coefficient


def alpha_constant(k: int) -> Fraction:
    """alpha(k): plain volume of the box-constrained margin polytope.

    k = 5 is refused: its fit counts ``alpha_box(5)`` up to t = 13, where
    the capped-degree DP's count bound passes int64, so the DP refuses it
    until it can count past int64.
    """
    if not 1 <= k <= 4:
        raise ValueError("alpha_constant supports k in 1..4")
    return relative_volume(alpha_box(k))


def gamma_constant(k: int) -> Fraction:
    """gamma(k) from the degree-constrained edge polytope of K_{2k}.

    The dilation counts run over even degree targets 2t, so the leading
    coefficient ell(k) measures the dilation-by-2 volume, a factor 2^dim;
    one more factor of 2 accounts for the even-total sublattice that the
    degree map actually hits (the sum of all degrees is twice the total
    edge weight, so odd-sum degree vectors are never realized).  Hence
    gamma(k) = ell(k) / 2^(dim + 1).
    """
    if not 2 <= k <= 3:
        raise ValueError("gamma_constant supports k in {2, 3}")
    spec = gamma_sym(k)
    ell = relative_volume(spec)
    return ell / 2 ** (spec.dimension + 1)
