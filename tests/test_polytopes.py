import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments import polytopes
from rmfmoments.errors import ResourceLimitError
from rmfmoments.polytopes import (
    _bipartite_edges,
    _capped_degree_dp,
    _complete_edges,
    _dp_cost,
    _graded_vertices,
    _newton_interpolate,
    _reciprocal_counts,
    alpha_box,
    alpha_constant,
    beta_constant,
    beta_mixed,
    birkhoff,
    count_margin_matrices,
    ehrhart_polynomial,
    gamma_constant,
    gamma_sym,
    lattice_count,
    relative_volume,
)

F = Fraction


def test_doubly_stochastic_ehrhart_values_3x3():
    # 3x3 nonnegative integer matrices with all row and column sums t
    spec = birkhoff(3)
    got = [lattice_count(spec, t) for t in range(8)]
    assert got == [1, 6, 21, 55, 120, 231, 406, 666]


def test_doubly_stochastic_2x2_polynomial():
    poly = ehrhart_polynomial(birkhoff(2))
    assert poly.degree == 1
    assert [poly(t) for t in range(5)] == [1, 2, 3, 4, 5]


def test_margin_count_brute_force_2x3():
    rows, cols = (3, 2), (1, 2, 2)
    brute = 0
    for mat in product(range(4), repeat=6):
        m = [mat[:3], mat[3:]]
        if (
            sum(m[0]) == rows[0]
            and sum(m[1]) == rows[1]
            and all(m[0][j] + m[1][j] == cols[j] for j in range(3))
        ):
            brute += 1
    assert count_margin_matrices(rows, cols) == brute


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_two_row_margin_count_against_enumeration(cols, data):
    # two rows go through the closed form; walk every 2 x m matrix instead
    first = data.draw(st.integers(min_value=0, max_value=sum(cols)))
    rows = (first, sum(cols) - first)
    m = len(cols)
    brute = sum(
        1
        for mat in product(range(max(cols) + 1), repeat=2 * m)
        if sum(mat[:m]) == rows[0]
        and sum(mat[m:]) == rows[1]
        and all(mat[j] + mat[m + j] == cols[j] for j in range(m))
    )
    assert count_margin_matrices(rows, tuple(cols)) == brute


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=3),
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_margin_count_transpose_symmetry(rows, cols):
    r, c = tuple(rows), tuple(cols)
    assert count_margin_matrices(r, c) == count_margin_matrices(c, r)


def test_beta_values():
    assert beta_constant(1) == F(1)
    assert beta_constant(2) == F(1)
    assert beta_constant(3) == F(1, 8)


def test_beta_routes_share_polynomial():
    # the two counting routes must produce identical coefficient tuples,
    # not just matching leading terms
    for k in (2, 3):
        pa = ehrhart_polynomial(birkhoff(k))
        pb = ehrhart_polynomial(beta_mixed(k))
        assert pa.coefficients == pb.coefficients


def test_beta_k5_pinned():
    # vol B_5 (Beck & Pixton), from the degree-16 polynomials of both routes
    # at t <= 9
    assert beta_constant(5) == F(188723, 836911595520)
    assert ehrhart_polynomial(birkhoff(5)) == ehrhart_polynomial(beta_mixed(5))


def forward_fit(spec):
    """The polynomial through the counts at t = 0..d, no reciprocity."""
    return _newton_interpolate([lattice_count(spec, t) for t in range(spec.dimension + 1)], 0)


RECIPROCITY_SPECS = (
    [birkhoff(k) for k in range(1, 5)]
    + [beta_mixed(k) for k in range(1, 5)]
    + [alpha_box(k) for k in range(1, 5)]
    + [gamma_sym(2), gamma_sym(3)]
)


@pytest.mark.parametrize(
    "spec", RECIPROCITY_SPECS, ids=[f"{s.family}-k{s.k}" for s in RECIPROCITY_SPECS]
)
def test_reciprocity_fit_equals_forward_fit(spec):
    assert ehrhart_polynomial(spec).coefficients == forward_fit(spec).coefficients


def test_birkhoff_mirror_counts_positive_matrices():
    # (-1)^d P(-t) counts the 3 x 3 matrices with line sums t and every
    # entry >= 1: walk the first two rows, each a composition of t into 3
    # parts; the column sums force the third, whose sum is then t
    spec = birkhoff(3)
    mirror = _reciprocal_counts(spec, [lattice_count(spec, t) for t in range(5)])
    assert len(mirror) == 7
    for t, value in enumerate(mirror, 1):
        rows = [r for r in product(range(1, t + 1), repeat=3) if sum(r) == t]
        brute = sum(
            1 for a, b in product(rows, repeat=2) if all(t - a[j] - b[j] >= 1 for j in range(3))
        )
        assert (-1) ** spec.dimension * value == brute


def test_gamma_mirror_counts_positive_weightings():
    # (-1)^d P(-t) counts the K_4 weightings with every weight >= 1 and
    # every degree 2t
    spec = gamma_sym(2)
    edges = _complete_edges(4)
    mirror = _reciprocal_counts(spec, [lattice_count(spec, t) for t in range(4)])
    assert len(mirror) == 4
    for t, value in enumerate(mirror, 1):
        brute = 0
        for weights in product(range(1, 2 * t), repeat=len(edges)):
            degrees = [0] * 4
            for (i, j), w in zip(edges, weights):
                degrees[i] += w
                degrees[j] += w
            brute += all(deg == 2 * t for deg in degrees)
        assert (-1) ** spec.dimension * value == brute


@pytest.mark.parametrize(
    "mutate",
    [
        lambda mirror, spec, counts: [(-1) ** spec.dimension * n for n in mirror(spec, counts)],
        lambda mirror, spec, counts: [0] + mirror(spec, counts)[:-1],
    ],
    ids=["sign-dropped", "shifted-by-one"],
)
@pytest.mark.parametrize(
    "spec",
    [birkhoff(4), alpha_box(3), gamma_sym(3)],
    ids=["birkhoff-k4", "alpha_box-k3", "gamma_sym-k3"],
)
def test_broken_mirror_fails_the_fit(monkeypatch, mutate, spec):
    # each family has odd dimension 9 here, so a dropped sign changes P(-t)
    mirror = polytopes._reciprocal_counts
    monkeypatch.setattr(polytopes, "_reciprocal_counts", lambda s, c: mutate(mirror, s, c))
    ehrhart_polynomial.cache_clear()
    with pytest.raises(RuntimeError):
        ehrhart_polynomial(spec)


def test_alpha_values():
    assert alpha_constant(1) == F(1)
    assert alpha_constant(2) == F(1, 6)


def test_alpha_k3_k4_pinned():
    # Conrey-Gamburd pseudomagic-square volumes; alpha(4) is the degree-16
    # Ehrhart polynomial of K_{4,4} weightings with degrees <= t, counted
    # at t <= 9 and mirrored by reciprocity
    assert alpha_constant(3) == F(107, 60480)
    assert alpha_constant(4) == F(29003, 50295168000)


def brute_capped_count(nrows, ncols, t, exact_rows):
    """nrows x ncols matrices over 0..t with column sums <= t and row sums
    <= t, or == t when ``exact_rows``."""
    count = 0
    for entries in product(range(t + 1), repeat=nrows * ncols):
        rows = [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        row_sums = [sum(r) for r in rows]
        if exact_rows and any(s != t for s in row_sums):
            continue
        if max(row_sums, default=0) > t:
            continue
        if all(sum(r[j] for r in rows) <= t for j in range(ncols)):
            count += 1
    return count


@pytest.mark.parametrize(
    "spec,nrows,ncols,exact_rows,t_max",
    [
        (alpha_box(2), 2, 2, False, 4),
        (alpha_box(3), 3, 3, False, 2),
        (beta_mixed(3), 2, 3, True, 2),
    ],
)
def test_capped_counts_against_enumeration(spec, nrows, ncols, exact_rows, t_max):
    for t in range(t_max + 1):
        assert lattice_count(spec, t) == brute_capped_count(nrows, ncols, t, exact_rows)


@pytest.mark.parametrize(
    "t,limit",
    [
        (40, "guard on memory"),  # 41^6 cells of 8 bytes, 36 GiB
        (13, "int64 range"),  # C(18, 5)^5 ~ 2^65.3 weightings
    ],
)
def test_capped_dp_refused_before_allocating(t, limit):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=limit):
            lattice_count(alpha_box(5), t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_alpha_box_5_fit_refused_before_any_count(monkeypatch):
    # the fit counts its largest dilation, t = 13, first: the DP's int64
    # bound refuses it before any smaller dilation is counted
    calls, done = [], []
    dp = polytopes._capped_degree_dp

    def counted(*args):
        calls.append(args[2])
        out = dp(*args)
        done.append(args[2])
        return out

    monkeypatch.setattr(polytopes, "_capped_degree_dp", counted)
    with pytest.raises(ResourceLimitError, match="int64 range"):
        relative_volume(alpha_box(5))
    assert calls == [13] and done == []


def graded_dp_with_weight_axis(n, edges, L):
    """The capped-degree DP that carries a leading axis of w-powers through
    every edge step, shifting it by one as it moves mass, and sums each
    vertex out at its last edge."""
    last = {v: e for e, edge in enumerate(edges) for v in edge}
    A = np.zeros(n * L // 2 + 1, dtype=np.int64)
    A[0] = 1
    open_axes = []
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
            dst[0], src[0] = slice(1, None), slice(0, -1)
            A[tuple(dst)] += A[tuple(src)]
        for v in edge:
            if last[v] == e:
                A = A.sum(axis=1 + open_axes.index(v))
                open_axes.remove(v)
    return tuple(A.tolist())


@pytest.mark.parametrize(
    "n,edges,L_max",
    [(2 * k, _bipartite_edges(k, k), 6) for k in range(1, 5)]
    + [(2 * k, _complete_edges(2 * k), 5) for k in range(1, 4)]
    + [(2 * k - 1, _bipartite_edges(k - 1, k), 6) for k in range(1, 5)],
    ids=[f"unitary-k{k}" for k in range(1, 5)]
    + [f"so-k{k}" for k in range(1, 4)]
    + [f"beta_mixed-k{k}" for k in range(1, 5)],
)
def test_graded_dp_equals_weight_axis_reference(n, edges, L_max):
    # reading the weight off closing vertices gives the tuple, trailing
    # zeros included, that carrying it through every edge step gives
    for L in range(L_max + 1):
        assert _capped_degree_dp(n, edges, L) == graded_dp_with_weight_axis(n, edges, L)


@pytest.mark.parametrize(
    "n,edges,L",
    [
        (6, _bipartite_edges(3, 3), 15),
        (6, _complete_edges(6), 7),
        (7, _bipartite_edges(3, 4), 12),  # the forward fit's last dilation
    ],
    ids=["unitary-k3", "so-k3", "beta_mixed-k4"],
)
def test_graded_dp_peak_within_prediction(n, edges, L):
    predicted = _dp_cost(edges, L, _graded_vertices(edges)[0])[0]
    tracemalloc.start()
    try:
        _capped_degree_dp(n, edges, L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= predicted


@pytest.mark.parametrize(
    "count",
    [
        lambda: lattice_count(beta_mixed(5), 40),  # 41^5 cells held twice at a fold
        lambda: _capped_degree_dp(8, _bipartite_edges(4, 4), 40),
    ],
    ids=["beta_mixed-k5", "unitary-k4"],
)
def test_graded_dp_refused_before_allocating(count):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="guard on memory"):
            count()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graded_dp_run_time_guard_between_measured_inputs():
    # with a float w, unitary k = 10 at L = 3 (2.9e8 cell updates) ran in
    # 3 s and k = 11 (1.4e9) in 13 s; the guard admits the first only
    polytopes._check_dp_guards(20, _bipartite_edges(10, 10), 3, 2.25)
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        polytopes._check_dp_guards(22, _bipartite_edges(11, 11), 3, 2.25)


def test_gamma_counts_equal_capped_dp_on_one_vertex_fewer():
    # the last vertex of K_{2k} takes the slack: its edges carry 2t - s_a,
    # so the other 2k - 1 vertices have degrees <= 2t and total weight
    # (2k - 2) t.  The DP shares no code with the degree table
    for k, t_max in ((2, 12), (3, 8)):
        m = 2 * k - 1
        for t in range(t_max + 1):
            dp = _capped_degree_dp(m, _complete_edges(m), 2 * t)[(m - 1) * t]
            assert lattice_count(gamma_sym(k), t) == dp


def test_gamma_k2():
    assert gamma_constant(2) == F(1, 4)


def test_k4_edge_counts_quadratic():
    # degree-constrained nonnegative edge weights on K_4 with every vertex
    # at degree 2t: the count is (2t+1)(t+1).  t <= 4 is the range the fit
    # counts, read from one shared build; each t past the largest build so
    # far replaces it
    spec = gamma_sym(2)
    for t in range(13):
        assert lattice_count(spec, t) == (2 * t + 1) * (t + 1)


def test_gamma_counts_served_from_largest_build(monkeypatch):
    # a dilation inside any earlier build reads it; only one past them all
    # builds the counts again
    built = []
    count = polytopes._gamma_counts
    monkeypatch.setattr(polytopes, "_GAMMA_COUNTS", {})
    monkeypatch.setattr(polytopes, "_gamma_counts", lambda k, T: built.append(T) or count(k, T))
    ts = (9, 3, 7, 9, 10, 0)
    assert [lattice_count(gamma_sym(2), t) for t in ts] == [(2 * t + 1) * (t + 1) for t in ts]
    assert built == [9, 10]


def test_gamma_k3_dilation_counts_pinned():
    # t = 0..12, the forward fit's range; the same counts come from direct
    # recursion over the edge compositions of the largest residual degree
    spec = gamma_sym(3)
    assert [lattice_count(spec, t) for t in range(13)] == [
        1, 130, 3355, 36935, 245870, 1177295, 4469610, 14284170, 39970575,
        100639000, 232524589, 500269705, 1013519780,
    ]


def test_gamma_far_dilation_refused_before_allocating(monkeypatch):
    tracemalloc.start()
    try:
        # t = 40 holds 81^4-cell degree and closure tables: refused on memory
        with pytest.raises(ResourceLimitError, match="guard on memory"):
            lattice_count(gamma_sym(3), 40)
        # with the memory guard lifted, the int64 bound on a row sum,
        # 81^6 81^3 81 > 2^63, refuses instead
        monkeypatch.setattr(polytopes, "_MEMORY_GUARD", 1 << 62)
        with pytest.raises(ResourceLimitError, match="int64 range"):
            lattice_count(gamma_sym(3), 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _gamma_counts_one_vertex_closed(k, T):
    # the K_{2k-1} degree table with only the last vertex closed: its
    # edges take 2t - s_a, so the count is the sum of G(s) over
    # s in [0, 2t]^(2k-1) with sum(s) = 2t (2k - 2)
    m, D = 2 * k - 1, 2 * T
    table = polytopes._degree_table(m, D)
    level = np.zeros((), dtype=np.int16)
    for _ in range(m):
        level = np.add.outer(level, np.arange(D + 1, dtype=np.int16))
    counts = []
    for t in range(T + 1):
        box = (slice(0, 2 * t + 1),) * m
        counts.append(sum(table[box][level[box] == 2 * t * (m - 1)].tolist()))
    return tuple(counts)


def test_gamma_two_vertex_closure_equals_one_vertex_table():
    for k, T in ((2, 12), (3, 13)):
        assert polytopes._gamma_counts(k, T) == _gamma_counts_one_vertex_closed(k, T)


def test_gamma_far_dilations_follow_ehrhart_polynomial():
    # dilations past t <= 12, whose counts alone would fix the degree-9
    # polynomial
    poly = ehrhart_polynomial(gamma_sym(3))
    assert lattice_count(gamma_sym(3), 20) == poly(20)
    far = polytopes._gamma_counts(3, 20)
    assert all(far[t] == poly(t) for t in range(13, 21))


@pytest.mark.parametrize("k,T", [(2, 40), (3, 6), (3, 16)])
def test_gamma_counts_peak_within_prediction(k, T):
    predicted = polytopes._gamma_peak_bytes(k, T)
    tracemalloc.start()
    try:
        polytopes._gamma_counts(k, T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert predicted // 2 < peak <= predicted


def test_lattice_count_monotone_in_t():
    for spec in (birkhoff(3), alpha_box(2), gamma_sym(2)):
        vals = [lattice_count(spec, t) for t in range(5)]
        assert vals == sorted(vals)
        assert vals[0] == 1


def test_ehrhart_out_of_sample_holds():
    # ehrhart_polynomial validates internally at d+1..d+3; re-check one
    # further dilation by hand
    spec = beta_mixed(2)
    poly = ehrhart_polynomial(spec)
    t = spec.dimension + 4
    assert poly(t) == lattice_count(spec, t)


def test_relative_volume_positive_rational():
    v = relative_volume(birkhoff(3))
    assert isinstance(v, Fraction)
    assert v > 0


def test_gamma_k3_consistent_across_dilations():
    spec = gamma_sym(3)
    poly = ehrhart_polynomial(spec)
    assert poly.leading_coefficient > 0
    g = gamma_constant(3)
    assert g > 0
    # gamma(k) = ell(k) / 2^(dim+1)
    assert g == poly.leading_coefficient / 2 ** (spec.dimension + 1)


def test_bad_inputs():
    with pytest.raises(ValueError):
        birkhoff(0)
    with pytest.raises(ValueError):
        alpha_constant(9)
    with pytest.raises(ValueError):
        lattice_count(birkhoff(2), -1)
