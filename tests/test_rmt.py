import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments.errors import ResourceLimitError
from rmfmoments.estimates import keyed_estimate, trial_rng, trial_rngs
from rmfmoments.polytopes import (
    _bipartite_edges,
    _capped_degree_dp,
    _complete_edges,
    count_margin_matrices,
)
from rmfmoments.rmt import (
    I1_two_ways,
    hyper_Fk,
    mc_truncated_moment,
    so_asymptotic_rhs,
    so_truncated_coefficients,
    so_truncated_moment_exact,
    unitary_asymptotic_rhs,
    unitary_truncated_coefficients,
    unitary_truncated_moment_exact,
)
from rmfmoments.rmt import (
    _haar_block,
    _haar_unitaries,
    _secular_head,
)

SQRT_E = math.exp(0.5)


# --- exact truncated moments -------------------------------------------------


def test_unitary_k1_coefficients_all_one():
    for L in (0, 1, 5, 50):
        assert unitary_truncated_coefficients(1, L) == (1,) * (L + 1)


def test_unitary_k1_moment_is_geometric_sum():
    for L in (3, 17, 50):
        z = 1.3
        w = z * z
        expected = (w ** (L + 1) - 1) / (w - 1)
        assert unitary_truncated_moment_exact(1, L, z) == pytest.approx(expected, rel=1e-13)


def test_unitary_k2_frozen_coefficients():
    assert unitary_truncated_coefficients(2, 1) == (1, 4, 2)
    assert unitary_truncated_coefficients(2, 2) == (1, 4, 10, 8, 3)


def test_unitary_k5_partial_permutation_counts():
    # at L = 1 a matrix is a partial permutation: s rows, s columns and a
    # bijection between them, C(5, s)^2 s! ways
    assert unitary_truncated_coefficients(5, 1) == (1, 25, 200, 600, 600, 120)


def test_so_k1_moment_is_geometric_sum():
    for L in (2, 10, 40):
        z = 2.0
        w = z * z
        expected = (w ** (L + 1) - 1) / (w - 1)
        assert so_truncated_moment_exact(1, L, z) == pytest.approx(expected, rel=1e-13)


def test_so_k2_frozen_coefficients():
    assert so_truncated_coefficients(2, 1) == (1, 6, 3)
    assert so_truncated_coefficients(2, 2) == (1, 6, 21, 22, 6)


def brute_unitary_coefficients(k, L):
    """Walk ordered degree tuples directly.

    The s-th coefficient sums, over ordered pairs of k-tuples of degrees
    <= L with common total s, the number of nonnegative integer matrices
    whose row sums are the first tuple and column sums the second.
    """
    from rmfmoments.polytopes import count_margin_matrices

    out = [0] * (k * L + 1)
    for rows in product(range(L + 1), repeat=k):
        for cols in product(range(L + 1), repeat=k):
            if sum(rows) == sum(cols):
                out[sum(rows)] += count_margin_matrices(rows, cols)
    return out


@pytest.mark.parametrize("k,L", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_unitary_coefficients_against_margin_walk(k, L):
    assert tuple(brute_unitary_coefficients(k, L)) == unitary_truncated_coefficients(k, L)


def test_unitary_k3_coefficients_closed_forms():
    # s <= L: every 3 x 3 matrix of total s meets the caps, C(s+8, 8);
    # s = 3L: 3 x 3 magic squares with line sum L (MacMahon)
    L = 6
    coeffs = unitary_truncated_coefficients(3, L)
    assert coeffs[: L + 1] == tuple(math.comb(s + 8, 8) for s in range(L + 1))
    assert coeffs[-1] == math.comb(L + 2, 2) + 3 * math.comb(L + 3, 4)


def test_so_k3_coefficients_against_zero_one_walk():
    # at L = 1 every edge weight of K_6 is 0 or 1 and the weightings are
    # the matchings, so a walk over {0,1}^15 sees all of them
    edges = _complete_edges(6)
    brute = [0] * 4
    for weights in product((0, 1), repeat=len(edges)):
        degree = [0] * 6
        for (i, j), c in zip(edges, weights):
            degree[i] += c
            degree[j] += c
        if max(degree) <= 1:
            brute[sum(weights)] += 1
    assert so_truncated_coefficients(3, 1) == tuple(brute) == (1, 15, 45, 15)


def test_exact_and_float_paths_agree():
    # the float-weight DP against the integer coefficients, both groups
    cases = (
        (unitary_truncated_coefficients, _bipartite_edges(3, 3), 3, 9, 1.2),
        (unitary_truncated_coefficients, _bipartite_edges(2, 2), 2, 12, 1.7),
        (so_truncated_coefficients, _complete_edges(6), 3, 4, 1.3),
        (so_truncated_coefficients, _complete_edges(4), 2, 6, 1.9),
    )
    for coefficients, edges, k, L, z in cases:
        w = z * z
        direct = math.fsum(c * w**s for s, c in enumerate(coefficients(k, L)))
        assert _capped_degree_dp(2 * k, edges, L, w) == pytest.approx(direct, rel=1e-12)


def test_so_exact_and_coefficients_agree():
    k, L, z = 2, 6, 1.9
    coeffs = so_truncated_coefficients(k, L)
    direct = math.fsum(c * z ** (2 * s) for s, c in enumerate(coeffs))
    assert so_truncated_moment_exact(k, L, z) == pytest.approx(direct, rel=1e-12)


def test_coefficient_caps_enforced():
    # the DP's own guards refuse, on both routes, and name the resource
    with pytest.raises(ResourceLimitError, match="guard on memory"):
        unitary_truncated_moment_exact(2, 4000, 1.5)
    with pytest.raises(ResourceLimitError, match="guard on memory"):
        so_truncated_moment_exact(3, 30, 1.5)
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        unitary_truncated_moment_exact(12, 3, 1.5)


@pytest.mark.parametrize(
    "k, L, resource",
    [
        # 144 edge steps over states of up to 512 MiB
        (12, 3, "guard on run time"),
        # before a list of 4e6 edges is built
        (2000, 0, "guard on numpy array dimensions"),
    ],
)
def test_moment_guards_refuse_before_allocating(k, L, resource):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=resource):
            unitary_truncated_moment_exact(k, L, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_moment_route_follows_dp_guards():
    # k = 6: the int64 bound admits the exact counts up to L = 6; at L = 7
    # the moment is the float-w DP's, bit for bit
    z = 1.5
    w = z * z
    direct = math.fsum(c * w**s for s, c in enumerate(unitary_truncated_coefficients(6, 6)))
    assert unitary_truncated_moment_exact(6, 6, z) == direct
    with pytest.raises(ResourceLimitError, match="int64 range"):
        unitary_truncated_coefficients(6, 7)
    assert unitary_truncated_moment_exact(6, 7, z) == _capped_degree_dp(12, _bipartite_edges(6, 6), 7, w)


@pytest.mark.parametrize(
    "moment, k, L, z",
    [
        # exact coefficients, |z|^(2kL) = 10^800, 10^360 and 10^672
        (unitary_truncated_moment_exact, 1, 200, 100.0),
        (unitary_truncated_moment_exact, 3, 30, 100.0),
        (so_truncated_moment_exact, 2, 24, 1e7),
        # float DP (int64 refuses the counts), 10^3900
        (unitary_truncated_moment_exact, 5, 13, 1e30),
        # asymptotic curves, 10^2400 and 10^1200
        (unitary_asymptotic_rhs, 2, 600, 100.0),
        (so_asymptotic_rhs, 1, 300, 100.0),
    ],
)
def test_moment_past_float_range_refused(moment, k, L, z):
    # refused with the range named, and without an overflow RuntimeWarning
    with pytest.raises(ResourceLimitError, match="float range"):
        moment(k, L, z)


def test_moment_just_inside_float_range():
    # w^200 = 10^300: the last geometric term is finite and the sum returned
    z = 10**0.75
    w = z * z
    expected = (w**201 - 1) / (w - 1)
    assert unitary_truncated_moment_exact(1, 200, z) == pytest.approx(expected, rel=1e-12)


def test_moment_rejects_z_inside_unit_disk():
    with pytest.raises(ValueError):
        unitary_truncated_moment_exact(2, 5, 0.9)


# --- special functions -------------------------------------------------------


def test_hyper_one_is_constant():
    assert hyper_Fk(1, 1.4) == 1.0
    assert hyper_Fk(1, 9.0) == 1.0


def test_hyper_two_frozen():
    assert hyper_Fk(2, SQRT_E) == pytest.approx(0.6839397205857212, rel=1e-13)


def test_hyper_two_closed_form():
    # k=2 terminates after two terms: 1 - (1 - z^-2)/2
    z = 1.7
    assert hyper_Fk(2, z) == pytest.approx(1.0 - (1.0 - z**-2) / 2.0, rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("z", [1.1, 2.0, 5.0])
def test_contour_integral_two_routes(k, z):
    residue, closed = I1_two_ways(k, z)
    assert residue == pytest.approx(closed, rel=1e-10)


def test_magic_counts():
    assert count_margin_matrices((1, 1), (1, 1)) == 2
    assert count_margin_matrices((2, 1), (2, 1)) == 2
    assert count_margin_matrices((2,), (1, 1)) == 1
    # row and column sums differ
    assert count_margin_matrices((1,), (2,)) == 0


# --- Haar sampling -----------------------------------------------------------


def _one_draw(n, rng):
    # c_0..c_n of one Haar draw from U(n)
    return _secular_head(_haar_unitaries(n, [rng]), n)[0]


def test_secular_sample_shape_and_endpoints():
    rng = np.random.default_rng(12345)
    c = _one_draw(8, rng)
    assert c.shape == (9,)
    assert c[0] == pytest.approx(1.0)
    # c_N is (-1)^N det(U), modulus one
    assert abs(c[8]) == pytest.approx(1.0, abs=1e-10)


def test_secular_sample_deterministic():
    a = _one_draw(6, np.random.default_rng(99))
    b = _one_draw(6, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_secular_polynomial_matches_determinant():
    # sum_m c_m z^m must equal det(I + z U) for the sampled U; rebuild U
    # with the same stream and compare at a few points
    rng = np.random.default_rng(4242)
    g = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    sample_rng = np.random.default_rng(4242)
    s = _one_draw(5, sample_rng)
    for z in (0.3, -0.7 + 0.2j, 1.1j):
        direct = np.linalg.det(np.eye(5) + z * u)
        series = sum(c * z**m for m, c in enumerate(s))
        assert series == pytest.approx(direct, rel=1e-10)


@given(st.integers(min_value=1, max_value=16))
@settings(max_examples=25, deadline=None)
def test_secular_first_coefficient_is_minus_trace(n):
    rng = np.random.default_rng(1000 + n)
    s = _one_draw(n, rng)
    # |c_1| = |tr U| <= N always
    assert abs(s[1]) <= n + 1e-9


def _reference_secular(N, rng):
    # one QR per draw, all N matrix powers, Newton's identities on scalars
    g = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))[None, :]
    traces = np.zeros(N + 1, dtype=np.complex128)
    power = np.eye(N, dtype=np.complex128)
    for j in range(1, N + 1):
        power = power @ u
        traces[j] = np.trace(power)
    e = np.zeros(N + 1, dtype=np.complex128)
    e[0] = 1.0
    for n in range(1, N + 1):
        acc = 0.0 + 0.0j
        sign = 1.0
        for i in range(1, n + 1):
            acc += sign * e[n - i] * traces[i]
            sign = -sign
        e[n] = acc / n
    return e


@pytest.mark.parametrize("n", [1, 2, 5, 8, 64])
def test_secular_coefficients_bit_identical_to_reference(n):
    for t in range(3):
        expected = _reference_secular(n, trial_rng(77, t))
        assert np.array_equal(_one_draw(n, trial_rng(77, t)), expected)
    stacked = _secular_head(_haar_unitaries(n, trial_rngs(77, 0, 3)), n)
    for t in range(3):
        assert np.array_equal(stacked[t], _reference_secular(n, trial_rng(77, t)))
    # a shorter head is the leading part of the full vector
    head = _secular_head(_haar_unitaries(n, trial_rngs(77, 0, 3)), min(n, 3))
    assert np.array_equal(head, stacked[:, : min(n, 3) + 1])


def test_trial_rngs_match_trial_rng():
    for t, rng in zip(range(5, 12), trial_rngs(2**40 + 3, 5, 12)):
        expected = trial_rng(2**40 + 3, t)
        assert np.array_equal(rng.standard_normal(7), expected.standard_normal(7))
        assert np.array_equal(rng.random(3), expected.random(3))
        assert rng.integers(0, 2**63) == expected.integers(0, 2**63)


def test_secular_blocks_cover_the_range_in_order():
    # 37 draws from U(64) in blocks of 16 matrices, as mc_truncated_moment takes them
    starts = []

    def fill(start, rngs, out):
        starts.append((start, _secular_head(_haar_unitaries(64, rngs), 2).shape))
        out[:] = 1.0

    keyed_estimate(37, 1, 1, _haar_block(64), fill)
    assert starts == [(0, (16, 3)), (16, (16, 3)), (32, (5, 3))]


# --- Monte Carlo moments -----------------------------------------------------


def test_mc_matches_exact_k1():
    est = mc_truncated_moment("unitary", 1, 2, 1.5, N=4, samples=4000, seed=5)
    exact = unitary_truncated_moment_exact(1, 2, 1.5)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_mc_thread_count_does_not_change_stream():
    a = mc_truncated_moment("unitary", 1, 2, 1.5, N=4, samples=600, seed=5, threads=1)
    b = mc_truncated_moment("unitary", 1, 2, 1.5, N=4, samples=600, seed=5, threads=4)
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_mc_bit_identical_to_reference_draws():
    k, L, z, N, samples, seed = 2, 3, 1.5, 8, 200, 5
    zpow = (-z) ** np.arange(L + 1)
    vals = np.array([
        abs(np.dot(_reference_secular(N, trial_rng(seed, i))[: L + 1], zpow)) ** (2 * k)
        for i in range(samples)
    ])
    est = mc_truncated_moment("unitary", k, L, z, N=N, samples=samples, seed=seed)
    assert est.mean == float(np.mean(vals))
    assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(samples))


def test_mc_threads_agree_across_blocks_at_n64():
    # 16 draws per block at N = 64: 7 blocks on one thread, 4 on each of two
    a = mc_truncated_moment("unitary", 1, 8, 1.5, N=64, samples=100, seed=3, threads=1)
    b = mc_truncated_moment("unitary", 1, 8, 1.5, N=64, samples=100, seed=3, threads=2)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_mc_run_time_guard_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="run time"):
            mc_truncated_moment("unitary", 1, 8, 1.5, N=8, samples=2_000_000_000, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_past_float_range_refused(threads):
    # |Lambda_2(10^100)|^8 is about 10^1600; refused without an overflow RuntimeWarning
    with pytest.raises(ResourceLimitError, match="float range"):
        mc_truncated_moment("unitary", 4, 2, 1e100, N=8, samples=100, seed=1, threads=threads)


def test_mc_requires_enough_matrix():
    with pytest.raises(ValueError):
        mc_truncated_moment("unitary", 2, 5, 1.5, N=8, samples=500, seed=1)
    # and a matrix of at most 64 rows
    with pytest.raises(ValueError, match="1..64"):
        mc_truncated_moment("unitary", 1, 5, 1.5, N=65, samples=500, seed=1)


# --- asymptotic reference curves --------------------------------------------


def test_unitary_rhs_k1_closed_form():
    z, L = 1.8, 12
    expected = z ** (2 * L) / (1 - z**-2)
    assert unitary_asymptotic_rhs(1, L, z) == pytest.approx(expected, rel=1e-13)


def test_unitary_ratio_improves_with_L():
    z = SQRT_E
    r10 = unitary_truncated_moment_exact(2, 10, z) / unitary_asymptotic_rhs(2, 10, z)
    r40 = unitary_truncated_moment_exact(2, 40, z) / unitary_asymptotic_rhs(2, 40, z)
    assert r10 == pytest.approx(0.91419, abs=5e-5)
    assert r40 == pytest.approx(0.97854, abs=5e-5)
    assert abs(r40 - 1) < abs(r10 - 1)


def test_unitary_rhs_k5_approached_from_above():
    # defined now that beta(5) is exact; the exact moment over the curve
    # sinks slowly toward 1 at k = 5
    z = SQRT_E
    r8, r10 = (
        unitary_truncated_moment_exact(5, L, z) / unitary_asymptotic_rhs(5, L, z) for L in (8, 10)
    )
    assert r8 == pytest.approx(9.1497, abs=5e-4)
    assert r10 == pytest.approx(5.8585, abs=5e-4)


def test_so_ratio_improves_with_L():
    z = 2.0
    ratios = [
        so_truncated_moment_exact(2, L, z) / so_asymptotic_rhs(2, L, z)
        for L in (8, 12, 16, 20)
    ]
    assert ratios == sorted(ratios)
    assert ratios[0] == pytest.approx(0.82488, abs=5e-5)
    assert ratios[-1] == pytest.approx(0.91519, abs=5e-5)
    assert all(0 < r < 1 for r in ratios)


def test_so_constant_is_leading_coefficient_of_lattice_sum():
    # f(L) = E Lambda_L(z)^4 / |z|^(4L) is a quadratic in L, within each
    # parity class of L, plus a tail that shrinks geometrically in L; its
    # second difference at step 2, over 2^2 2!, is the leading coefficient.
    # Exact at w = |z|^2 = 16 from the integer coefficients (measured gap
    # 4.8e-12 at L = 16..20; the constant without the (1 + y)^-4 term is
    # 12.96% too low)
    w, z = 16, 4.0

    def f(L):
        c = so_truncated_coefficients(2, L)
        return sum(Fraction(c[2 * L - j], w**j) for j in range(2 * L + 1))

    ell = (f(20) - 2 * f(18) + f(16)) / 8
    constant = so_asymptotic_rhs(2, 20, z) / (z ** 80 * 20.0**2)
    assert float(ell) == pytest.approx(constant, rel=1e-11)
