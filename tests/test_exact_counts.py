import itertools
import math
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments.arith import primes_up_to
from rmfmoments.errors import ResourceLimitError
from rmfmoments.exact_counts import (
    _K2_STEP_GUARD,
    _energy_map,
    _k2_cutoff,
    _mobius_table,
    _totient_table,
    _walsh_hadamard,
    char_moment_average,
    congruence_count,
    product_multiplicity_map,
    rademacher_moment_sign_enum,
    rademacher_moment_tuple_count,
    steinhaus_energy,
)


def brute_energy(k, x, sigma=0.0):
    """Count 2k-tuples with equal half-products, weighting by n^(-2 sigma)."""
    counts = {}
    for tup in product(range(1, x + 1), repeat=k):
        n = math.prod(tup)
        counts[n] = counts.get(n, 0) + 1
    if sigma == 0.0:
        return sum(c * c for c in counts.values())
    return math.fsum(n ** (-2.0 * sigma) * c * c for n, c in counts.items())


# --- multiplicity map --------------------------------------------------------


def _group_sum(vals, cnts):
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    c = cnts[order]
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    return v[starts], np.add.reduceat(c, starts)


def argsort_map(k, x):
    """The sort-based map: multiply out every product, argsort and group."""
    vals = np.arange(1, x + 1, dtype=np.int64)
    cnts = np.ones(x, dtype=np.int64)
    mult = np.arange(1, x + 1, dtype=np.int64)
    for _ in range(k - 1):
        block = max(1, int(8_000_000 // max(1, len(vals))))
        pieces_v = []
        pieces_c = []
        pending = 0
        for lo in range(0, x, block):
            m = mult[lo : lo + block]
            pv = (vals[:, None] * m[None, :]).ravel()
            pc = np.broadcast_to(cnts[:, None], (len(cnts), len(m))).ravel()
            pieces_v.append(pv)
            pieces_c.append(pc.copy())
            pending += len(pv)
            if pending > 24_000_000:
                gv, gc = _group_sum(np.concatenate(pieces_v), np.concatenate(pieces_c))
                pieces_v, pieces_c, pending = [gv], [gc], len(gv)
        vals, cnts = _group_sum(np.concatenate(pieces_v), np.concatenate(pieces_c))
    return vals, cnts


@pytest.mark.parametrize("k, x", [(2, 1025), (3, 102), (4, 33), (3, 300)])
def test_map_equals_argsort_route(k, x):
    # products up to x^k span several 2^20-wide scatter windows here, so
    # slices cross window edges
    mm = product_multiplicity_map(k, x)
    vals, cnts = argsort_map(k, x)
    assert mm.values.dtype == vals.dtype and mm.counts.dtype == cnts.dtype
    assert np.array_equal(mm.values, vals)
    assert np.array_equal(mm.counts, cnts)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_map_totals_and_extremes(k, x):
    mm = product_multiplicity_map(k, x)
    assert mm.total_tuples == x**k
    assert mm.count(1) == 1
    # the largest product is hit exactly once
    assert mm.count(x**k) == 1
    assert mm.count(x**k + 1) == 0


def test_map_values_sorted_strictly():
    mm = product_multiplicity_map(3, 9)
    vals = mm.values.tolist()
    assert vals == sorted(set(vals))


# --- Steinhaus energy --------------------------------------------------------


def test_energy_k1_is_floor_x():
    for x in (1, 2, 17, 999, 1000):
        assert steinhaus_energy(1, x).value == x
    assert steinhaus_energy(1, 7.9).value == 7


def test_energy_anchor_values():
    assert steinhaus_energy(2, 2).value == 6
    assert steinhaus_energy(2, 3).value == 15


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x", [2, 4, 6])
def test_energy_matches_brute_force(k, x):
    assert steinhaus_energy(k, x).value == brute_energy(k, x)


def test_energy_weighted_matches_brute_force():
    got = steinhaus_energy(2, 5, sigma=0.25).value
    assert got == pytest.approx(brute_energy(2, 5, 0.25), rel=1e-12)


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
def test_coprime_pair_identity_matches_brute_force(sigma):
    for x in range(1, 7):
        got = steinhaus_energy(2, x, sigma).value
        assert got == pytest.approx(brute_energy(2, x, sigma), rel=1e-15)


def test_energy_weighted_bit_identical():
    # fsum over the same 2^20-product chunks as the sort-based map, so the
    # float is pinned to the last bit
    assert _energy_map(2, 2000, 0.25) == 90433.95591424954


def _energy_k2_coprime_pairs(x, sigma):
    """E_2,sigma(x) = sum_{M<=x} w_s(M) H_s(floor(x/M))^2, s = 2 sigma, over float tables to x.

    The O(x) reference route: H_s, mu(d) d^-s and phi_s(M) =
    sum_{d|M} mu(d) d^-s H_s(M/d) as float tables over 0..x, phi_s filled
    by O(sqrt x) strided updates, and every term w_s(M) H_s(floor(x/M))^2
    summed by one fsum over 2^20-term chunks.
    """
    s = 2.0 * sigma
    mu = _mobius_table(x)
    coef = np.arange(x + 1, dtype=np.float64)
    np.power(coef, -s, out=coef, where=coef > 0)
    h = np.cumsum(coef)  # h[y] = H_s(y); coef[0] = 0
    coef *= mu  # coef[d] = mu(d) d^-s
    phi = h.copy()  # the d = 1 term
    top = max(1, x // (math.isqrt(x) + 1))
    for d in (np.flatnonzero(coef[2 : top + 1]) + 2).tolist():
        phi[d::d] += coef[d] * h[1 : x // d + 1]
    phi[top + 1 :] += coef[top + 1 :]  # i = 1, where H_s(1) = 1
    for i in range(2, x // (top + 1) + 1):
        phi[(top + 1) * i : x + 1 : i] += coef[top + 1 : x // i + 1] * h[i]

    def chunks():
        for lo in range(1, x + 1, 1 << 20):
            m = np.arange(lo, min(lo + (1 << 20), x + 1))
            t = 2.0 * m.astype(np.float64) ** -s * phi[lo : lo + len(m)] * h[x // m] ** 2
            if lo == 1:
                t[0] = h[x] ** 2  # w_s(1) = 1
            yield t.tolist()

    return math.fsum(itertools.chain.from_iterable(chunks()))


def test_energy_k2_weighted_pinned():
    # the O(x) reference route's float, 1.2e-15 under the map route's
    assert _energy_k2_coprime_pairs(2000, 0.25) == 90433.95591424943


def test_energy_k2_merged_route_pinned():
    # the sublinear route's float, 2.2e-16 above the reference's
    assert steinhaus_energy(2, 2000, 0.25).value == 90433.95591424945


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
def test_coprime_pair_identity_agrees_with_map_route(sigma):
    # the largest gap over this grid and the three sigmas reads 1.3e-15
    # relative; at x = 43386, where the map route takes 160-171 s, 4.0e-16,
    # 1.0e-15 and 1.6e-15 at sigma = 0.1, 1/4 and 1/2
    for x in [*range(1, 201), 1999, 3000]:
        assert _energy_k2_coprime_pairs(x, sigma) == pytest.approx(_energy_map(2, x, sigma), rel=2e-15)


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
def test_energy_k2_agrees_with_reference_route(sigma):
    # the sublinear recursion against the O(x) tables: the largest gaps read
    # 8.2e-15, 8.6e-16 and 4.1e-15 at sigma = 0.1, 1/4 and 1/2 (all at 10^6,
    # where a long double copy of the reference puts most of the gap on the
    # reference's side), and 3.7e-14, 4.9e-14 and 1.9e-14 at x = 10^7
    for x in [*range(1, 201), 1999, 3000, 43386, 10**5, 10**6]:
        reference = _energy_k2_coprime_pairs(x, sigma)
        assert steinhaus_energy(2, x, sigma).value == pytest.approx(reference, rel=1e-13), x


def _energy_k2_decimal(x, sigma):
    """The coprime-pair identity in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        s = Decimal(2 * sigma)
        power = [Decimal(0)] + [(-s * Decimal(n).ln()).exp() for n in range(1, x + 1)]
        h = list(itertools.accumulate(power))
        phi = [Decimal(0)] * (x + 1)
        for d, mu in enumerate(_mobius_table(x).tolist()):
            for i in range(1, x // d + 1) if mu else ():
                phi[d * i] += mu * power[d] * h[i]
        return h[x] ** 2 + sum(2 * power[m] * phi[m] * h[x // m] ** 2 for m in range(2, x + 1))


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
def test_energy_k2_within_rounding_of_decimal(sigma):
    # measured worst relative gaps over these x and sigmas: the map route
    # 1.0e-16, this route 9.2e-16, the O(x) reference 1.2e-15
    for x in (10, 100, 1000, 1999, 3000):
        exact = _energy_k2_decimal(x, sigma)
        got = steinhaus_energy(2, x, sigma).value
        assert abs(Decimal(got) - exact) <= Decimal("2e-15") * exact, x


def test_coprime_pair_identity_at_sigma0_is_the_totient_count():
    # at s = 0 every table holds small integers, so the float is exact
    for x in range(1, 3001):
        assert _energy_k2_coprime_pairs(x, 0.0) == steinhaus_energy(2, x).value


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 9, 30, 97, 1000, 12345])
def test_mobius_table_equals_factorization(x):
    def mu(n):
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign
    assert _mobius_table(x).tolist() == [0] + [mu(n) for n in range(1, x + 1)]


def test_weighted_k2_energy_admitted_past_1e10():
    # every sigma shares the run-time guard of the recursion, x <= 1.64e11
    assert steinhaus_energy(2, 10**10, 0.25).value == pytest.approx(1934420180239.0347, rel=1e-13)


def test_energy_k3_streams_in_bounded_memory():
    # the k = 3 energy holds the 2-level map and one window, never the
    # 3-level map (the sort-based route peaked at 464 MiB here)
    tracemalloc.start()
    try:
        value = steinhaus_energy(3, 300).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 3447094320
    assert peak < 32 << 20


def test_energy_monotone_in_x():
    prev = 0
    for x in range(1, 30):
        cur = steinhaus_energy(2, x).value
        assert cur > prev
        prev = cur


@pytest.mark.parametrize("x", [1, 2, 3, 10, 137, 1999, 3000, 10**5, 10**6])
def test_energy_k2_equals_full_totient_sum(x):
    # the block sum over the summatory totient against the full sum
    # sum_m (2 phi(m) - [m=1]) floor(x/m)^2 over one totient table to x
    m = np.arange(1, x + 1, dtype=np.int64)
    weights = 2 * _totient_table(x)[1:]
    weights[0] -= 1
    floors = x // m
    assert steinhaus_energy(2, x).value == int(np.dot(weights, floors * floors))


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 9, 25, 97, 1000, 12345, 2 * 10**6])
def test_totient_table_equals_per_prime_sieve(x):
    # every prime <= x with its two strided slices, against the table that
    # arith builds by the spf recurrence phi(n) = phi(n / p) (p - 1), or
    # phi(n / p) p where p = spf(n) divides n / p
    phi = np.arange(x + 1, dtype=np.int64)
    for p in primes_up_to(x).tolist():
        phi[p::p] -= phi[p::p] // p
    assert np.array_equal(_totient_table(x), phi)


def test_energy_k2_int64_sums_bounded_at_guard():
    # the recursion's int64 partial sums over W_0 = 2 Phi - 1 stay under
    # 4 x (y + 1) for the largest x the guard on run time admits
    x = int(_K2_STEP_GUARD**1.5)
    y = _k2_cutoff(x)
    assert 4 * x * (y + 1) < 2**63
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        _k2_cutoff(x + x // 1000)


def test_energy_k2_fast_path_agrees_with_map_path():
    # the unweighted k = 2 energy always takes the summatory-totient block
    # sum; the generic product map is the independent route
    for x in [*range(1, 201), 1999, 3000]:
        mm = product_multiplicity_map(2, x)
        direct = sum(int(c) * int(c) for c in mm.counts.tolist())
        assert steinhaus_energy(2, x).value == direct


def test_energy_k2_large_frozen():
    assert steinhaus_energy(2, 10**4).value == 1069018560
    assert steinhaus_energy(2, 10**9).value == 24685153044267660208


def test_energy_floor_semantics():
    assert steinhaus_energy(2, 7.9).value == steinhaus_energy(2, 7).value


@pytest.mark.parametrize(
    "k, x, sigma",
    [
        (2, 10**12, 0.0),  # summatory-totient path: ~x^(2/3) = 10^8 steps
        (1, 10**9, 0.25),  # weighted k = 1 path: a 10^9-term Python fsum
        (3, 10**4, 0.0),  # scatter path: a 2-level map of up to 5e7 entries
    ],
)
def test_energy_guards_refuse_before_allocating(k, x, sigma):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="guard on (memory|run time)"):
            steinhaus_energy(k, x, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_energy_rejects_bad_input():
    with pytest.raises(ValueError):
        steinhaus_energy(0, 10)
    with pytest.raises(ValueError):
        steinhaus_energy(2, 10, sigma=0.6)
    with pytest.raises(ValueError):
        steinhaus_energy(2, 0.5)


# --- Rademacher moments ------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x", [2, 5, 11, 20])
def test_sign_enum_equals_tuple_count(k, x):
    assert rademacher_moment_sign_enum(k, x) == rademacher_moment_tuple_count(k, x)


def test_rademacher_anchor_values():
    assert rademacher_moment_tuple_count(2, 3) == 21
    assert rademacher_moment_sign_enum(2, 3) == 21
    assert rademacher_moment_tuple_count(2, 30) == 1933


def test_rademacher_frozen_large():
    assert rademacher_moment_tuple_count(2, 500) == 870432
    assert rademacher_moment_tuple_count(2, 1000) == 3785648


def test_rademacher_k1_counts_squarefull_free_pairs():
    # 2nd moment: pairs (m, n) of squarefree m, n <= x with mn a square,
    # which forces m = n
    for x in (1, 4, 10, 30):
        expected = sum(
            1 for n in range(1, x + 1) if all(n % (p * p) for p in range(2, int(n**0.5) + 1))
        )
        assert rademacher_moment_tuple_count(1, x) == expected


def test_sign_enum_large_primes_equal_tuple_count_to_120():
    # the primes above x/2 enter in closed form
    for x in range(1, 121):
        assert rademacher_moment_sign_enum(2, x) == rademacher_moment_tuple_count(2, x), x


@pytest.mark.parametrize(
    "k, x", [(2, 150), (2, 178), (2, 193)] + [(k, x) for k in (1, 3) for x in (40, 79, 96)]
)
def test_sign_enum_large_primes_equal_tuple_count(k, x):
    # x = 178 and 193 fill the largest Walsh table, 2^24 int8 cells, where
    # S_small reaches 92 and 98
    assert rademacher_moment_sign_enum(k, x) == rademacher_moment_tuple_count(k, x)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 256])
def test_walsh_hadamard_equals_hadamard_matrix(n):
    # the levels run out of order, the low ones on a transpose: the
    # transform must still be H_n a in the original cell order
    a = np.random.default_rng(n).integers(-5, 6, n)
    hadamard = np.ones((1, 1), dtype=np.int64)
    while len(hadamard) < n:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    assert np.array_equal(_walsh_hadamard(a.copy()), hadamard @ a)


def test_sign_enum_guard():
    # the Walsh table has 2^pi(x/2) cells; pi(97) = 25 passes the 2^24-cell
    # guard, refused before the table, the masks or a large prime sieve is built
    for x in (194, 200, 10**8):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="guard on memory"):
                rademacher_moment_sign_enum(2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# --- character averages ------------------------------------------------------


def _congruence_count_reference(k, q, x):
    """The dense residue route: scatter every level entry times the counts, (k-1) q^2 array ops."""
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


# the reference's (k-1) q^2 array operations, kept to ~0.1 s a call
_REFERENCE_OPS = 3 * 10**6


@pytest.mark.parametrize(
    "k, q",
    [
        (k, q)
        for q in (2, 3, 5, 7, 11, 101, 1009)
        for k in (1, 2, 3, 4)
        if (k - 1) * q * q <= _REFERENCE_OPS
    ],
)
def test_congruence_count_equals_dense_reference(k, q):
    # rest = x mod q at 0, 1, (q-1)/2, (q+1)/2, q-2 and q-1 runs the direct
    # and the complement form on each side of their switch, at x < q too
    rests = {0, 1, (q - 1) // 2, (q + 1) // 2, q - 2, q - 1}
    for x in sorted({full * q + r for r in rests for full in (0, 1, 2)} - {0}):
        got, want = congruence_count(k, q, x), _congruence_count_reference(k, q, x)
        assert got == want and type(got) is type(want) is int, (k, q, x)


@pytest.mark.parametrize(
    "k, q, x",
    [
        # past the int64 cut, at rest 1 (the direct form) and 7 (the complement)
        (3, 11, 2_100_000),
        (3, 11, 2_100_006),
        # here a level entry itself passes 2^63, in the direct and the complement form
        (2, 3, 10**10),
        (2, 2, 10**10 + 1),
    ],
)
def test_congruence_count_equals_dense_reference_on_object_arrays(k, q, x):
    assert x**k >= 2**63
    got, want = congruence_count(k, q, x), _congruence_count_reference(k, q, x)
    assert got == want and type(got) is type(want) is int


@pytest.mark.parametrize("q", [5, 11, 101])
@pytest.mark.parametrize("k", [1, 2])
def test_char_average_equals_congruence_count(q, k):
    # x = q - 1, q, q + 1 straddle the first full period of residues
    for x in (min(10, int(math.isqrt(q)) + 2), q - 1, q, q + 1):
        res = char_moment_average(k, q, x)
        assert res.avg_all == Fraction(congruence_count(k, q, x))
        assert res.float_error < 1e-6
        if k == 1:
            residues = Counter(n % q for n in range(1, x + 1) if n % q)
            assert res.avg_all == sum(c * c for c in residues.values())


def test_char_average_large_x_in_constant_memory():
    # the residue histogram is a closed form in x, so x = 10^9 costs O(q)
    tracemalloc.start()
    try:
        results = [char_moment_average(k, 11, 10**9) for k in (1, 2)]
        counts = [congruence_count(k, 11, 10**9) for k in (1, 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for res, count in zip(results, counts):
        assert res.avg_all == res.congruence_count == count
    # every nonzero residue class mod 11 holds 90909091 of the n <= 10^9
    assert results[0].avg_all == 10 * 90909091**2
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "k, q, x, expected",
    [
        # past 2^53 the float FFT total rounds to ...984 here
        (3, 2003, 2000, 31968031968031988),
        # here the float FFT average is 48600 away from the count
        (4, 1009, 1000, 992063492063492226520),
    ],
)
def test_char_average_exact_past_float_precision(k, q, x, expected):
    res = char_moment_average(k, q, x)
    assert res.avg_all == expected == res.congruence_count
    assert res.float_error == abs(Fraction(res.avg_all_float) - expected)


def test_char_average_power_guard():
    # the k = 3 power of the packed histogram for q ~ 10^5 has ~1.8e7 bits
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        char_moment_average(3, 104729, 104729)


def test_congruence_count_past_old_integer_range():
    # x^k = 8e18 < 2^63 runs in int64; 9.26e18 passes 2^63 and falls back
    # to object arrays.  Both costs are O(k q^2) whatever x is.
    for x in (2_000_000, 2_100_000):
        assert congruence_count(3, 11, x) == char_moment_average(3, 11, x).avg_all


def test_congruence_count_run_time_guard():
    # (k-1) q (min(rest, q-1-rest) + 1) = 1.49e8 gathered cells at rest ~ q/2,
    # past the guard, refused before the loop
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        congruence_count(4, 9973, 4986)
    # rest = 1000 gathers 2.0e7 cells, admitted, equal to the Kronecker average
    assert congruence_count(3, 9973, 1000) == 100291873071080


def test_char_average_reports_a_refused_side_count_as_minus_one():
    # the side count is refused on its gathered cells, the average is not
    with pytest.raises(ResourceLimitError, match="gathered cells"):
        congruence_count(4, 9973, 4986)
    res = char_moment_average(4, 9973, 4986)
    assert res.congruence_count == -1
    # the Kronecker average, matched by the independent float FFT route; the
    # count with its guard lifted gives the same integer
    assert res.avg_all == 38303276323914835552353640
    assert res.float_error < 1e-9 * res.avg_all


def test_char_average_frozen():
    res = char_moment_average(2, 101, 10)
    assert res.avg_all == 278
    assert congruence_count(2, 101, 10) == 278


def test_char_average_nonprincipal_consistency():
    # phi * avg_all = principal term + (phi - 1) * avg_nonprincipal
    res = char_moment_average(2, 11, 3)
    phi = 10
    principal = sum(1 for n in range(1, 4) if n % 11)  # all of 1..3
    lhs = res.avg_all * phi
    rhs = principal ** (2 * 2) + (phi - 1) * res.avg_nonprincipal
    assert lhs == rhs


def test_congruence_count_small_brute():
    # direct walk over residue tuples for a tiny case
    q, k, x = 7, 2, 3
    total = 0
    for tup in product(range(1, x + 1), repeat=2 * k):
        lhs = tup[0] * tup[1] % q
        rhs = tup[2] * tup[3] % q
        if lhs == rhs:
            total += 1
    assert congruence_count(k, q, x) == total


def test_char_average_requires_prime_modulus():
    with pytest.raises(ValueError):
        char_moment_average(2, 12, 3)
