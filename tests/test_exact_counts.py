import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments.arith import primes_up_to
from rmfmoments.errors import ResourceLimitError
from rmfmoments.exact_counts import (
    _TOTIENT_STEP_GUARD,
    _check_coprime_pair_guards,
    _energy_k2_coprime_pairs,
    _energy_k2_sigma0,
    _energy_map,
    _mobius_table,
    _totient_cutoff,
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


def test_energy_k2_weighted_pinned():
    # the coprime-pair identity's float, 1.2e-15 under the map route's
    assert steinhaus_energy(2, 2000, 0.25).value == 90433.95591424943


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
def test_coprime_pair_identity_agrees_with_map_route(sigma):
    # the largest gap over this grid and the three sigmas reads 1.3e-15
    # relative; at x = 43386, where the map route takes 160-171 s, 4.0e-16,
    # 1.0e-15 and 1.6e-15 at sigma = 0.1, 1/4 and 1/2
    for x in [*range(1, 201), 1999, 3000]:
        assert _energy_k2_coprime_pairs(x, sigma) == pytest.approx(_energy_map(2, x, sigma), rel=2e-15)


def test_coprime_pair_identity_at_sigma0_is_the_totient_count():
    # at s = 0 every table holds small integers, so the float is exact
    for x in range(1, 3001):
        assert _energy_k2_coprime_pairs(x, 0.0) == _energy_k2_sigma0(x)


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


def test_coprime_pair_guards_admit_past_1e7():
    _check_coprime_pair_guards(10**7)
    _check_coprime_pair_guards(19593391)
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        _check_coprime_pair_guards(19593392)


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
    # sieves only to sqrt(x) and divides out the one large prime cofactor
    phi = np.arange(x + 1, dtype=np.int64)
    for p in primes_up_to(x).tolist():
        phi[p::p] -= phi[p::p] // p
    assert np.array_equal(_totient_table(x), phi)


def test_energy_k2_int64_sums_bounded_at_guard():
    # the recursion's int64 partial sums stay under 2 x (y + 1) for the
    # largest x the guard on run time admits
    x = int(_TOTIENT_STEP_GUARD**1.5)
    y = _totient_cutoff(x)
    assert 2 * x * (y + 1) < 2**63
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        _totient_cutoff(x + x // 1000)


def test_energy_k2_fast_path_agrees_with_map_path():
    # the unweighted k = 2 energy always takes the summatory-totient block
    # sum; the generic product map is the independent route
    for x in [*range(1, 201), 1999, 3000]:
        mm = product_multiplicity_map(2, x)
        direct = sum(int(c) * int(c) for c in mm.counts.tolist())
        assert steinhaus_energy(2, x).value == direct


def test_energy_k2_large_frozen():
    assert steinhaus_energy(2, 10**4).value == 1069018560


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
    # (k-1) q^2 = 1.99e8 array operations, past the guard, refused before the loop
    with pytest.raises(ResourceLimitError, match="guard on run time"):
        congruence_count(3, 9973, 100)


def test_char_average_reports_a_refused_side_count_as_minus_one():
    # the side count is refused on its array operations, the average is not
    with pytest.raises(ResourceLimitError, match="array operations"):
        congruence_count(3, 9973, 1000)
    res = char_moment_average(3, 9973, 1000)
    assert res.congruence_count == -1
    # the Kronecker average, matched by the independent float FFT route
    assert res.avg_all == 100291873071080
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
