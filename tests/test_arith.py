import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmfmoments.arith import (
    EulerProductResult,
    a_constant,
    b_constant,
    dk_prime_power,
    factorize_small,
    primes_up_to,
)
from rmfmoments.arith import _dk_square_series, _prime_zeta, _zeta

ZETA2 = math.pi**2 / 6


def test_primes_up_to_small():
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1).size == 0


def test_factorize_roundtrip():
    for n in (2, 12, 9973, 2**10, 2 * 3 * 5 * 7 * 11):
        fac = factorize_small(n)
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12))
def test_dk_prime_power_integer_k_is_binomial(k, m):
    # for integer k the divisor coefficient is C(k+m-1, m), always an integer
    val = dk_prime_power(float(k), m)
    assert val == pytest.approx(math.comb(k + m - 1, m), abs=1e-9)


def test_dk_prime_power_half():
    assert dk_prime_power(0.5, 0) == 1.0
    assert dk_prime_power(0.5, 1) == pytest.approx(0.5)
    assert dk_prime_power(0.5, 2) == pytest.approx(3 / 8)


# --- Euler products ----------------------------------------------------------


def test_a_constant_k1_exact():
    res = a_constant(1.0)
    assert res.value == 1.0
    assert res.tail_bound == 0.0


def test_a_constant_k2_is_six_over_pi_squared():
    # local factor (1 - 1/p)^4 (1 + 1/p)/(1 - 1/p)^3 = 1 - 1/p^2
    res = a_constant(2.0)
    assert abs(res.value - 6 / math.pi**2) < 1e-12
    assert res.tail_bound <= 1e-8


def test_b_constant_k1_is_six_over_pi_squared():
    res = b_constant(1)
    assert abs(res.value - 6 / math.pi**2) < 1e-12


def test_a_constant_half_frozen():
    # converged digits from an eps=1e-12 run with a 4x larger prime cutoff
    res = a_constant(0.5)
    assert res.value == pytest.approx(0.988359082574724, abs=5e-9)


def test_b_constant_frozen_values():
    assert b_constant(2).value == pytest.approx(0.004682810924236462, rel=1e-8)
    assert b_constant(3).value == pytest.approx(3.780191160082141e-08, rel=1e-7)


def test_b2_against_direct_product_to_ten_million():
    # Independent route: multiply local factors prime by prime up to 1e7
    # with no tail correction at all.  The residual gap is the value times
    # the missing log tail, a few 1e-10 here.
    k = 2
    primes = primes_up_to(10**7).astype(np.float64)
    invp = 1.0 / primes
    s = np.ones_like(primes)
    for i in range(1, k + 1):
        s += math.comb(2 * k, 2 * i) * invp**i
    bigk = k * (2 * k - 1)
    slow = math.exp(math.fsum((bigk * np.log1p(-invp) + np.log(s)).tolist()))
    assert abs(slow - b_constant(2).value) < 2e-9


def test_a3_against_direct_product_to_ten_million():
    # Independent route: the closed-form local factor
    # (1-1/p)^9 sum_m C(m+2,2)^2 p^-m = (1-1/p)^4 (1 + 4/p + 1/p^2), multiplied
    # up to P = 1e7 with no tail correction.  Each missing local log is
    # -9/p^2 + 16/p^3 - ..., negative and above -10/p^2 in size, and by
    # pi(t) <= 1.3 t/log t the p > P sum of p^-2 is at most 2.6/(P log P),
    # so log(direct / a(3)) lies in (0, 26/(P log P)] = (0, 1.62e-7] up to
    # the tail bound of a(3) itself.
    P = 10**7
    primes = primes_up_to(P).astype(np.float64)
    invp = 1.0 / primes
    logs = 4 * np.log1p(-invp) + np.log1p(4 * invp + invp * invp)
    res = a_constant(3.0)
    gap = math.fsum(logs.tolist()) - math.log(res.value)
    assert -res.tail_bound < gap <= 26 / (P * math.log(P)) + res.tail_bound


def test_dk_square_series_k2_closed_form():
    # d_2(p^m) = m + 1 and sum (m+1)^2 y^m = (1+y)/(1-y)^3
    y = 1.0 / primes_up_to(10**5).astype(np.float64)
    s, tail = _dk_square_series(2, y, 1e-13)
    exact = (1 + y) / (1 - y) ** 3
    assert np.all(tail <= 1e-13 * s)
    assert np.all(np.abs(s - exact) <= tail + 1e-14 * exact)


def test_dk_square_series_half_against_dk_prime_power():
    # partial sums to m = 60 of the lgamma-based coefficients; the terms
    # left out are below 2^-60 relative at y = 1/2
    y = 1.0 / primes_up_to(10**5).astype(np.float64)
    s, tail = _dk_square_series(0.5, y, 1e-13)
    ref = sum(dk_prime_power(0.5, m) ** 2 * y**m for m in range(61))
    assert np.all(tail <= 1e-13 * s)
    np.testing.assert_allclose(s, ref, rtol=1e-13)
    # a scalar y (as in the radius search) gives the same numbers
    assert float(_dk_square_series(0.5, 0.5, 1e-13)[0]) == s[0]


@pytest.mark.parametrize("k", [0.5, 1.5, 2.0, 3.0])
def test_a_constant_tail_bound_is_honest(k):
    loose = a_constant(k, eps=1e-4)
    tight = a_constant(k, eps=1e-10)
    assert abs(math.log(loose.value) - math.log(tight.value)) <= (
        loose.tail_bound + tight.tail_bound
    )


def test_b_constant_cross_eps():
    loose = b_constant(2, eps=1e-4)
    tight = b_constant(2, eps=1e-10)
    assert abs(math.log(loose.value) - math.log(tight.value)) <= (
        loose.tail_bound + tight.tail_bound
    )


def test_a_constant_positive_and_decreasing_in_k():
    vals = [a_constant(k).value for k in (0.5, 1.0, 2.0, 3.0)]
    assert all(v > 0 for v in vals)
    # the product shrinks fast once k passes 1
    assert vals[1] > vals[2] > vals[3]


def test_a_constant_rejects_bad_input():
    with pytest.raises(ValueError):
        a_constant(0.0)
    with pytest.raises(ValueError):
        a_constant(2.0, eps=0.5)
    with pytest.raises(ValueError):
        b_constant(0)


def test_result_type():
    res = a_constant(2.0)
    assert isinstance(res, EulerProductResult)
    assert res.truncation_prime >= 2


# --- zeta helpers -----------------------------------------------------------


def test_zeta_two():
    assert _zeta(2.0) == pytest.approx(ZETA2, rel=1e-13)


def test_prime_zeta_two():
    # sum p^-2 over all primes
    assert _prime_zeta(2.0) == pytest.approx(0.45224742004106549, rel=1e-10)
    direct = float(np.sum(1.0 / primes_up_to(10**6).astype(np.float64) ** 2))
    assert abs(_prime_zeta(2.0) - direct) < 1e-6
