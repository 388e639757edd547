"""Acceptance gate: every numbered criterion must hold at its stated tolerance.

Each test runs one criterion through the same machinery the ``verify``
subcommand uses and prints the one-line verdict, so a verbose pytest run
doubles as the acceptance report.  Three extra tests at the bottom pin
literal tabulated readings that the computed values contradict; they are
marked strict-xfail on purpose, see the criterion flags for the story.
"""

import math

import numpy as np
import pytest

from rmfmoments.acceptance import _secular_draws, criterion_09, run_criterion
from rmfmoments.estimates import DEFAULT_SEED, trial_rngs
from rmfmoments.rmt import (
    _haar_unitaries,
    _secular_head,
    mc_truncated_moment,
    unitary_truncated_moment_exact,
)


def check(number):
    res = run_criterion(number)
    line = f"criterion {number:02d} {'PASS' if res.passed else 'FAIL'} ({res.seconds:.2f}s) {res.title}: {res.detail}"
    print(line)
    for flag in res.flags:
        print(f"  flag: {flag}")
    assert res.passed, line
    return res


def test_criterion_01_euler_products():
    res = check(1)
    assert res.seconds < 10


def test_criterion_02_volume_constants():
    res = check(2)
    assert res.seconds < 120


def test_criterion_03_exact_energy():
    check(3)


def test_criterion_04_energy_trend():
    res = check(4)
    assert res.seconds < 300


def test_criterion_05_sign_routes():
    check(5)


def test_criterion_06_character_averages():
    check(6)


def test_criterion_07_matrix_dp_anchors():
    check(7)


def test_criterion_08_contour_routes():
    check(8)


def test_criterion_09_haar_sampling():
    res = check(9)
    assert res.seconds < 120


@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED])
def test_criterion_09_one_pass_equals_two_passes(seed):
    # c_1 from an L = 1 pass and the estimate of a second, L = 3 pass over
    # the same draws: the one L = 3 pass must give both bit for bit
    n = 10_000
    c1 = np.concatenate(
        [
            _secular_head(_haar_unitaries(8, trial_rngs(seed, lo, min(lo + 1024, n))), 1)[:, 1]
            for lo in range(0, n, 1024)
        ]
    )
    est = mc_truncated_moment("unitary", 2, 3, 1.5, N=8, samples=n, seed=seed)
    one_c1, one_est = _secular_draws(seed)
    assert np.array_equal(one_c1, c1) and one_est == est
    m2, m4 = np.abs(c1) ** 2, np.abs(c1) ** 4
    se2 = m2.std(ddof=1) / math.sqrt(n)
    se4 = m4.std(ddof=1) / math.sqrt(n)
    exact = unitary_truncated_moment_exact(2, 3, 1.5)
    detail = (
        f"E|c1|^2 = {m2.mean():.4f} (se {se2:.4f}); E|c1|^4 = {m4.mean():.4f} (se {se4:.4f}); "
        f"DP {exact:.4f} vs MC {est.mean:.4f} (se {est.stderr:.4f})"
    )
    assert criterion_09(seed).detail == detail


def test_criterion_10_unitary_trend():
    check(10)


def test_criterion_11_simulation_moments():
    check(11)


def test_criterion_12_first_moment_table():
    check(12)


def test_criterion_13_amplitude_bound():
    check(13)


def test_criterion_14_count_vs_matrix_model():
    check(14)


# --- literal tabulated readings the computed values contradict ---------------


@pytest.mark.xfail(
    reason="half-integer Euler product: the five-digit table entry 0.98849 "
    "disagrees with the converged product 0.98836 by 1.3e-4",
    strict=True,
)
def test_tabulated_half_integer_product_digits():
    from rmfmoments.arith import a_constant

    assert abs(a_constant(0.5).value - 0.98849) <= 5e-5


@pytest.mark.xfail(
    reason="quarter-power reference: (e/(e-1))^(1/4) is 1.12150, the "
    "tabulated 1.21250 transposes the leading digits",
    strict=True,
)
def test_tabulated_quarter_power_digits():
    value = (math.e / (math.e - 1)) ** 0.25
    assert abs(value - 1.21250) <= 1e-5


@pytest.mark.xfail(
    reason="fourth-moment trend: the stated comparison constant 6/pi^2 is "
    "half the pipeline value 12/pi^2; against 6/pi^2 the x=1e4 ratio "
    "sits near 1.9 and the stated band fails",
    strict=True,
)
def test_fourth_moment_band_with_halved_constant():
    from rmfmoments.exact_counts import steinhaus_energy

    x = 10**4
    ratio = steinhaus_energy(2, x).value / (6 / math.pi**2 * x**2 * math.log(x))
    assert 0.7 <= ratio <= 1.4
