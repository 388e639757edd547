import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments.analytic import (
    AsymptoticTerm,
    agm,
    comparison_constant,
    conjectured_coefficient,
    conjectured_moment,
    cs_bound_minimize,
    hyper_2F1_series,
    rademacher_asymptotic_rhs,
    steinhaus_asymptotic_rhs,
)
from rmfmoments.arith import a_constant, factorize_small
from rmfmoments.exact_counts import steinhaus_energy


# --- asymptotic leading terms ------------------------------------------------


def test_steinhaus_rhs_k2_sigma0_constant():
    term = steinhaus_asymptotic_rhs(2, 0.0, 100.0)
    assert term.constant == pytest.approx(12 / math.pi**2, rel=1e-8)
    assert term.x_exponent == 2.0
    assert term.log_exponent == 1.0
    assert term.value_at(100.0) == pytest.approx(
        12 / math.pi**2 * 1e4 * math.log(100.0), rel=1e-8
    )


def test_steinhaus_rhs_k1_matches_floor_growth():
    # second moment is exactly floor(x); the leading term must be 1 * x
    term = steinhaus_asymptotic_rhs(1, 0.0, 50.0)
    assert term.constant == pytest.approx(1.0, abs=1e-10)
    assert term.x_exponent == 1.0
    assert term.log_exponent == 0.0


def test_steinhaus_rhs_critical_line():
    term = steinhaus_asymptotic_rhs(2, 0.5, 1000.0)
    assert term.constant == pytest.approx(1 / math.pi**2, rel=1e-8)
    assert term.x_exponent == 0.0
    assert term.log_exponent == 4.0


def test_steinhaus_rhs_below_critical_line_matches_energy_slope():
    # 0 < sigma < 1/2: E_2,sigma(x) / x^(2(1 - 2 sigma)) grows like the
    # constant times log x, the constant carrying (1 - 2 sigma)^-3
    term = steinhaus_asymptotic_rhs(2, 0.1, 100.0)
    assert term.x_exponent == pytest.approx(1.6) and term.log_exponent == 1.0
    lo, hi = (steinhaus_energy(2, x, 0.1).value / x**term.x_exponent for x in (10**4, 10**5))
    slope = (hi - lo) / math.log(10.0)
    # measured -1.51e-3 over (1e4, 1e5), -1.2e-4 over (1e5, 1e6)
    assert slope / term.constant - 1.0 == pytest.approx(-1.51e-3, abs=2e-5)


def test_steinhaus_rhs_k5_below_critical_line():
    # beta(5) = 188723/836911595520 is exact, so every sigma < 1/2 has a
    # leading term at k = 5: Gamma(9) / Gamma(5)^2 = 70, and (1/2)^-9
    term = steinhaus_asymptotic_rhs(5, 0.25, 100.0)
    beta = 188723 / 836911595520
    assert term.constant == pytest.approx(a_constant(5).value * beta * 70 * 2**9, rel=1e-12)
    assert term.x_exponent == 2.5 and term.log_exponent == 16.0
    # the critical line needs alpha(5), which stays refused
    with pytest.raises(ValueError, match="alpha_constant"):
        steinhaus_asymptotic_rhs(5, 0.5, 100.0)


def test_rademacher_rhs_k2_constant():
    term = rademacher_asymptotic_rhs(2, 100.0)
    assert term.constant == pytest.approx(0.018731243696945846, rel=1e-8)
    assert term.x_exponent == 2.0
    assert term.log_exponent == 2.0


def test_asymptotic_term_validation():
    with pytest.raises(ValueError):
        AsymptoticTerm(constant=-1.0, x_exponent=1.0, log_exponent=0.0)
    with pytest.raises(ValueError):
        AsymptoticTerm(constant=1.0, x_exponent=1.0, log_exponent=0.0).value_at(2.0)
    with pytest.raises(ValueError):
        steinhaus_asymptotic_rhs(2, 0.7, 100.0)


# --- comparison constants ----------------------------------------------------


def test_comparison_constant_k1():
    assert comparison_constant(1, 0.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)


def test_comparison_constant_critical_line_is_one():
    for k in (1, 2, 3):
        assert comparison_constant(k, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_comparison_constant_k2_frozen():
    assert comparison_constant(2, 0.0) == pytest.approx(0.3693022209783912, rel=1e-12)


# --- hypergeometric series and agm ------------------------------------------


def test_2f1_terminating():
    # a = -1 gives the linear polynomial 1 - (b/c) w
    for b, c, w in ((2.0, 1.0, 0.3), (0.5, 3.0, -0.8)):
        assert hyper_2F1_series(-1.0, b, c, w) == pytest.approx(1 - b / c * w, rel=1e-14)


def test_2f1_geometric_special_case():
    # 2F1(1, b; b; w) = 1/(1-w)
    assert hyper_2F1_series(1.0, 2.0, 2.0, 0.4) == pytest.approx(1 / 0.6, rel=1e-12)


def test_2f1_agm_identity():
    # 2F1(1/2, 1/2; 1; m) = 1 / agm(1, sqrt(1-m))
    m = 1 - math.exp(-1)
    lhs = hyper_2F1_series(0.5, 0.5, 1.0, m)
    rhs = 1.0 / agm(1.0, math.exp(-0.5))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_2f1_rejects_divergent_argument():
    with pytest.raises(ValueError):
        hyper_2F1_series(0.5, 0.5, 1.0, 1.5)
    # c + m = 0 at m = 2, before the a = -3 series would end at m = 3
    with pytest.raises(ValueError):
        hyper_2F1_series(-3.0, 1.0, -2.0, 0.5)


def test_agm_frozen_and_basic():
    assert agm(1.0, math.exp(-0.5)) == pytest.approx(0.7909857639727875, rel=1e-13)
    assert agm(3.0, 3.0) == 3.0
    assert agm(1.0, 4.0) == agm(4.0, 1.0)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100)
def test_agm_between_means(a, b):
    g = agm(a, b)
    assert min(a, b) - 1e-12 <= g <= max(a, b) + 1e-12
    # agm is sandwiched by geometric and arithmetic means
    assert g >= math.sqrt(a * b) - 1e-9 * max(a, b)
    assert g <= (a + b) / 2 + 1e-9 * max(a, b)


# --- conjectured low moments -------------------------------------------------


def test_conjectured_coefficient_k0_is_one():
    assert conjectured_coefficient(0.0, 0.0) == 1.0
    assert conjectured_coefficient(0.0, 0.3) == 1.0


def test_conjectured_coefficient_half_frozen():
    assert conjectured_coefficient(0.5, 0.0) == pytest.approx(0.8767654870944583, abs=1e-9)


def test_conjectured_moment_scales_with_x():
    c = conjectured_coefficient(0.5, 0.0)
    assert conjectured_moment(0.5, 0.0, 100.0) == pytest.approx(c * 10.0, rel=1e-12)


def test_conjectured_coefficient_domain():
    with pytest.raises(ValueError):
        conjectured_coefficient(1.0, 0.0)
    with pytest.raises(ValueError):
        conjectured_coefficient(0.5, 0.5)


# --- two-parameter amplitude bound ------------------------------------------


def test_bound_minimum_digits():
    res = cs_bound_minimize()
    assert res.f_min == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
    assert res.amplitude_bound == pytest.approx((2.0 / 3.0) ** 0.25, abs=1e-3)


def test_bound_minimizer_closed_forms():
    # stationarity gives u^2 - 4u + 1 = 0 and v^2 - 6v + 1 = 0 inside (0,1)
    res = cs_bound_minimize()
    assert res.u_star == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-6)
    assert res.v_star == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-6)


def test_bound_is_local_minimum():
    from rmfmoments.analytic import _bound_objective

    res = cs_bound_minimize()
    f0 = _bound_objective(res.u_star, res.v_star)
    for du, dv in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        assert _bound_objective(res.u_star + du, res.v_star + dv) >= f0 - 1e-12
