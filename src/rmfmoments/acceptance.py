"""The package's acceptance table: fourteen numbered checks, one verdict each.

Every numbered criterion below is the repository's contract for a piece
of the pipeline: exact identities are checked exactly, tabulated
constants within their stated tolerances, Monte Carlo quantities within
three standard errors, and asymptotic trends by ratio improvement.

Two of the tabulated reference digits disagree with what the pipeline
provably computes (a half-integer arithmetic factor and a transposed
quarter-power constant). Those checks follow the documented policy for
unreliable tabulated digits: the discrepancy is reported as a flag on an
otherwise passing criterion instead of a hard failure, and the evidence
for each call is spelled out in the flag text.  Companion tests in the
suite record the literal readings as expected failures so any drift is
loud.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analytic import (
    agm,
    comparison_constant,
    conjectured_coefficient,
    cs_bound_minimize,
    steinhaus_asymptotic_rhs,
)
from .arith import a_constant, b_constant
from .estimates import DEFAULT_SEED, MomentEstimate, keyed_estimate
from .exact_counts import (
    char_moment_average,
    congruence_count,
    rademacher_moment_sign_enum,
    rademacher_moment_tuple_count,
    steinhaus_energy,
)
from .polytopes import (
    beta_constant,
    beta_mixed,
    birkhoff,
    ehrhart_polynomial,
    gamma_constant,
    lattice_count,
)
from .rmt import (
    _abs_powers,
    _haar_block,
    _haar_unitaries,
    _secular_head,
    so_truncated_coefficients,
    unitary_asymptotic_rhs,
    unitary_truncated_coefficients,
    unitary_truncated_moment_exact,
    I1_two_ways,
)
from .simulate import estimate_abs_moment, helson_table

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    flags: tuple[str, ...] = field(default=())


def _finish(number, title, passed, detail, t0, flags=(), limit=None):
    seconds = time.perf_counter() - t0
    if limit is not None and seconds > limit:
        passed = False
        detail += f"; runtime {seconds:.1f}s exceeded the {limit:.0f}s budget"
    return CriterionResult(
        number=number,
        title=title,
        passed=passed,
        detail=detail,
        seconds=seconds,
        flags=tuple(flags),
    )


def criterion_01(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    flags = []
    a1 = a_constant(1).value
    a2 = a_constant(2).value
    b1 = b_constant(1).value
    ah = a_constant(0.5).value
    six_over_pi2 = 6.0 / math.pi**2
    ok = (
        abs(a1 - 1.0) < 1e-10
        and abs(a2 - six_over_pi2) < 1e-8
        and abs(b1 - six_over_pi2) < 1e-8
    )
    dh = abs(ah - 0.98849)
    if dh > 5e-5:
        flags.append(
            f"a(1/2) = {ah:.12f} sits {dh:.2e} from the tabulated 0.98849; "
            "two independent evaluation routes agree on the computed value, so "
            "per the documented policy the tabulated digits are flagged as "
            "unreliable rather than failed"
        )
    detail = f"a(1)={a1:.12f} a(2)={a2:.12f} b(1)={b1:.12f} a(1/2)={ah:.12f}"
    return _finish(1, "arithmetic-factor constants", ok, detail, t0, flags, limit=10.0)


def criterion_02(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    ok = beta_constant(1) == Fraction(1)
    checks.append(f"beta(1)={beta_constant(1)}")
    for k in (2, 3):
        pa = ehrhart_polynomial(birkhoff(k))
        pb = ehrhart_polynomial(beta_mixed(k))
        same = pa.coefficients == pb.coefficients
        ok = ok and same
        d = pa.degree
        oos = all(
            pa(t) == lattice_count(birkhoff(k), t)
            and pb(t) == lattice_count(beta_mixed(k), t)
            for t in range(d + 1, d + 4)
        )
        ok = ok and oos
        checks.append(f"beta({k})={pa.leading_coefficient} routes_agree={same} oos={oos}")
    # beta(4) and gamma(3) rest on the reciprocity fit's own three
    # out-of-sample checks; gamma(3)'s fit takes the degree table at t >= 0
    # and the odd-degree capped DP at t < 0, so the pin checks both kernels
    pa = ehrhart_polynomial(birkhoff(4))
    same = pa.coefficients == ehrhart_polynomial(beta_mixed(4)).coefficients
    pinned = pa.leading_coefficient == Fraction(11, 11340)
    ok = ok and same and pinned
    checks.append(f"beta(4)={pa.leading_coefficient} routes_agree={same} pinned={pinned}")
    gamma = gamma_constant(3)
    pinned = gamma == Fraction(19, 241920)
    ok = ok and pinned
    checks.append(f"gamma(3)={gamma} kernels=degree_table+capped_dp pinned={pinned}")
    return _finish(2, "polytope constants, dual routes", ok, "; ".join(checks), t0, limit=120.0)


def _brute_energy(k: int, x: int) -> int:
    prods: dict[int, int] = {}
    for tup in itertools.product(range(1, x + 1), repeat=k):
        p = math.prod(tup)
        prods[p] = prods.get(p, 0) + 1
    return sum(c * c for c in prods.values())


def criterion_03(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    ok = steinhaus_energy(2, 2, 0.0).value == 6 and steinhaus_energy(2, 3, 0.0).value == 15
    brute_ok = all(
        steinhaus_energy(k, x, 0.0).value == _brute_energy(k, x)
        for k in (1, 2, 3)
        for x in range(1, 7)
    )
    k1_ok = all(steinhaus_energy(1, x, 0.0).value == x for x in range(1, 1001))
    k1_ok = k1_ok and steinhaus_energy(1, 7.9, 0.0).value == 7
    ok = ok and brute_ok and k1_ok
    detail = (
        f"E_2(2)={steinhaus_energy(2, 2, 0.0).value} E_2(3)={steinhaus_energy(2, 3, 0.0).value} "
        f"brute_x<=6={brute_ok} k1_floor={k1_ok}"
    )
    return _finish(3, "exact Steinhaus counts vs brute force", ok, detail, t0)


def criterion_04(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    term = steinhaus_asymptotic_rhs(2, 0.0, 100.0)
    r2 = steinhaus_energy(2, 100, 0.0).value / term.value_at(100.0)
    r4 = steinhaus_energy(2, 10**4, 0.0).value / term.value_at(10.0**4)
    ok = abs(r4 - 1.0) < abs(r2 - 1.0) and 0.7 <= r4 <= 1.4
    # below sigma = 1/2, E_2,sigma / x^(2(1 - 2 sigma)) grows like the
    # constant times log x; at sigma = 0.1 its slope over (1e4, 1e5) reads
    # 1.5e-3 under the constant (1.2e-4 over (1e5, 1e6))
    weighted = steinhaus_asymptotic_rhs(2, 0.1, 100.0)
    lo, hi = (steinhaus_energy(2, x, 0.1).value / x**weighted.x_exponent for x in (10**4, 10**5))
    slope = (hi - lo) / math.log(10.0) / weighted.constant - 1.0
    ok = ok and abs(slope) < 3e-3
    flags = [
        "the reference restatement of the x^2 log x constant omits the "
        "Gamma-factor 2 (it reads 6/pi^2 where the pipeline constant is "
        "a(2)*beta(2)*Gamma(3) = 12/pi^2); with the halved constant both "
        "trend clauses fail by moving away from 1, so the check gates on "
        "the pipeline constant"
    ]
    detail = (
        f"constant={term.constant:.6f} ratio(1e2)={r2:.5f} ratio(1e4)={r4:.5f} "
        f"sigma=0.1 slope/constant-1={slope:.2e}"
    )
    return _finish(4, "Steinhaus fourth-moment trend", ok, detail, t0, flags, limit=300.0)


def criterion_05(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        for x in range(1, 21):
            if rademacher_moment_sign_enum(k, x) != rademacher_moment_tuple_count(k, x):
                ok = False
    val = rademacher_moment_sign_enum(2, 3)
    ok = ok and val == 21
    return _finish(
        5,
        "Rademacher dual-route counts",
        ok,
        f"routes agree for x<=20, k<=3; M4(x=3)={val}",
        t0,
    )


def _brute_restricted_equation(k: int, q: int, x: int) -> int:
    # equal k-fold products as integers, all entries coprime to q; below
    # x^k <= q this must coincide with the mod-q congruence count
    count = 0
    for tup in itertools.product(range(1, x + 1), repeat=2 * k):
        if any(math.gcd(m, q) != 1 for m in tup):
            continue
        if math.prod(tup[:k]) == math.prod(tup[k:]):
            count += 1
    return count


def criterion_06(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    details = []
    for q in (11, 101):
        for k in (1, 2):
            for x in {2, 3, int(math.isqrt(q))}:
                res = char_moment_average(k, q, x)
                cc = res.congruence_count
                if abs(res.avg_all_float - cc) > 1e-6:
                    ok = False
                    details.append(f"q={q} k={k} x={x}: avg {res.avg_all_float} != count {cc}")
                if x**k <= q and _brute_restricted_equation(k, q, x) != cc:
                    ok = False
                    details.append(f"q={q} k={k} x={x}: brute mismatch")
    detail = "; ".join(details) if details else "all orthogonality and brute checks agree"
    return _finish(6, "character-average identity", ok, detail, t0)


def _brute_k4_degree_coeffs(L: int) -> tuple[int, ...]:
    edges = list(itertools.combinations(range(4), 2))
    coeffs = [0] * (2 * L + 1)
    for w in itertools.product(range(L + 1), repeat=len(edges)):
        deg = [0, 0, 0, 0]
        for (i, j), c in zip(edges, w):
            deg[i] += c
            deg[j] += c
        if max(deg) <= L:
            coeffs[sum(w)] += 1
    return tuple(coeffs)


def criterion_07(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    u_k1 = all(
        unitary_truncated_coefficients(1, L) == (1,) * (L + 1) for L in range(0, 51)
    )
    u_k2 = unitary_truncated_coefficients(2, 1) == (1, 4, 2)
    s_k1 = all(so_truncated_coefficients(1, L) == (1,) * (L + 1) for L in range(0, 51))
    s_k2 = so_truncated_coefficients(2, 1) == _brute_k4_degree_coeffs(1)
    ok = u_k1 and u_k2 and s_k1 and s_k2
    detail = (
        f"unitary k=1 geometric={u_k1}; k=2 L=1 -> {unitary_truncated_coefficients(2, 1)}; "
        f"SO k=1 geometric={s_k1}; SO k=2 L=1 -> {so_truncated_coefficients(2, 1)} brute={s_k2}"
    )
    return _finish(7, "exact lattice DP identities", ok, detail, t0)


def criterion_08(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 7):
        for z in (1.1, 2.0, 5.0):
            residue, closed = I1_two_ways(k, z)
            worst = max(worst, abs(residue - closed) / abs(closed))
    ok = worst < 1e-10
    return _finish(8, "radial integral dual forms", ok, f"worst relative gap {worst:.2e}", t0)


def _secular_draws(seed: int) -> tuple[np.ndarray, MomentEstimate]:
    """c_1 of each of 10^4 Haar draws from U(8), and E|Lambda_3(1.5)|^4 from the same draws.

    One pass at L = 3 serves both: c_1 does not depend on L, and the draws
    and their 1024-draw blocks are those of mc_truncated_moment("unitary",
    2, 3, 1.5, N=8, samples=10_000, seed=seed), whose estimate this is,
    bit for bit.
    """
    n_samples = 10_000
    c1 = np.empty(n_samples, dtype=np.complex128)

    def fill(start: int, rngs, out: np.ndarray) -> None:
        c = _secular_head(_haar_unitaries(8, rngs), 3)
        c1[start : start + len(c)] = c[:, 1]
        _abs_powers(c, 2, 1.5, out)

    return c1, keyed_estimate(n_samples, seed, 1, _haar_block(8), fill)


def criterion_09(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    c1, est = _secular_draws(seed)
    n_samples = len(c1)
    m2 = np.abs(c1) ** 2
    m4 = np.abs(c1) ** 4
    se2 = m2.std(ddof=1) / math.sqrt(n_samples)
    se4 = m4.std(ddof=1) / math.sqrt(n_samples)
    ok2 = abs(m2.mean() - 1.0) <= 3 * se2
    ok4 = abs(m4.mean() - 2.0) <= 3 * se4
    exact = unitary_truncated_moment_exact(2, 3, 1.5)
    okx = abs(est.mean - exact) <= 3 * est.stderr
    ok = ok2 and ok4 and okx
    detail = (
        f"E|c1|^2 = {m2.mean():.4f} (se {se2:.4f}); E|c1|^4 = {m4.mean():.4f} (se {se4:.4f}); "
        f"DP {exact:.4f} vs MC {est.mean:.4f} (se {est.stderr:.4f})"
    )
    return _finish(9, "secular-coefficient Monte Carlo", ok, detail, t0, limit=120.0)


def criterion_10(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    z = math.exp(0.5)
    ratios = {}
    for L in (10, 40):
        ratios[L] = unitary_truncated_moment_exact(2, L, z) / unitary_asymptotic_rhs(2, L, z)
    ok = abs(ratios[40] - 1.0) < abs(ratios[10] - 1.0)
    detail = f"ratio(L=10)={ratios[10]:.5f} ratio(L=40)={ratios[40]:.5f}"
    return _finish(10, "unitary truncation trend", ok, detail, t0)


def criterion_11(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    est2 = estimate_abs_moment("steinhaus", 1000, 0.0, 2.0, 2000, seed)
    ok2 = abs(est2.mean - 1000.0) <= 3 * est2.stderr
    exact4 = steinhaus_energy(2, 100, 0.0).value
    est4 = estimate_abs_moment("steinhaus", 100, 0.0, 4.0, 2000, seed)
    ok4 = abs(est4.mean - exact4) <= 3 * est4.stderr
    exact_r = rademacher_moment_sign_enum(2, 30)
    est_r = estimate_abs_moment("rademacher", 30, 0.0, 4.0, 2000, seed)
    okr = abs(est_r.mean - exact_r) <= 3 * est_r.stderr
    ok = ok2 and ok4 and okr
    detail = (
        f"E|S|^2: {est2.mean:.1f} vs 1000 (se {est2.stderr:.1f}); "
        f"E|S|^4: {est4.mean:.0f} vs {exact4} (se {est4.stderr:.0f}); "
        f"Rademacher M4: {est_r.mean:.1f} vs {exact_r} (se {est_r.stderr:.1f})"
    )
    return _finish(11, "simulation vs exact moments", ok, detail, t0)


def criterion_12(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    flags = []
    s = math.sqrt(1.0 - 1.0 / math.e)
    agm_val = agm(1.0 - s, 1.0 + s)
    ok_agm = abs(agm_val - 0.79099) <= 1e-5
    qp = (math.e / (math.e - 1.0)) ** 0.25
    if abs(qp - 1.21250) > 1e-5:
        flags.append(
            f"(e/(e-1))^(1/4) = {qp:.7f}; the tabulated 1.21250 transposes its "
            "digits: the product clause of this same criterion lands on 0.8769 "
            "only with the computed value, so the tabulated digits are flagged "
            "per the unreliable-digit policy rather than failed"
        )
    coeff = conjectured_coefficient(0.5, 0.0)
    ok_coeff = abs(coeff - 0.8769) <= 2e-4
    rows = helson_table([100, 1000], trials=200, seed=seed)
    emitted = len(rows) == 2 and all(r["ratio_sqrt_x"] > 0 for r in rows)
    ok = ok_agm and ok_coeff and emitted
    detail = (
        f"agm={agm_val:.7f}; quarter-power={qp:.7f}; formula value C(1/2, 0)={coeff:.6f} "
        "vs 0.8769 +- 2e-4, no limit (Harper 2020: E|S_x|/sqrt(x) -> 0); "
        f"helson rows emitted at x=100, 1000 (ratios "
        + ", ".join(f"{r['ratio_sqrt_x']:.4f}" for r in rows)
        + ")"
    )
    return _finish(12, "conjectured-coefficient formula value", ok, detail, t0, flags)


def criterion_13(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    res = cs_bound_minimize()
    ok = abs(res.f_min - 0.8164965809) <= 1e-8 and abs(res.amplitude_bound - 0.903) <= 1e-3
    detail = (
        f"f_min={res.f_min:.12f} at (u,v)=({res.u_star:.6f},{res.v_star:.6f}); "
        f"amplitude bound={res.amplitude_bound:.12f}"
    )
    return _finish(13, "two-parameter amplitude bound", ok, detail, t0)


def criterion_14(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    x = 10**4
    L = int(math.floor(math.log(x)))
    e4 = steinhaus_energy(2, x, 0.0).value
    unitary = unitary_truncated_moment_exact(2, L, math.exp(0.5))
    denom = a_constant(2).value * comparison_constant(2, 0.0) * unitary
    ratio = e4 / denom
    ok = 0.5 <= ratio <= 2.0
    detail = (
        f"E_2(1e4)={e4}; L={L}; unitary moment={unitary:.6e}; "
        f"ratio={ratio:.4f} (weak gate [0.5, 2])"
    )
    return _finish(14, "count-to-matrix comparison", ok, detail, t0)


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
}


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    if number not in CRITERIA:
        raise ValueError(f"no criterion numbered {number}")
    return CRITERIA[number](seed)


def run_all(numbers=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    if numbers is None:
        numbers = sorted(CRITERIA)
    return [run_criterion(n, seed) for n in numbers]
