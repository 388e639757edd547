"""Asymptotic right-hand sides, conjectured constants, and the amplitude bound.

Everything here is closed-form: products of the arithmetic-factor
constants, polytope volumes, and gamma/hypergeometric factors, attached
to explicit powers of x and log x.  The moment pipelines in other
modules produce the left-hand sides these are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import a_constant, b_constant
from .polytopes import alpha_constant, beta_constant, gamma_constant

__all__ = [
    "AsymptoticTerm",
    "BoundResult",
    "steinhaus_asymptotic_rhs",
    "rademacher_asymptotic_rhs",
    "comparison_constant",
    "hyper_2F1_series",
    "agm",
    "conjectured_coefficient",
    "conjectured_moment",
    "cs_bound_minimize",
]


@dataclass(frozen=True)
class AsymptoticTerm:
    """constant * x^x_exponent * (log x)^log_exponent."""

    constant: float
    x_exponent: float
    log_exponent: float

    def __post_init__(self):
        if not math.isfinite(self.constant) or self.constant <= 0:
            raise ValueError("asymptotic constant must be finite and positive")

    def value_at(self, x: float) -> float:
        if not x > math.e:
            raise ValueError("asymptotic evaluation requires x > e")
        return self.constant * x**self.x_exponent * math.log(x) ** self.log_exponent


def steinhaus_asymptotic_rhs(k: int, sigma: float, x: float) -> AsymptoticTerm:
    """Leading term of the 2k-th Steinhaus moment at the given sigma.

    On the critical line sigma = 1/2 the power of x degenerates and the
    growth is purely logarithmic of degree k^2; below it the exponent is
    k(1 - 2 sigma) with log degree (k-1)^2.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    if not x > math.e:
        raise ValueError("x must exceed e")
    a = a_constant(k).value
    if sigma == 0.5:
        const = a * float(alpha_constant(k))
        return AsymptoticTerm(constant=const, x_exponent=0.0, log_exponent=float(k * k))
    s = 1.0 - 2.0 * sigma
    const = (
        a
        * float(beta_constant(k))
        * math.gamma(2 * k - 1)
        / (math.gamma(k) ** 2 * s ** (2 * k - 1))
    )
    return AsymptoticTerm(constant=const, x_exponent=k * s, log_exponent=float((k - 1) ** 2))


def rademacher_asymptotic_rhs(k: int, x: float) -> AsymptoticTerm:
    """Leading term of the 2k-th Rademacher moment at sigma = 0, k in {2, 3}."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("k must be an integer >= 2")
    if not x > math.e:
        raise ValueError("x must exceed e")
    const = float(gamma_constant(k)) * b_constant(k).value * 2.0 ** (2 * k)
    return AsymptoticTerm(constant=const, x_exponent=float(k), log_exponent=float(2 * k * k - 3 * k))


def comparison_constant(k: int, sigma: float) -> float:
    """c_sigma(k) linking the Steinhaus moment to the unitary truncation.

    ((1 - e^(2 sigma - 1)) / (1 - 2 sigma))^(2k-1) / F_k(e^(1/2 - sigma));
    equals 1 identically at sigma = 1/2 by the limit convention.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    if sigma == 0.5:
        return 1.0
    wt = 1.0 - math.exp(2.0 * sigma - 1.0)  # 1 - |z|^-2 at |z| = e^(1/2 - sigma)
    f_k = hyper_2F1_series(1.0 - k, 1.0 - k, 2.0 - 2.0 * k, wt)
    return (wt / (1.0 - 2.0 * sigma)) ** (2 * k - 1) / f_k


# ---------------------------------------------------------------------------
# Gauss hypergeometric series and the AGM


def hyper_2F1_series(a: float, b: float, c: float, w: float, eps: float = 1e-12) -> float:
    """2F1(a, b; c; w) by direct series with a certified cutoff.

    Terminates exactly when a or b is a nonpositive integer.  Otherwise
    requires |w| < 1 and stops once the geometric tail bound
    |term| * rho / (1 - rho) drops below eps times the partial sum,
    where rho bounds every subsequent term ratio.  A nonpositive integer
    c is allowed only when the series terminates before c + m reaches 0.
    """
    ends = [-x for x in (a, b) if x <= 0 and x == int(x)]
    terminating = bool(ends)
    if c <= 0 and c == int(c) and (not terminating or -c < min(ends)):
        raise ValueError("c must not be a nonpositive integer")
    if not terminating and not abs(w) < 1:
        raise ValueError("nonterminating series requires |w| < 1")
    total = 1.0
    term = 1.0
    m = 0
    while True:
        if terminating and (a + m == 0 or b + m == 0):
            return total
        ratio_factor = (a + m) * (b + m) / ((c + m) * (1.0 + m))
        term *= ratio_factor * w
        total += term
        m += 1
        if m > 200_000:
            raise RuntimeError("hypergeometric series failed to converge")
        if terminating:
            continue
        # every later ratio is bounded by rho: the |factor| sup over a
        # short horizon, floored at its limit 1, times |w|
        window = max(
            abs((a + j) * (b + j) / ((c + j) * (1.0 + j))) for j in range(m, m + 64)
        )
        rho = abs(w) * max(1.0, window)
        if rho < 1.0 and abs(term) * rho / (1.0 - rho) < eps * abs(total):
            return total


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers to 1e-14."""
    if not (a > 0 and b > 0):
        raise ValueError("agm requires positive arguments")
    while abs(a - b) > 1e-14 * max(a, b):
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return (a + b) / 2.0


def conjectured_coefficient(k: float, sigma: float) -> float:
    """Coefficient of x^(k(1-2 sigma)) in the low-moment conjecture, 0 <= k < 1.

    a(k) / (2F1(1-k, 1-k; 2-2k; 1-e^(2 sigma - 1))
            * (1 - e^(2 sigma - 1))^((k-1)^2) * (1 - 2 sigma)^(2k-1)).

    At sigma = 0 the conjecture is refuted, and this is no limiting
    coefficient: Harper (Forum Math. Pi 8, 2020, e1) proved
    E|sum_{n<=x} f(n)|^(2q) ~ (x / (1 + (1 - q) sqrt(log log x)))^q up to
    constants, uniformly for 0 <= q <= 1, so E|S|^(2q) / x^q -> 0 for
    fixed 0 < q < 1.  The formula is kept because the pipeline reproduces
    it.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("k must lie in [0, 1)")
    if not 0.0 <= sigma < 0.5:
        raise ValueError("sigma must lie in [0, 1/2)")
    if k == 0.0:
        return 1.0
    wt = 1.0 - math.exp(2.0 * sigma - 1.0)
    f = hyper_2F1_series(1.0 - k, 1.0 - k, 2.0 - 2.0 * k, wt)
    return a_constant(k).value / (f * wt ** ((k - 1.0) ** 2) * (1.0 - 2.0 * sigma) ** (2.0 * k - 1.0))


def conjectured_moment(k: float, sigma: float, x: float) -> float:
    """Conjectured E|sum|^(2k) for k in [0, 1): C(k, sigma) x^(k(1-2 sigma)).

    At sigma = 0 and fixed 0 < k < 1 the true moment is o(x^k) (Harper,
    Forum Math. Pi 8, 2020, e1; see ``conjectured_coefficient``): this
    over-states it by a factor that grows like (log log x)^(k/2), up to
    constants.
    """
    if not x >= 1.0:
        raise ValueError("x must be at least 1")
    coeff = conjectured_coefficient(k, sigma)
    return coeff * x ** (k * (1.0 - 2.0 * sigma))


# ---------------------------------------------------------------------------
# the two-parameter amplitude bound


@dataclass(frozen=True)
class BoundResult:
    u_star: float
    v_star: float
    f_min: float
    amplitude_bound: float


def _bound_objective(u: float, v: float) -> float:
    # nine-term numerator, assembled Horner-style in u
    gv = 1.0 - (2.0 / 3.0) * v + v * v
    num = gv * (1.0 + u * (-1.0 + u))
    den = (1.0 - u * u) * (1.0 - v * v)
    return num / den


def cs_bound_minimize() -> BoundResult:
    """Minimize the two-parameter quotient and return the amplitude bound.

    The quotient factors as g(u) h(v) with g(u) = (1 - u + u^2) / (1 - u^2)
    and h(v) = (1 - 2v/3 + v^2) / (1 - v^2).  g' vanishes where
    u^2 - 4u + 1 = 0 and h' where v^2 - 6v + 1 = 0, so the minimum on
    (0,1)^2 sits at u* = 2 - sqrt 3, v* = 3 - 2 sqrt 2.  The result is
    still checked to be a local minimum against 1e-4 perturbations.
    """
    u_star = 2.0 - math.sqrt(3.0)
    v_star = 3.0 - 2.0 * math.sqrt(2.0)
    f_min = _bound_objective(u_star, v_star)
    for du, dv in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        if _bound_objective(u_star + du, v_star + dv) < f_min - 1e-15:
            raise RuntimeError("amplitude bound minimizer failed local optimality")
    return BoundResult(
        u_star=u_star,
        v_star=v_star,
        f_min=f_min,
        amplitude_bound=math.sqrt(f_min),
    )
