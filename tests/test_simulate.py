import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfmoments.arith import factorize_small, primes_up_to
from rmfmoments.errors import ResourceLimitError
from rmfmoments.estimates import trial_rng
from rmfmoments.simulate import (
    _fill_table,
    _multiplicative_rows,
    estimate_abs_moment,
    helson_table,
)


def _strided_phase_sieve(x, u, primes):
    """Independent route to the Steinhaus phases: theta[:, n] = sum of u_p
    over the prime powers p^j dividing n, one strided add per prime power."""
    theta = np.zeros((u.shape[0], x + 1))
    for j, p in enumerate(primes):
        pk = int(p)
        while pk <= x:
            theta[:, pk::pk] += u[:, j : j + 1]
            pk *= int(p)
    return theta


def _is_squarefree(n):
    return n > 0 and all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def _kernel_rows(values_at_primes, x, squarefree=False):
    """Rows of the fill kernel put back in natural order: column n is f(n)."""
    table = _fill_table(x, squarefree)
    rows = _multiplicative_rows(values_at_primes, table)
    out = np.empty_like(rows)
    out[:, table.n] = rows
    return out


@pytest.mark.parametrize("x", [1, 2, 3, 4, 30, 2000])
@pytest.mark.parametrize("squarefree", [False, True])
def test_fill_table_ordered_by_omega_then_n(x, squarefree):
    # n = 0 first (Omega(0) = -1 by fiat), then n = 1, then each Omega-level
    # in increasing n, with Omega counted from the trial-division factorization
    def omega(n):
        return -1 if n == 0 else sum(e for _, e in factorize_small(n))
    order = sorted(range(x + 1), key=lambda n: (omega(n), n))
    assert _fill_table(x, squarefree).n.tolist() == order


def _signs(rng, x):
    return (rng.random((1, len(primes_up_to(x)))) < 0.5).astype(np.int8) * 2 - 1


def test_phase_sieve_is_completely_multiplicative():
    u = np.random.default_rng(31).random((1, len(primes_up_to(20))))
    f = _kernel_rows(np.exp(2j * np.pi * u), 20)[0]
    assert f[0] == 0 and f[1] == 1
    assert f[6] == pytest.approx(f[2] * f[3], abs=1e-15)
    assert f[8] == pytest.approx(f[2] ** 3, abs=1e-15)
    assert f[12] == pytest.approx(f[2] ** 2 * f[3], abs=1e-15)
    assert f[15] == pytest.approx(f[3] * f[5], abs=1e-15)
    assert np.allclose(np.abs(f[1:]), 1.0, rtol=0, atol=1e-15)


def test_phase_sieve_range():
    # the kernel and the strided phase sieve agree on every n <= x
    for x in (1, 2, 3, 4, 30, 1000):
        primes = primes_up_to(x)
        u = np.random.default_rng(8).random((3, len(primes)))
        theta = _strided_phase_sieve(x, u, primes)
        f = _kernel_rows(np.exp(2j * np.pi * u), x)
        assert np.allclose(f[:, 1:], np.exp(2j * np.pi * theta[:, 1:]), rtol=0, atol=1e-13)


def test_steinhaus_sum_x1():
    est = estimate_abs_moment("steinhaus", 1, 0.0, 2.0, trials=100, seed=0)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_steinhaus_draw_deterministic():
    a = estimate_abs_moment("steinhaus", 500, 0.25, 2.0, trials=100, seed=77)
    b = estimate_abs_moment("steinhaus", 500, 0.25, 2.0, trials=100, seed=77)
    assert a == b


@pytest.mark.parametrize("x, sigma, two_k", [(1000, 0.0, 2.0), (1000, 0.25, 4.0), (300, 0.5, 1.0)])
def test_steinhaus_estimate_matches_strided_route(x, sigma, two_k):
    # the fill folds n^-sigma into f(p) and sums in another order, so the
    # strided route agrees to rounding, not bit for bit
    seed, trials = 60493, 100
    primes = primes_up_to(x)
    u = np.array([trial_rng(seed, t).random(len(primes)) for t in range(trials)])
    n = np.arange(1, x + 1, dtype=np.float64)
    theta = _strided_phase_sieve(x, u, primes)
    s = np.abs((np.exp(2j * np.pi * theta[:, 1:]) * n**-sigma).sum(axis=1))
    est = estimate_abs_moment("steinhaus", x, sigma, two_k, trials=trials, seed=seed)
    assert est.mean == pytest.approx(np.mean(s**two_k), rel=1e-12)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_rademacher_sum_parity_and_range(x, seed):
    eps = _signs(np.random.default_rng(seed), x)
    f = _kernel_rows(eps, x, squarefree=True)[0]
    sf = [n for n in range(x + 1) if _is_squarefree(n)]
    assert np.all(f[np.setdiff1d(np.arange(x + 1), sf)] == 0)
    assert np.all(np.abs(f[sf]) == 1)
    s = int(f.sum())
    assert abs(s) <= len(sf)
    assert (s - len(sf)) % 2 == 0


def test_rademacher_matches_strided_signs():
    x = 2000
    primes = primes_up_to(x)
    eps = _signs(np.random.default_rng(12), x)
    signs = np.ones(x + 1, dtype=np.int8)
    for j, p in enumerate(primes):
        signs[p :: int(p)] *= eps[0, j]
    signs[[n for n in range(x + 1) if not _is_squarefree(n)]] = 0
    assert np.array_equal(_kernel_rows(eps, x, squarefree=True)[0], signs)


def test_rademacher_x4_support():
    # squarefree n <= 4: {1, 2, 3}; f(1) = 1 always, so the sum lives in
    # {-1, 1, 3}
    seen = set()
    for seed in range(40):
        seen.add(int(_kernel_rows(_signs(np.random.default_rng(seed), 4), 4, True).sum()))
    assert seen <= {-1, 1, 3}
    assert len(seen) >= 2


def test_estimate_second_moment_matches_count():
    # E|S_x|^2 = floor(x) exactly for the Steinhaus model
    est = estimate_abs_moment("steinhaus", 1000, 0.0, 2.0, trials=2000, seed=60493)
    assert abs(est.mean - 1000.0) <= 3 * est.stderr


def test_estimate_rademacher_second_moment():
    # E S_x^2 counts squarefree n <= x: 1,2,3,5,6,7,10 gives 7 at x = 10
    est = estimate_abs_moment("rademacher", 10, 0.0, 2.0, trials=3000, seed=1)
    assert abs(est.mean - 7.0) <= 3 * est.stderr


def test_estimate_deterministic_given_seed():
    a = estimate_abs_moment("steinhaus", 200, 0.0, 4.0, trials=300, seed=9)
    b = estimate_abs_moment("steinhaus", 200, 0.0, 4.0, trials=300, seed=9)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_estimate_thread_invariant():
    a = estimate_abs_moment("steinhaus", 200, 0.0, 2.0, trials=400, seed=9, threads=1)
    b = estimate_abs_moment("steinhaus", 200, 0.0, 2.0, trials=400, seed=9, threads=4)
    assert a.mean == b.mean and a.stderr == b.stderr


@pytest.mark.parametrize("model, sigma", [("steinhaus", 0.0), ("steinhaus", 0.3), ("rademacher", 0.0)])
def test_estimate_thread_invariant_with_one_trial_final_chunk(model, sigma):
    # 129 trials in chunks of 64 leave a final chunk one trial wide
    ests = [
        estimate_abs_moment(model, 3000, sigma, 2.0, trials=129, seed=3, threads=t)
        for t in (1, 2, 4)
    ]
    assert all((e.mean, e.stderr) == (ests[0].mean, ests[0].stderr) for e in ests)


def test_estimate_trials_match_standalone_draws():
    # trial t of a keyed run and a standalone draw from per-trial stream t
    # coincide bit for bit, so the estimate mean is exactly reproducible
    seed, trials, x = 4711, 100, 50
    est = estimate_abs_moment("rademacher", x, 0.0, 2.0, trials=trials, seed=seed)
    vals = []
    for t in range(trials):
        s = _kernel_rows(_signs(trial_rng(seed, t), x), x, squarefree=True).sum()
        vals.append(float(s) ** 2)
    assert est.mean == np.mean(vals)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_abs_moment("steinhaus", 100, 0.0, 2.0, trials=50, seed=1)
    with pytest.raises(ValueError):
        estimate_abs_moment("rademacher", 100, 0.25, 2.0, trials=200, seed=1)
    with pytest.raises(ValueError):
        estimate_abs_moment("poisson", 100, 0.0, 2.0, trials=200, seed=1)
    with pytest.raises(ResourceLimitError):
        estimate_abs_moment("steinhaus", 10**8, 0.0, 2.0, trials=200, seed=1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("two_k", [400.0, 110.0])
def test_estimate_past_float_range_refused(two_k, threads):
    # |S|^400 overflows a draw; at |S|^110 every draw is finite, and so is
    # the mean, but the squares in the stderr overflow.  Either is refused
    # without an overflow RuntimeWarning
    with pytest.raises(ResourceLimitError, match="float range"):
        estimate_abs_moment("steinhaus", 1000, 0.0, two_k, 100, 1, threads)


def test_helson_table_shape_and_fields():
    rows = helson_table([100, 400], trials=150, seed=2)
    assert len(rows) == 2
    for row in rows:
        assert set(row) >= {
            "x",
            "mean_abs",
            "stderr",
            "ratio_sqrt_x",
            "conjectured_coefficient",
            "amplitude_bound",
        }
        assert row["mean_abs"] > 0
        assert row["ratio_sqrt_x"] == pytest.approx(row["mean_abs"] / math.sqrt(row["x"]))
        assert 0.5 < row["ratio_sqrt_x"] < 1.1

