import re
import tracemalloc

import pytest

from rmfmoments import polytopes
from rmfmoments.arith import b_constant, primes_up_to
from rmfmoments.errors import ResourceLimitError, refuse_past
from rmfmoments.exact_counts import (
    char_moment_average,
    congruence_count,
    product_multiplicity_map,
    rademacher_moment_sign_enum,
    rademacher_moment_tuple_count,
    steinhaus_energy,
)
from rmfmoments.polytopes import (
    _bipartite_edges,
    _gamma_counts,
    alpha_box,
    gamma_sym,
    lattice_count,
)
from rmfmoments.rmt import mc_truncated_moment, unitary_truncated_moment_exact
from rmfmoments.simulate import estimate_abs_moment

REFUSAL = re.compile(r"past the .+ guard on (memory|run time|int64 range|numpy array dimensions)$")


def test_refuse_past_admits_up_to_the_limit():
    refuse_past("x", 10, 10, "run time")
    refusal = r"^x needs 11 steps, past the 10 steps guard on run time$"
    with pytest.raises(ResourceLimitError, match=refusal):
        refuse_past("x", 11, 10, "run time", " steps")


def test_refuse_past_rounds_the_need_up_and_the_limit_down():
    # a need just past a round limit must not read as equal to it
    with pytest.raises(ResourceLimitError, match=r"needs 3\.01e\+7, past the 3e\+7 guard"):
        refuse_past("x", 3 * 10**7 + 1, 3 * 10**7, "run time")
    with pytest.raises(ResourceLimitError, match=r"needs 9\.23e\+18, past the 9\.22e\+18 guard"):
        refuse_past("x", 2**63, 2**63 - 1, "int64 range")
    # memory is given in bytes and read in MiB
    with pytest.raises(ResourceLimitError, match=r"needs 1025 MiB, past the 1024 MiB guard on memory"):
        refuse_past("x", 2**30 + 1, 2**30, "memory")


def test_refuse_past_formats_amounts_past_the_float_range():
    with pytest.raises(ResourceLimitError, match=r"needs 2\.08e\+1963 MiB, past the 16 MiB"):
        refuse_past("x", 1 << 6542, 1 << 24, "memory")


def _gamma_row_sums(monkeypatch):
    # with the memory guard lifted, the int64 bound on a row sum refuses
    monkeypatch.setattr(polytopes, "_MEMORY_GUARD", 1 << 62)
    _gamma_counts(3, 40)


# every guard, driven to refusal through its entry point; none allocates
# more than 1 MiB before refusing
GUARDS = {
    "prime-table": lambda mp: primes_up_to(4 * 10**8),
    "euler-cutoff": lambda mp: b_constant(3, eps=1e-40),
    "map-memory": lambda mp: product_multiplicity_map(3, 10**4),
    "map-run-time": lambda mp: steinhaus_energy(3, 2000, 0.1),
    "coprime-pair-memory": lambda mp: steinhaus_energy(2, 10**8, 0.25),
    "coprime-pair-run-time": lambda mp: steinhaus_energy(2, 2 * 10**7, 0.25),
    "totient-run-time": lambda mp: steinhaus_energy(2, 10**12),
    "fsum-run-time": lambda mp: steinhaus_energy(1, 10**9, 0.25),
    "walsh-memory": lambda mp: rademacher_moment_sign_enum(2, 10**8),
    "tuple-run-time": lambda mp: rademacher_moment_tuple_count(2, 10**4),
    "congruence-modulus": lambda mp: congruence_count(1, 10007, 5),
    "congruence-run-time": lambda mp: congruence_count(3, 9973, 5),
    "kronecker-run-time": lambda mp: char_moment_average(50, 1009, 1009),
    "character-modulus": lambda mp: char_moment_average(1, 1000003, 5),
    "dp-axes": lambda mp: unitary_truncated_moment_exact(2000, 0, 1.5),
    "dp-memory": lambda mp: lattice_count(alpha_box(5), 40),
    "dp-run-time": lambda mp: polytopes._check_dp_guards(22, _bipartite_edges(11, 11), 3, 2.25),
    "dp-int64": lambda mp: lattice_count(alpha_box(5), 13),
    "gamma-memory": lambda mp: lattice_count(gamma_sym(3), 40),
    "gamma-int64": _gamma_row_sums,
    "haar-run-time": lambda mp: mc_truncated_moment("unitary", 1, 8, 1.5, 8, 2 * 10**9, seed=1),
    "simulation-memory": lambda mp: estimate_abs_moment("steinhaus", 10**8, 0.0, 2.0, 200, seed=1),
}


@pytest.mark.parametrize("refused", GUARDS.values(), ids=GUARDS.keys())
def test_every_refusal_names_its_limit_and_resource(refused, monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            refused(monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert REFUSAL.search(str(info.value)), str(info.value)
    assert peak < 1 << 20


def test_tuple_count_refused_before_the_masks():
    # k = 2 at x = 2928 would take about 8 s; no mask is built to refuse it
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="guard on run time"):
            rademacher_moment_tuple_count(2, 2928)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
