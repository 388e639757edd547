import numpy as np
import pytest

from rmfmoments.estimates import resolve_threads, trial_rng, trial_rngs


@pytest.mark.parametrize("a, b", [(-1, 0), (-2, 0), (-1, -2), (2**63, 2**63 + 5), (2**64 - 1, 0)])
def test_distinct_seeds_get_distinct_streams(a, b):
    assert trial_rng(a, 0).random(4).tolist() != trial_rng(b, 0).random(4).tolist()


def test_seed_is_taken_mod_2_64():
    assert trial_rng(-1, 3).random(4).tolist() == trial_rng(2**64 - 1, 3).random(4).tolist()


@pytest.mark.parametrize("seed", [0, 60493, 2**40 + 3, 2**63 - 1])
def test_streams_below_2_63_keep_their_bits(seed):
    # a list key holding only values below 2^63 converts without loss, so
    # these streams are those of the list-keyed Philox
    for t in (0, 7):
        ref = np.random.Generator(np.random.Philox(key=[seed, t]))
        assert np.array_equal(trial_rng(seed, t).random(8), ref.random(8))


def test_trial_rngs_match_trial_rng_for_large_seeds():
    seed = 2**63 + 5
    for t, rng in zip(range(2, 6), trial_rngs(seed, 2, 6)):
        assert np.array_equal(rng.random(5), trial_rng(seed, t).random(5))


def test_resolve_threads():
    assert resolve_threads(3) == 3
    assert 1 <= resolve_threads(0) <= 4
    with pytest.raises(ValueError):
        resolve_threads(-1)
