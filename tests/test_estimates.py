import math

import numpy as np
import pytest

from rmfmoments.errors import ResourceLimitError
from rmfmoments.estimates import keyed_estimate, resolve_threads, trial_rng, trial_rngs


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


@pytest.mark.parametrize(
    "threads, blocks",
    [
        (1, [(0, 2), (2, 2), (4, 2), (6, 2), (8, 1)]),
        # one contiguous range per thread, [0, 5) and [5, 9)
        (2, [(0, 2), (2, 2), (4, 1), (5, 2), (7, 2)]),
        # ranges of ceil(9 / 4) = 3 trials: three ranges, not four
        (4, [(0, 2), (2, 1), (3, 2), (5, 1), (6, 2), (8, 1)]),
    ],
)
def test_keyed_estimate_partition(threads, blocks):
    seed, seen = 7, []

    def fill(start, rngs, out):
        seen.append((start, len(out)))
        for i, rng in enumerate(rngs):
            out[i] = rng.random()

    est = keyed_estimate(9, seed, threads, 2, fill)
    assert sorted(seen) == blocks
    draws = np.array([trial_rng(seed, t).random() for t in range(9)])
    assert est.mean == float(draws.mean())
    assert est.stderr == float(draws.std(ddof=1) / math.sqrt(9))
    assert (est.trials, est.seed) == (9, seed)


def test_keyed_estimate_refuses_past_float_range():
    def fill(start, rngs, out):
        out[:] = 1e300

    # every draw is finite, but their sum is not
    with pytest.raises(ResourceLimitError, match="float range"):
        keyed_estimate(10, 0, 2, 3, fill)
