import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lejacircle.summation import pairwise_sum, row_sums


def test_small_and_empty():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([1.5])) == 1.5
    assert pairwise_sum(np.array([0.1] * 10)) == np.float64(1.0)


def test_hard_cancellation_case():
    # Alternating large/small values: the blockwise pairwise path stays within
    # its eps*sum|x| bound.
    vals = np.tile([1e16, 1.0, -1e16], 2001)
    bound = 2.0 * np.finfo(np.float64).eps * np.sum(np.abs(vals))
    assert abs(pairwise_sum(vals) - 2001.0) <= bound


def test_sums_past_float64_are_infinite():
    # math.fsum raises OverflowError where a sum of finite values overflows,
    # from the whole input (n <= 128), the tail, or the block partials
    assert pairwise_sum([1e308, 1e308]) == math.inf
    assert pairwise_sum([-1e308] * 3) == -math.inf
    assert pairwise_sum(np.r_[np.zeros(128), 1e308, 1e308]) == math.inf
    assert pairwise_sum(np.full(256, 1e306)) == math.inf  # two finite partials, 1.28e308 each
    # an intermediate overflow with a sum inside the range is that sum
    assert pairwise_sum([1e308, 1e308, -1e308]) == 1e308
    block = float(np.add.reduce(np.full(128, 1e306)))
    assert pairwise_sum(np.r_[np.full(256, 1e306), np.full(128, -1e306)]) == block


def test_row_sums_ignore_width_and_neighbours():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((5, 300)) * np.exp(rng.uniform(-8, 8, (5, 300)))
    rows[np.triu_indices(5, 130, 300)] = 0.0  # row i holds its first 130 + i entries
    full = row_sums(rows)
    for width in (134, 256, 257):
        assert np.array_equal(row_sums(rows[:, :width]), full)
    for i in range(5):
        assert np.array_equal(row_sums(rows[i:i + 1]), full[i:i + 1])
        assert abs(full[i] - math.fsum(rows[i])) <= 1e-13 * float(np.sum(np.abs(rows[i])))
    assert row_sums(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


def test_reversal_insensitivity():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(40_000) * np.exp(rng.uniform(-8, 8, 40_000))
    fwd = pairwise_sum(vals)
    rev = pairwise_sum(vals[::-1])
    assert abs(fwd - rev) <= 1e-12 * max(abs(fwd), 1.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=500))
@settings(max_examples=50, deadline=None)
def test_agrees_with_math_fsum(xs):
    import math

    arr = np.array(xs, dtype=np.float64)
    expected = math.fsum(xs)
    got = pairwise_sum(arr)
    # Guarantee is block-level: error bounded by ~eps * sum|x|.
    assert abs(got - expected) <= 1e-13 * (1.0 + float(np.sum(np.abs(arr))))
