import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lejacircle.summation import pairwise_sum


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
