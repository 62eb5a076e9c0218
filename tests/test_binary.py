"""Binary digit machinery: expansions, theta vectors of odd M, G and Lambda searches."""

import contextlib
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejacircle.binary import (
    decompose,
    enumerate_theta,
    g_value,
    lambda_value,
    search_g_extremes,
    search_lambda,
    tau_b,
)
from lejacircle.analysis import limit_point_check
from lejacircle.binary import _all_hold, _first_extreme, _near
from lejacircle.circle import BudgetExceededError
from lejacircle.cli import main


class TestTauB:
    def test_examples(self):
        assert tau_b(5) == 2
        assert tau_b(13) == 3

    def test_all_ones(self):
        for m in range(1, 21):
            assert tau_b((1 << m) - 1) == m

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_b(0)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_properties(self, n):
        assert tau_b(2 * n) == tau_b(n)
        assert n >= (1 << tau_b(n)) - 1
        assert tau_b(n) == bin(n).count("1")


class TestDecompose:
    def test_examples(self):
        assert decompose(13) == (3, 2, 0)
        assert decompose(2048) == (11,)
        # 2^(n+3) + 2^(n+2) + 2^n + 1 with n = 4
        assert decompose((1 << 7) + (1 << 6) + (1 << 4) + 1) == (7, 6, 4, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            decompose(0)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=300, deadline=None)
    def test_reconstructs(self, n):
        exps = decompose(n)
        assert sum(1 << e for e in exps) == n
        assert len(exps) == tau_b(n)
        assert list(exps) == sorted(exps, reverse=True)


def components(p, max_bits):
    """M -> the components text of its vector in ``theta --format csv --p p --max-bits max_bits``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["theta", "--format", "csv", "--p", str(p), "--max-bits", str(max_bits)]) == 0
    return {int(r["M"]): r["components"] for r in csv.DictReader(io.StringIO(buf.getvalue()))}


class TestThetaVector:
    """The vector of odd M, padded to length p, as ``theta --format csv`` lists it."""

    def test_example_m13(self):
        assert components(4, 4)[13] == "8/13|4/13|1/13|0"

    def test_single_component(self):
        assert components(1, 1) == {1: "1"}

    def test_m3(self):
        assert components(2, 2)[3] == "2/3|1/3"

    def test_domain(self):
        # limit_point_check refuses these before it sizes the witness (depth 40 is over budget)
        for m, p in ((4, 3), (-3, 3), (0, 3)):
            with pytest.raises(ValueError, match="M must be odd and positive"):
                limit_point_check(m, p, 0.5, 40)
        with pytest.raises(ValueError, match=r"need p >= tau_b\(M\) = 3, got p = 2"):
            limit_point_check(13, 2, 0.5, 40)

    def test_padding(self):
        assert components(9, 2)[3] == "2/3|1/3" + "|0" * 7

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, k):
        # theta_k = 2**e_k/M: the components sum to 1 and theta_k <= 2**(1-k), in integers
        m = 2 * k + 1
        exps = decompose(m)
        assert sum(1 << e for e in exps) == m
        assert all(1 << (e + idx - 1) <= m for idx, e in enumerate(exps, start=1))


class TestEnumerate:
    def test_p1(self):
        assert enumerate_theta(1, 4) == [1]

    def test_p2_bits3(self):
        assert components(2, 3) == {1: "1|0", 3: "2/3|1/3", 5: "4/5|1/5"}

    def test_p2_bits2(self):
        assert enumerate_theta(2, 2) == [1, 3]

    def test_exhaustive_oracle(self):
        # every odd M < 2**bits with tau_b(M) <= p appears exactly once, in order
        for p, bits in ((2, 5), (3, 6), (6, 6)):
            expected = [m for m in range(1, 1 << bits, 2) if tau_b(m) <= p]
            assert enumerate_theta(p, bits) == expected

    def test_domain(self):
        for p, bits in ((0, 4), (4, 0)):
            with pytest.raises(ValueError):
                enumerate_theta(p, bits)

    def test_budget_boundary(self):
        # 2**20 odd M below 2**21 fit MAX_POINTS; 2**21 below 2**22 do not
        assert enumerate_theta(1, 21) == [1]
        with pytest.raises(BudgetExceededError):
            enumerate_theta(1, 22)


class TestGValue:
    def test_trivial_one(self):
        for s in (0.1, 0.5, 1.0, 2.0, 7.0):
            assert g_value(1, s) == 1.0

    def test_sum_to_one_at_s1(self):
        assert g_value(3, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_sqrt_example(self):
        expected = math.sqrt(2.0 / 3.0) + math.sqrt(1.0 / 3.0)  # direct evaluation
        assert g_value(3, 0.5) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.3938468501173517, rel=1e-12)

    def test_zero_components_ignored(self):
        # G of the padded vector is G of M: the zero components add nothing
        padded = [Fraction(2, 3), Fraction(1, 3)] + [Fraction(0)] * 7
        assert g_value(3, 0.5) == math.fsum(float(c) ** 0.5 for c in padded)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_value(4, 0.5)
        with pytest.raises(ValueError):
            g_value(0, 0.5)
        with pytest.raises(ValueError):
            g_value(3, 0.0)
        for s in (math.inf, math.nan):  # G would read 0 for every M > 1 at s = inf
            with pytest.raises(ValueError):
                g_value(3, s)

    def test_monotone_decreasing_in_s(self):
        for m in (3, 5, 11, 29, 61):
            values = [g_value(m, s) for s in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestLambdaValue:
    def test_trivial_one(self):
        assert lambda_value(1) == 0.0

    def test_m3(self):
        expected = (2 / 3) * math.log(2 / 3) + (1 / 3) * math.log(1 / 3)
        assert lambda_value(3) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-0.6365141682948128, rel=1e-12)

    def test_m7(self):
        comps = (4 / 7, 2 / 7, 1 / 7)
        expected = sum(c * math.log(c) for c in comps)  # direct evaluation
        assert expected == pytest.approx(-0.9556998911963002, rel=1e-9)
        assert lambda_value(7) == pytest.approx(expected, rel=1e-13)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, k):
        lam = lambda_value(2 * k + 1)
        assert -2.5 < lam <= 0.0

    def test_domain(self):
        for m in (0, 4, -1):
            with pytest.raises(ValueError):
                lambda_value(m)


class TestSearches:
    def test_lambda_trivial_frontier(self):
        result = search_lambda(1)
        assert result.inf_found == 0.0
        assert result.witness_m == 1

    def test_lambda_16_bits(self):
        result = search_lambda(16)
        assert result.inf_found <= -1.35
        # family M = 2^t - 1 approaches -2 log 2 from above (to rounding)
        assert -2.0 * math.log(2.0) - 1e-12 < result.family_inf <= -1.35

    def test_g_subcritical(self):
        result = search_g_extremes(0.5, 16)
        assert result.sup_found >= 2.40
        landmark = 1.0 / (2.0 ** 0.5 - 1.0)
        assert result.family_sup < landmark
        bound = 2.0 ** 0.5 / (2.0 ** 0.5 - 1.0)  # 2 + sqrt 2
        assert result.sup_found < bound < 3.4142136

    def test_g_supercritical(self):
        result = search_g_extremes(2.0, 16)
        assert result.inf_found <= 0.3334
        assert result.family_inf >= 1.0 / 3.0
        assert 0.0 < result.inf_found

    def test_degenerate_s1(self):
        result = search_g_extremes(1.0, 8)
        assert result.sup_found == result.inf_found == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            search_g_extremes(0.0, 8)
        with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and > 0, got inf$"):
            search_g_extremes(math.inf, 8)


def loop_extremes(max_bits, value):
    """Reference search: the loop over enumerate_theta, keeping the first strict improvement."""
    sup_v, sup_m, inf_v, inf_m = -math.inf, 1, math.inf, 1
    for m in enumerate_theta(max_bits, max_bits):
        v = value(m)
        if v > sup_v:
            sup_v, sup_m = v, m
        if v < inf_v:
            inf_v, inf_m = v, m
    return sup_v, sup_m, inf_v, inf_m


class TestArraySearchOracle:
    """The array searches equal the loop over enumerate_theta bitwise, value and witness."""

    @pytest.mark.parametrize("max_bits", [1, 2, 3, 8, 12])
    @pytest.mark.parametrize("s", [0.001, 0.1, 0.5, 0.99, 1.5, 2.0, 3.0, 5.0])
    def test_g(self, s, max_bits):
        got = search_g_extremes(s, max_bits)
        sup_v, sup_m, inf_v, inf_m = loop_extremes(max_bits, lambda m: g_value(m, s))
        assert (got.sup_found, got.sup_witness_m) == (sup_v, sup_m)
        assert (got.inf_found, got.inf_witness_m) == (inf_v, inf_m)

    @pytest.mark.parametrize("max_bits", [1, 2, 3, 8, 12])
    def test_lambda(self, max_bits):
        got = search_lambda(max_bits)
        _, _, inf_v, inf_m = loop_extremes(max_bits, lambda_value)
        assert (got.inf_found, got.witness_m) == (inf_v, inf_m)

    def test_all_hold_fails_on_a_screen_value_far_from_the_boundary(self):
        # M = 3 reads 7 on the screen, far from the boundary 1: the screen decides
        # False, and no M is evaluated exactly
        m = np.array([1, 3, 5])
        screen = np.array([0.5, 7.0, 0.5])
        near = _near(screen, 1.0)
        assert not near.any()

        def exact(mm):
            raise AssertionError(f"M = {mm} evaluated exactly")
        assert _all_hold(m, screen, near, lambda v: v <= 1.0, exact) is False

    def test_screen_keeps_rounding_ties_and_first_witness(self):
        # The screen puts M = 3 a rounding error below M = 5; exactly they tie,
        # and the first M in ascending order is the witness.
        m = np.array([1, 3, 5, 7])
        exact = {1: 0.5, 3: 2.0, 5: 2.0, 7: 1.0}.get
        screen = np.array([0.5, 2.0 * (1.0 - 1e-14), 2.0, 1.0])
        assert _first_extreme(m, screen, exact, 1) == (2.0, 3)
        assert _first_extreme(m, screen, exact, -1) == (0.5, 1)

    def test_max_bits_domain(self):
        with pytest.raises(ValueError):
            search_lambda(0)
        for s in (0.5, 1.0):
            with pytest.raises(ValueError):
                search_g_extremes(s, 0)

    def test_max_bits_budget(self):
        with pytest.raises(BudgetExceededError):
            search_lambda(22)
        for s in (0.5, 1.0):
            with pytest.raises(BudgetExceededError):
                search_g_extremes(s, 22)
