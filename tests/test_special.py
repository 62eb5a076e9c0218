"""Gamma (``math.gamma``), zeta, the Euler-Mascheroni constant, continuous energy, catalog.

mpmath (50 digits) serves as the independent high-precision oracle; the
classical closed-form values are asserted directly.
"""

import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

from lejacircle.special import (
    EULER_GAMMA,
    continuous_energy,
    limit_catalog,
    second_order_scale,
    zeta,
)

mp.mp.dps = 50


class TestGamma:
    """``math.gamma``, the Gamma of every closed form in the library."""

    def test_integers(self):
        assert math.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert math.gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_three_quarters_duplication_oracle(self):
        # duplication formula: Gamma(x) Gamma(x + 1/2) = sqrt(pi) 2^(1-2x) Gamma(2x)
        x = 0.75
        lhs = math.gamma(x) * math.gamma(x + 0.5)
        rhs = math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * x) * math.gamma(2.0 * x)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert math.gamma(0.75) == pytest.approx(float(mp.gamma("0.75")), rel=1e-13)
        assert math.gamma(0.75) == pytest.approx(1.225416702465178, rel=1e-12)

    def test_against_stdlib_grid(self):
        # the stdlib Gamma against the mpmath oracle over the arguments the closed forms use
        for x in np.linspace(0.02, 12.0, 160):
            assert math.gamma(float(x)) == pytest.approx(float(mp.gamma(float(x))), rel=1e-12)


class TestZeta:
    def test_classical_values(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)

    def test_half(self):
        assert zeta(0.5) == pytest.approx(-1.4603545088095868, rel=1e-12)

    def test_three(self):
        # partial sum + tail integral bound oracle: sum_{n<=M} n^-3 + 1/(2 M^2)
        m = 4000
        partial = float(np.sum(np.arange(1, m + 1, dtype=np.float64) ** -3.0))
        tail_low = 1.0 / (2.0 * (m + 1) ** 2)
        tail_high = 1.0 / (2.0 * m ** 2)
        assert partial + tail_low <= zeta(3.0) <= partial + tail_high
        assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-12)

    def test_against_mpmath_grid(self):
        for s in [0.001, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1.005, 1.1, 1.5, 2.5, 3.5, 5.0, 9.0]:
            assert zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-10)

    def test_next_to_pole(self):
        # 1 - 2**(1-s) is formed without cancellation, so the error stays at rounding level.
        for s in (0.99, 0.999, 1.001, 1.01):
            want = mp.zeta(s)
            assert abs((zeta(s) - want) / want) <= 2e-15, s

    def test_signs(self):
        assert all(zeta(s / 16.0) < 0.0 for s in range(1, 16))
        assert all(zeta(1.0 + s / 2.0) > 1.0 for s in range(1, 12))

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.0)
        with pytest.raises(ValueError):
            zeta(-2.0)


class TestEulerGamma:
    def test_defining_limit(self):
        n = 10 ** 6
        harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64)))
        assert abs(harmonic - math.log(n) - EULER_GAMMA) <= 1.0 / n

    def test_against_mpmath(self):
        assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-16)


class TestContinuousEnergy:
    def test_zero(self):
        assert continuous_energy(0.0) == 0.0

    def test_half_closed_form(self):
        # sqrt(pi) / Gamma(3/4)^2, via the gamma oracle
        expected = math.sqrt(math.pi) / math.gamma(0.75) ** 2
        assert continuous_energy(0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1803405990160963, rel=1e-12)

    def test_forms_agree_on_grid(self):
        for s in np.arange(0.05, 1.0, 0.05):
            s = float(s)
            first = continuous_energy(s)
            second = math.gamma(1.0 - s) / math.gamma(1.0 - s / 2.0) ** 2
            assert first == pytest.approx(second, rel=1e-12)

    def test_against_mpmath_grid(self):
        for s in np.linspace(0.01, 0.99, 50):
            z = mp.mpf(float(s))
            want = 2 ** (-z) / mp.sqrt(mp.pi) * mp.gamma((1 - z) / 2) / mp.gamma(1 - z / 2)
            assert continuous_energy(float(s)) == pytest.approx(float(want), rel=1e-13)

    def test_continuity_at_zero(self):
        assert continuous_energy(1e-6) == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            continuous_energy(1.0)
        with pytest.raises(ValueError):
            continuous_energy(1.5)


class TestLimitCatalog:
    def test_critical(self):
        cat = limit_catalog(1.0)
        assert cat.regime == "critical"
        assert cat.first_order == pytest.approx(1.0 / math.pi, rel=1e-15)
        # gamma ~ 0.5772157 and log(8/pi) ~ 0.9347117, assembled from oracles
        expected = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi
        assert expected == pytest.approx(0.4812614133803565, rel=1e-12)
        assert cat.limsup == pytest.approx(expected, rel=1e-15)
        assert cat.i_sigma is None and cat.zeta is None
        # liminf bracket contains the -2 log 2 landmark value
        landmark = expected - 2.0 * math.log(2.0) / math.pi
        assert cat.liminf_lower < landmark
        assert cat.liminf_upper == pytest.approx(landmark, rel=1e-12)

    def test_supercritical_s2_exact(self):
        cat = limit_catalog(2.0)
        # 3 * 2 * zeta(2) / (2 pi)^2 = 1/4 exactly
        assert cat.limsup == pytest.approx(0.25, rel=1e-14)
        assert cat.first_order == pytest.approx(0.25, rel=1e-14)
        assert cat.liminf_lower == 0.0
        assert cat.liminf_upper <= 0.25 / 3.0 + 1e-12

    def test_subcritical_half(self):
        cat = limit_catalog(0.5)
        expected = (math.sqrt(2.0) - 1.0) * 2.0 * zeta(0.5) / math.sqrt(2.0 * math.pi)
        assert expected == pytest.approx(-0.4826392884367167, rel=1e-10)
        assert cat.limsup == pytest.approx(expected, rel=1e-14)
        assert cat.limsup < 0.0
        assert cat.first_order == pytest.approx(continuous_energy(0.5), rel=1e-15)
        # bracket: liminf in [2^s/(2^s-1)*c, max(found, 1/(2^s-1))*c]
        assert cat.liminf_lower < cat.liminf_upper < cat.limsup

    def test_log_case(self):
        cat = limit_catalog(0.0)
        assert cat.regime == "log"
        assert cat.i_sigma == 0.0
        assert cat.first_order == 0.0

    def test_serialization_keys(self):
        cat = limit_catalog(1.5)
        payload = json.loads(json.dumps(dataclasses.asdict(cat)))
        assert list(payload.keys()) == [
            "s", "regime", "i_sigma", "zeta", "first_order",
            "limsup", "liminf_lower", "liminf_upper",
        ]

    @pytest.mark.parametrize("s", [1e-300, 1e-12, 1e-6, 0.5, 1.5, 3.0, 390.0])
    def test_second_order_scale_against_mpmath(self, s):
        # 2**s - 1 cancels next to s = 0, and (2*pi)**s overflows from s = 387 on
        x = mp.mpf(s)
        two_s_minus_1 = mp.expm1(x * mp.log(2))
        expected = two_s_minus_1 * 2 * mp.zeta(x) / (2 * mp.pi) ** x
        assert second_order_scale(s) == pytest.approx(float(expected), rel=1e-14 + s * 1e-16)
        if s < 1:  # the lower end of the liminf bracket, 2**s/(2**s - 1) times the limsup
            lower = expected * mp.power(2, x) / two_s_minus_1
            assert limit_catalog(s).liminf_lower == pytest.approx(float(lower), rel=1e-14)

    @pytest.mark.parametrize("s", [5e-324, 1e-320, 1e-300])
    def test_tiny_exponents_against_mpmath(self, s):
        # below s = 3.2e-308, h = 1 - 2**(-s) is subnormal and the landmark 1/(2**s - 1) is inf;
        # at these s the landmark is the largest G, so liminf_upper is 2**(-s) 2 zeta(s)/pi**s
        x = mp.mpf(s)
        scale = 2 * mp.zeta(x) / mp.pi ** x
        i_s = mp.gamma(1 - x) / mp.gamma(1 - x / 2) ** 2
        want = {"s": x, "i_sigma": i_s, "zeta": mp.zeta(x), "first_order": i_s,
                "limsup": -mp.expm1(-x * mp.log(2)) * scale, "liminf_lower": scale,
                "liminf_upper": mp.power(2, -x) * scale}
        cat = limit_catalog(s)
        assert cat.regime == "subcritical"
        for key, value in want.items():  # the limsup is subnormal: at most one step off
            assert getattr(cat, key) == pytest.approx(float(value), rel=1e-14, abs=5e-324), key

    def test_second_order_scale_signs(self):
        assert second_order_scale(0.5) < 0.0
        assert second_order_scale(1.5) > 0.0
