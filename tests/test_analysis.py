"""Normalized series, limit-point checks, discrepancy, verification harness."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejacircle import analysis, binary, sequences
from lejacircle.analysis import (
    check_continuous_energy_forms,
    check_critical_t_limit,
    check_g_strictly_decreasing_in_s,
    check_roots_potential_identity,
    check_subcritical_r_limit,
    check_tau_binary_properties,
    check_theta_invariants,
    check_zeta_sign_and_euler_gamma,
    limit_point_check,
    normalized_series,
    roots_potentials,
    star_discrepancy,
    theta_limit_prediction,
    verify_all,
)
from lejacircle.binary import tau_b
from lejacircle.circle import (
    BudgetExceededError,
    Configuration,
    energy,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from lejacircle.sequences import (
    energy_series_from_extremal,
    extremal_values_structural,
    structural_angles,
)
from lejacircle.summation import pairwise_sum
from lejacircle.special import EULER_GAMMA, continuous_energy, second_order_scale, zeta

CRITICAL_LEVEL = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi

# The default verify_all report, in order.
DEFAULT_CHECK_NAMES = [
    "sup-norm-identity",
    "sup-norm-ratio-dyadic-ones",
    "sup-norm-ratio-doubling-decreasing",
    "roots-potential-identity[s=0.5]",
    "midpoint-energy-identity[s=0.5]",
    "roots-potential-identity[s=1]",
    "midpoint-energy-identity[s=1]",
    "roots-potential-identity[s=1.5]",
    "midpoint-energy-identity[s=1.5]",
    "roots-potential-identity[s=2]",
    "midpoint-energy-identity[s=2]",
    "inverse-square-bruteforce",
    "inverse-square-closed-form",
    "roots-energy-direct[s=0.5]",
    "roots-energy-direct[s=1]",
    "roots-energy-direct[s=1.5]",
    "roots-energy-direct[s=2]",
    "binary-decomposition-potential[s=0.5]",
    "binary-decomposition-potential[s=1]",
    "binary-decomposition-potential[s=1.5]",
    "binary-decomposition-potential[s=2]",
    "subcritical-w-r-relation[s=0.5]",
    "subcritical-r-limit[s=0.5]",
    "subcritical-negative[s=0.5]",
    "subcritical-window[s=0.5]",
    "divergence-witnesses[s=0.5]",
    "critical-t-limit",
    "critical-first-order-corrected",
    "divergence-witnesses[s=1]",
    "critical-window",
    "supercritical-w-limit[s=1.5]",
    "supercritical-window[s=1.5]",
    "divergence-witnesses[s=1.5]",
    "supercritical-w-limit[s=2]",
    "supercritical-window[s=2]",
    "supercritical-quarter[s=2]",
    "divergence-witnesses[s=2]",
    "extremal-monotone[s=0.5]",
    "greedy-energy-dominates-roots[s=0.5]",
    "extremal-monotone[s=1]",
    "greedy-energy-dominates-roots[s=1]",
    "extremal-monotone[s=1.5]",
    "greedy-energy-dominates-roots[s=1.5]",
    "extremal-monotone[s=2]",
    "greedy-energy-dominates-roots[s=2]",
    "continuous-energy-forms",
    "zeta-sign-and-euler-gamma",
    "theta-invariants",
    "g-strictly-decreasing-in-s",
    "tau-binary-properties",
    "summation-reversal",
    "cross-construction[s=0.5]",
    "cross-construction[s=2]",
    "generalized-greedy-trend[s=0.5]",
]


def brute_star_discrepancy(points):
    """O(N^2) oracle: max deviation over anchored intervals [0, t).

    The supremum is attained with t at a sample point (closed or open side),
    so checking counts at and just around each sample suffices.
    """
    x = sorted(points)
    n = len(x)
    worst = 0.0
    for t in x + [1.0]:
        below = sum(1 for v in x if v < t)
        below_eq = sum(1 for v in x if v <= t)
        worst = max(worst, abs(below / n - t), abs(below_eq / n - t))
    return worst


class TestNormalizedSeries:
    def test_supercritical_s2_is_quarter(self):
        ser = normalized_series("W_supercritical", 2.0, 64)
        np.testing.assert_allclose(ser.values, 0.25, rtol=1e-10)

    def test_extremal_s0_exact_ones(self):
        ser = normalized_series("extremal", 0.0, 4096)
        for m in range(1, 12):
            assert ser.values[(1 << m) - 2] == 1.0

    def test_extremal_s0_bounds(self):
        ser = normalized_series("extremal", 0.0, 4096)
        assert np.all(ser.values > 0.0)
        assert np.all(ser.values <= 1.0)

    def test_t_critical_converges(self):
        ser = normalized_series("T_critical", 1.0, 1024)
        assert abs(ser.values[-1] - CRITICAL_LEVEL) < 1e-3

    def test_w1_starts_at_two(self):
        ser = normalized_series("W1_critical", 1.0, 64)
        assert ser.n[0] == 2
        assert np.all(np.isfinite(ser.values))

    def test_w_subcritical_limit(self):
        ser = normalized_series("W_subcritical", 0.5, 1024)
        assert abs(ser.values[-1] - second_order_scale(0.5)) < 1e-6

    def test_r_subcritical_limit(self):
        ser = normalized_series("R_subcritical", 0.5, 1024)
        assert abs(ser.values[-1] - 2.0 * zeta(0.5) / math.sqrt(2.0 * math.pi)) < 1e-6

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            normalized_series("W_subcritical", 1.5, 64)
        with pytest.raises(ValueError):
            normalized_series("T_critical", 0.5, 64)
        with pytest.raises(ValueError):
            normalized_series("extremal", -0.5, 64)
        for kind in ("nope", "log_ratio", "second_order_1"):
            with pytest.raises(ValueError):
                normalized_series(kind, 0.5, 64)

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 1.5, 3.5])
    def test_extremal_kind_is_extremal_series(self, s):
        # the extremal series: the regime normalization of the structural U_N(a_N), N = 1..300
        ser = normalized_series("extremal", s, 300)
        n = np.arange(1.0, 301.0)
        u = extremal_values_structural(300, s)
        ref = {0.0: np.bitwise_count(np.arange(1, 301)) / np.log2(n + 1.0),
               0.3: (u - n * continuous_energy(0.3)) / n ** 0.3,
               1.0: (u - n * np.log(n) / math.pi) / n}.get(s, u / n ** s)
        assert ser.kind == "extremal" and ser.s == s and ser.n.tolist() == list(range(1, 301))
        assert np.array_equal(ser.values, ref)


class TestExtremalSeries:
    def test_subcritical_dyadic_value(self):
        ser = normalized_series("extremal", 0.5, 4096)
        assert abs(ser.values[4095] - second_order_scale(0.5)) < 1e-4

    def test_all_ones_exact_identity(self):
        # at N = 2^p - 1 the value equals R(2^p)*(1 - 2^-p)^(-s) + I_s*(2^p-1)^(-s)
        s = 0.5
        i_sigma = continuous_energy(s)
        ser = normalized_series("extremal", s, 4095)
        p = 12
        n = (1 << p) - 1
        m = 1 << p
        r_val = (roots_energy(m, s) - m * m * i_sigma) / m ** (1 + s)
        predicted = r_val * (1.0 - 2.0 ** -p) ** (-s) + i_sigma * n ** (-s)
        assert ser.values[n - 1] == pytest.approx(predicted, rel=1e-12)
        # the slow I_s*N^(-s) term keeps this subsequence ~0.018 from its limit here
        assert abs(ser.values[n - 1] - 2.0 * zeta(s) / math.sqrt(2.0 * math.pi)) < 0.02

    def test_everywhere_negative(self):
        for s in (0.1, 0.5, 0.9):
            ser = normalized_series("extremal", s, 2048)
            assert np.all(ser.values < 0.0)

    def test_reconstruction_against_w_table(self):
        # value at N equals sum_k W(2^(n_k)) * (2^(n_k)/N)^s over the bits of N
        s = 0.5
        ser = normalized_series("extremal", s, 512)
        w = normalized_series("W_subcritical", s, 512).values
        worst = 0.0
        for n in range(1, 513):
            total = 0.0
            for j in range(10):
                if (n >> j) & 1:
                    total += w[(1 << j) - 1] * ((1 << j) / n) ** s
            worst = max(worst, abs(total - ser.values[n - 1]))
        assert worst < 1e-10

    def test_supercritical_positive_bounded(self):
        for s in (1.5, 3.5):
            ser = normalized_series("extremal", s, 2048)
            assert np.all(ser.values > 0.0)
            w = normalized_series("W_supercritical", s, 2048).values
            bound = float(np.max(w)) * 2.0 ** s / (2.0 ** s - 1.0)
            assert np.all(ser.values <= bound + 1e-12)

    def test_negative_s_raises(self):
        with pytest.raises(ValueError):
            normalized_series("extremal", -0.5, 64)
        with pytest.raises(ValueError):
            normalized_series("extremal", float("nan"), 64)

    def test_log_case_is_the_direct_potential(self):
        # -U_N(a_N) at s = 0 is the log of the product of distances, summed directly
        n = 1024
        direct = -prefix_potentials(structural_angles(n + 1), 0.0) / np.log(np.arange(2, n + 2))
        np.testing.assert_allclose(normalized_series("extremal", 0.0, n).values, direct, rtol=0, atol=1e-12)


class TestThetaLimitPrediction:
    def test_single_component_subcritical(self):
        assert theta_limit_prediction(1, 0.5) == pytest.approx(second_order_scale(0.5), rel=1e-15)

    def test_m3_supercritical(self):
        # G((2/3, 1/3); 2) = 5/9 exactly, times 1/4
        assert theta_limit_prediction(3, 2.0) == pytest.approx(5.0 / 36.0, rel=1e-12)

    def test_critical_single(self):
        assert theta_limit_prediction(1, 1.0) == pytest.approx(CRITICAL_LEVEL, rel=1e-14)

    def test_log_case_rejected(self):
        with pytest.raises(ValueError):
            theta_limit_prediction(1, 0.0)


class TestLimitPointCheck:
    def test_m3_subcritical(self):
        res = limit_point_check(3, 2, 0.5, 12)
        assert res.n == 3 << 12
        assert res.gap <= 1e-3

    def test_exact_s2(self):
        res = limit_point_check(1, 1, 2.0, 5)
        assert res.gap <= 1e-9

    def test_trailing_zero_realization(self):
        gaps = [limit_point_check(13, 4, 0.5, d).gap for d in (6, 10, 14)]
        assert gaps[2] < gaps[1] < gaps[0]
        # witness index carries the appended low bit
        assert limit_point_check(13, 4, 0.5, 6).n == (13 << 6) + 1

    def test_critical(self):
        res = limit_point_check(3, 2, 1.0, 12)
        predicted = theta_limit_prediction(3, 1.0)
        assert res.predicted == pytest.approx(predicted, rel=1e-15)
        assert res.gap <= 1e-3

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            limit_point_check(3, 2, 0.5, 20)

    def test_n_power_overflows(self):
        # the observed value is the extremal series' entry at the witness, bit for bit; at
        # s = 400, 24**400 overflows while U_24 stays finite, and observed is about 2e-269
        for m, p, s, depth in [(3, 2, 0.5, 12), (3, 2, 1.0, 12), (1, 1, 2.0, 5), (13, 4, 0.5, 6),
                               (3, 2, 400.0, 3)]:
            res = limit_point_check(m, p, s, depth)
            assert res.observed == normalized_series("extremal", s, res.n).values[res.n - 1]

    def test_running_potential_overflow_is_the_series_refusal(self):
        # U_24 itself overflows at s = 1000; the witness gets the extremal series' error, not nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^the running potential overflows float64 at s=1000.0, N=24$"
            with pytest.raises(ValueError, match=message):
                limit_point_check(3, 2, 1000.0, 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_point_check(13, 2, 0.5, 6)  # p < tau_b(13) = 3
        with pytest.raises(ValueError):
            limit_point_check(4, 2, 0.5, 6)
        with pytest.raises(ValueError):
            limit_point_check(13, 4, 0.5, 0)
        with pytest.raises(ValueError):
            limit_point_check(1, 5, 0.5, 3)  # 4 trailing zeros need depth >= 4
        # s = 0 has no prediction; it is refused before the witness is summed
        with pytest.raises(ValueError, match="^no second-order limit-point prediction in the log case$"):
            limit_point_check(3, 2, 0.0, 4)


class TestStarDiscrepancy:
    def test_equally_spaced(self):
        for m in (4, 6):
            n = 1 << m
            assert star_discrepancy(structural_angles(n)) == pytest.approx(2.0 ** -m, abs=1e-15)

    def test_brute_force_oracle_m4(self):
        x = structural_angles(16)
        assert star_discrepancy(x) == pytest.approx(brute_star_discrepancy(x.tolist()), abs=1e-14)

    def test_single_point_at_origin(self):
        assert star_discrepancy([0.0]) == 1.0

    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, xs):
        assert star_discrepancy(xs) == pytest.approx(brute_star_discrepancy(xs), abs=1e-12)


class TestVerifyAll:
    def test_defaults_pass(self):
        report = verify_all(n_max=512)
        assert [c.name for c in report.checks] == DEFAULT_CHECK_NAMES
        failing = [c.name for c in report.checks if not c.passed]
        assert report.all_pass, f"failing checks: {failing}"
        # identity-type checks stay at rounding level
        for check in report.checks:
            if "identity" in check.name or "decomposition" in check.name:
                assert check.residual < 1e-9

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_all(n_max=(1 << 20) + 1)

    def test_passed_is_a_python_bool(self):
        # every check reports a Python bool, whatever the type of its residual
        checks = verify_all(n_max=64).checks
        assert [c.name for c in checks if type(c.passed) is not bool] == []

    @pytest.mark.parametrize("n", [2048, 2100, 8192])
    def test_limit_rows_keep_the_table_residuals(self, n):
        # critical-t-limit and subcritical-r-limit read rows of the T and R series; their
        # residuals are bitwise those of midpoint_potential at n and roots_energy at n // 2, n - 1, n
        t = (midpoint_potential(n, 1.0) - n * np.log(float(n)) / math.pi) / n
        assert check_critical_t_limit(n).residual.hex() == float(abs(t - CRITICAL_LEVEL)).hex()
        s, ns = 0.5, np.array([n // 2, n - 1, n])
        nf = ns.astype(np.float64)
        e = roots_energy(ns, [0.5, 1.0, 1.5, 2.0])[0]
        r = (e - nf ** 2 * continuous_energy(s)) / nf ** (1.0 + s)
        res = np.abs(r - 2.0 * zeta(s) / (2.0 * math.pi) ** s)
        got = check_subcritical_r_limit(s, n)
        assert got.residual.hex() == float(max(res[2], res[1])).hex()
        assert got.detail == f"shrink {res[0] / res[2]:.2f}x per doubling"

    @pytest.mark.parametrize("part", ["tau-binary", "harmonic-sum", "roots-potentials"])
    def test_shared_work_bounded_memory(self, part):
        # N = 1..10**6 goes in blocks and the roots' potentials are one table of
        # floats: whole int32 arrays of 10**6 N, 10**6 harmonic terms and 1023
        # chord arrays (N <= 1024) took 13.4, 7.6 and 4.1 MB
        def roots_potential_checks():
            s_grid = (0.5, 1.0, 1.5, 2.0)
            energies = roots_energy(np.arange(1, 1025), s_grid)
            for s, row, e in zip(s_grid, roots_potentials(1024, s_grid), energies):
                assert check_roots_potential_identity(s, row, e).passed

        run = {
            "tau-binary": check_tau_binary_properties,
            "harmonic-sum": check_zeta_sign_and_euler_gamma,
            "roots-potentials": roots_potential_checks,
        }[part]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_report_serializes(self):
        report = verify_all(n_max=64, s_grid=(2.0, 2.0))
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        payload = report.to_dict()
        assert set(payload) == {"all_pass", "checks"}
        assert all({"name", "status", "residual", "budget", "detail"} == set(c) for c in payload["checks"])

    def test_shared_arrays_keep_each_checks_indices(self):
        # verify_all hands the checks slices of arrays it builds once; these
        # residuals, recomputed from per-N scalar calls, must come out equal.
        n = 64
        got = {c.name: c.residual for c in verify_all(n_max=n).checks}

        def rel(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))

        log_products = -prefix_potentials(structural_angles(n + 1), 0.0)
        taus = np.array([tau_b(k) for k in range(1, n + 1)], dtype=np.float64)
        assert got["sup-norm-identity"] == float(np.max(np.abs(log_products - taus * math.log(2.0))))
        ks = range(2, n + 1)
        closed = [(k * k - 1.0) / 12.0 for k in ks]
        assert got["inverse-square-closed-form"] == rel([roots_energy(k, 2.0) / k for k in ks], closed)
        brute = [energy(Configuration.from_turns(np.arange(k) / k), 2.0) for k in ks]
        assert got["inverse-square-bruteforce"] == rel(brute, [k * (k * k - 1) / 12.0 for k in ks])
        series = {}  # the normalized extremal series, N = 1..n, one call per N
        for s in (0.5, 1.0, 1.5, 2.0):
            direct = [energy(Configuration.from_turns(np.arange(k) / k), s) for k in ks]
            assert got[f"roots-energy-direct[s={s:g}]"] == rel(direct, [roots_energy(k, s) for k in ks])
            lhs = [pairwise_sum((2.0 * np.sin(np.pi * (np.arange(1, k) / k))) ** -s) for k in ks]
            rhs = [roots_energy(k, s) / k for k in ks]
            assert got[f"roots-potential-identity[s={s:g}]"] == rel(lhs, rhs)
            e = np.array([roots_energy(k, s) / k for k in range(1, 2 * n + 1)])
            mid = midpoint_potential(np.arange(1, n + 1), s)
            assert got[f"midpoint-energy-identity[s={s:g}]"] == rel(mid, e[1::2] - e[:n])
            u = prefix_potentials(structural_angles(n + 1), s)
            assert got[f"binary-decomposition-potential[s={s:g}]"] == rel(u, extremal_values_structural(n, s))
            greedy = energy_series_from_extremal(extremal_values_structural(n - 1, s))
            worst = max(0.0, *(roots_energy(k, s) - greedy[k - 1] for k in ks))
            assert got[f"greedy-energy-dominates-roots[s={s:g}]"] == worst
            ext = np.array([extremal_values_structural(k, s)[-1] for k in range(1, n + 1)])
            assert got[f"extremal-monotone[s={s:g}]"] == float(np.max(ext[:-1] - ext[1:]))
            series[s] = np.array([normalized_series("extremal", s, max(k, 2)).values[k - 1]
                                  for k in range(1, n + 1)])
            gap = abs(series[s][n - 1] - series[s][n - 2])  # N = 2**6 and 2**6 - 1
            assert got[f"divergence-witnesses[s={s:g}]"] == gap
        s = 0.5
        e = np.array([roots_energy(k, s) for k in range(1, 2 * n + 1)])
        nf = np.arange(1, 2 * n + 1, dtype=np.float64)
        r = (e - nf ** 2 * continuous_energy(s)) / nf ** (1.0 + s)
        w = normalized_series("W_subcritical", s, n).values
        worst = float(np.max(np.abs(w - (2.0 ** s * r[1::2] - r[:n]))))
        assert got["subcritical-w-r-relation[s=0.5]"] == worst
        c_r = 2.0 * zeta(s) / (2.0 * math.pi) ** s
        assert got["subcritical-r-limit[s=0.5]"] == max(abs(r[n - 1] - c_r), abs(r[n - 2] - c_r))
        assert got["subcritical-window[s=0.5]"] == -float(np.min(series[s]))

    def test_each_shared_table_is_built_once(self, monkeypatch):
        # the direct energies of the N-th roots, N = 2..512, are built once;
        # E_s(N) only at the N the checks read, N <= 2*1024 and the three at
        # which subcritical-r-limit reads R; per positive s, one structural
        # U_N(a_N) array, whose normalization is the extremal series and whose
        # slices the cross-construction and first-order checks read, so the
        # doubling terms are built once per positive s
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append((name, *args))
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("energy", "roots_energy", "extremal_values_structural", "normalized_series"):
            counting(analysis, name)
        counting(analysis, "_value_terms")  # the extremal series' row source
        counting(sequences, "_value_terms")  # extremal_values_structural's
        assert verify_all().all_pass
        assert sum(name == "energy" for name, *_ in calls) == 511
        for s in (0.5, 1.0, 1.5, 2.0):
            assert calls.count(("extremal_values_structural", 2048, s)) == 1
        assert sum(name == "extremal_values_structural" for name, *_ in calls) == 4
        assert not any(c[:2] == ("normalized_series", "extremal") and c[2] > 0 for c in calls)
        assert sum(name == "_value_terms" for name, *_ in calls) == 4
        calls.clear()
        verify_all(n_max=2100)
        assert sum(np.size(c[1]) for c in calls if c[0] == "roots_energy") <= 2 * 1024 + 3


class TestContinuousEnergyForms:
    def test_checks_the_library_function(self, monkeypatch):
        # the check compares special.continuous_energy itself with Gamma(1-s)/Gamma(1-s/2)**2
        res = check_continuous_energy_forms()
        assert res.passed and res.residual.hex() == "0x1.45546f61e66e6p-51"
        original = analysis.continuous_energy
        monkeypatch.setattr(analysis, "continuous_energy", lambda s: original(s) * (1.0 + 1e-9))
        res = check_continuous_energy_forms()
        assert not res.passed and res.residual > 9e-10


def theta_invariants_loop(s_values):
    """``check_theta_invariants`` as a loop of exact values over every odd M < 2**12: (passed, residual)."""
    worst = 0.0
    ok = True
    for m in binary.enumerate_theta(12, 12):
        exps = binary.decompose(m)
        ok = ok and sum(1 << e for e in exps) == m
        ok = ok and all(1 << (e + k - 1) <= m for k, e in enumerate(exps, start=1))
        lam = binary.lambda_value(m)
        ok = ok and -2.5 < lam <= 0.0
        for s in (s for s in s_values if s != 1.0):
            g = binary.g_value(m, s)
            ok = ok and (1.0 <= g < 2.0 ** s / (2.0 ** s - 1.0) if s < 1 else 0.0 < g <= 1.0)
        worst = min(worst, lam)
    return ok, worst


def g_decreasing_loop(s_values):
    """``check_g_strictly_decreasing_in_s`` as a loop of exact values over every odd 1 < M < 2**8."""
    mono_ok = True
    grid_s = sorted(set(s_values) | {0.25, 0.75, 1.25, 3.0})
    for m in binary.enumerate_theta(8, 8)[1:]:
        gs = [binary.g_value(m, s) for s in grid_s]
        mono_ok = mono_ok and all(a > b for a, b in zip(gs, gs[1:]))
    return mono_ok, 0.0


class TestThetaChecksOnTheScreen:
    # at s = 1100, theta_1**s underflows for theta_1 near 1/2 (M = 2**12 - 1), so G = 0 there
    GRIDS = [(0.5, 1.0, 1.5, 2.0), (0.05, 0.999, 1.001, 8.0), (1100.0,)]

    @pytest.mark.parametrize("s_values", GRIDS)
    def test_theta_invariants_match_the_exact_loop(self, s_values):
        got = check_theta_invariants(s_values)
        passed, residual = theta_invariants_loop(s_values)
        assert got.passed == passed
        assert got.residual.hex() == residual.hex()
        assert (got.name, got.budget, got.detail) == (
            "theta-invariants", -2.5, "sum=1 exact, decay, G/Lambda brackets")
        assert passed == (s_values != (1100.0,))

    @pytest.mark.parametrize("s_values", GRIDS)
    def test_g_decreasing_matches_the_exact_loop(self, s_values):
        got = check_g_strictly_decreasing_in_s(s_values)
        passed, residual = g_decreasing_loop(s_values)
        assert (got.passed, got.residual.hex()) == (passed, residual.hex())
        assert passed

    def test_a_screen_value_near_a_bracket_end_is_decided_exactly(self):
        # the screen puts M = 3 a rounding error past the end 1.0; exactly it is inside
        m = np.array([1, 3, 5])
        screen = np.array([0.5, 1.0 + 1e-15, 0.9])
        exact = {1: 0.5, 3: 1.0, 5: 0.9}.get
        near = binary._near(screen, 1.0)
        assert near.tolist() == [False, True, False]
        assert binary._all_hold(m, screen, near, lambda v: v <= 1.0, exact)
        assert not binary._all_hold(m, screen, near, lambda v: v < 1.0, exact)

    @pytest.mark.parametrize("check", [check_theta_invariants, check_g_strictly_decreasing_in_s])
    def test_exponents_are_validated(self, check):
        for s_values in ([0.5, -1.0], [0.5, math.inf], [math.nan]):
            with pytest.raises(ValueError):
                check(s_values)

    @pytest.mark.parametrize("part", ["check", "decompose"])
    def test_leaves_no_parked_tuples(self, part):
        # a tuple built from a generator in decompose went to a free list on every
        # call: 0.81 MB stayed traced after the per-M check, five calls per M
        def decompose_five_times():
            for m in range(1, 1 << 12, 2):
                for _ in range(5):
                    binary.decompose(m)

        run = {"check": lambda: check_theta_invariants((0.5, 1, 1.5, 2)),
               "decompose": decompose_five_times}[part]
        gc.collect()  # empties the free lists
        tracemalloc.start()
        try:
            run()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.05 * 2 ** 20
