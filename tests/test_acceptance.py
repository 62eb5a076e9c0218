"""End-to-end acceptance suite.

Each test covers one acceptance area, runs all of its clauses, prints a
single PASS/FAIL summary line (visible with ``pytest -s`` or on failure), and
asserts at the end so every clause is always evaluated and reported.  Where a
clause restates a ``verify_all`` check it calls the same ``check_*``
function with this suite's own N and tolerance, and where the check takes
an array, with this suite's own sums, one per row.

The paper proves limits, but every clause evaluates a finite N. Where the
remainder at that N is known and larger than the clause's tolerance, the
clause compares the observed value with the finite-N prediction, keeping the
stated N and tolerance (see README, "Finite-N remainders"):

* critical first order, N = 2**12: U_N(a_N)/(N log N) is compared with
  1/pi + T/log N, T = (gamma + log(8/pi))/pi, because the second-order
  constant enters at scale 1/log N (a bare 1/pi would need N > e**240); the
  shared check evaluates it as (U_N(a_N) - N T)/(N log N) against 1/pi;
* subcritical all-ones subsequence, N = 2**p - 1: the dyadic blocks
  telescope to U_N(a_N) = E_s(N+1)/(N+1), so with the roots-of-unity
  expansion E_s(M) = I_s M**2 + c M**(1+s) + O(M**(s-1)),
  c = 2 zeta(s)/(2 pi)**s, the series is (I_s + c (N+1)**s)/N**s + O(N**-2);
  its distance from c itself is I_s N**(-s), which shrinks only by 2**s per
  doubling;
* generalized greedy energy, N = 512: the N-th roots of unity minimize the
  energy and already sit at E_s(N)/N**2 - I_s = c N**(s-1) (about -0.05 at
  s = 1/2), so the greedy energy is compared with the minimal N-point energy,
  roots_energy(N, s) for s > 0 and -N log N for s = 0, and must not lie below
  it.
"""

import csv
import math
import sys

import numpy as np
import pytest

from lejacircle.analysis import (
    check_binary_decomposition_potential,
    check_critical_first_order_corrected,
    check_cross_construction,
    check_inverse_square_bruteforce,
    check_midpoint_energy_identity,
    check_roots_potential_identity,
    check_sup_norm_identity,
    check_sup_norm_ratio_doubling_decreasing,
    check_sup_norm_ratio_dyadic_ones,
    check_supercritical_window,
    limit_point_check,
    normalized_series,
    roots_potentials,
    star_discrepancy,
)
from lejacircle.binary import (
    enumerate_theta,
    g_value,
    lambda_value,
    search_g_extremes,
    search_lambda,
)
from lejacircle.circle import (
    Configuration,
    chord_kernel,
    chord_lengths,
    energy,
    midpoint_potential,
    roots_energy,
)
from lejacircle.cli import main as cli_main
from lejacircle.sequences import extremal_values_structural, greedy_numerical
from lejacircle.special import EULER_GAMMA, continuous_energy, zeta
from lejacircle.summation import pairwise_sum

S_GRID = (0.5, 1.0, 1.5, 2.0)


class Criterion:
    """Collects clause results and reports one summary line.

    The summary is written to the real stdout so it shows up even under
    pytest's output capture; failing clauses additionally surface through the
    assertion message.
    """

    def __init__(self, title):
        self.title = title
        self.failures = []
        self.total = 0

    def check(self, ok, message):
        self.total += 1
        if not ok:
            self.failures.append(message)

    def require(self, result, context=""):
        """One clause from a shared verification check's CheckResult."""
        message = f"{result.name}: residual {result.residual:.2e}, budget {result.budget:.2e}"
        self.check(result.passed, f"{context}{message}")

    def finish(self):
        status = "PASS" if not self.failures else "FAIL"
        passed = self.total - len(self.failures)
        lines = [f"[{status}] acceptance: {self.title} ({passed}/{self.total} clauses)"]
        lines += [f"        failed clause: {message}" for message in self.failures]
        report = "\n".join(lines)
        print(report)
        if sys.stdout is not sys.__stdout__:
            print(report, file=sys.__stdout__)
        assert not self.failures, f"{self.title}: {'; '.join(self.failures)}"


@pytest.fixture(scope="module")
def generalized_runs():
    """Numerical greedy from three fixed initial points, grown to 512."""
    initial = Configuration.from_turns([0.0, 0.1, 0.37])
    return {s: greedy_numerical(initial, s, 512) for s in (0.0, 0.5)}


def test_distance_product_identity(canonical_angles_5001):
    crit = Criterion("distance-product identity and norm ratio")
    ang = canonical_angles_5001
    log_products = [pairwise_sum(np.log(chord_lengths(ang[:n], ang[n]))) for n in range(1, 5001)]
    crit.require(check_sup_norm_identity(-np.array(log_products)))  # against tau_b(N) log 2

    crit.require(check_sup_norm_ratio_dyadic_ones((1 << 12) - 1))  # m <= 12
    crit.require(check_sup_norm_ratio_doubling_decreasing(64))
    crit.finish()


def test_potential_binary_decomposition(canonical_angles_5001):
    crit = Criterion("binary decomposition of the extremal potential")
    ang = canonical_angles_5001
    for s in S_GRID:
        direct = [pairwise_sum(chord_kernel(chord_lengths(ang[:n], ang[n]), s)) for n in range(1, 2049)]
        series = extremal_values_structural(2048, s)
        crit.require(check_binary_decomposition_potential(s, np.array(direct), series))
    crit.finish()


def test_roots_of_unity_identities():
    crit = Criterion("roots-of-unity potential and energy identities")
    # potentials[N-2] is the potential of the N-th roots at one root, N <= 1024;
    # e[N-1] = E_s(N), N <= 2 * 1024
    table = zip(S_GRID, roots_potentials(1024, S_GRID), roots_energy(np.arange(1, 2049), S_GRID))
    for s, potentials, e in table:
        crit.require(check_roots_potential_identity(s, potentials, e[:1024]))
        crit.require(check_midpoint_energy_identity(s, e))

    direct = []  # the s = 2 energy of the N-th roots, 2 <= N <= 64, one pair sum per point
    for n in range(2, 65):
        a = np.arange(n) / n
        direct.append(2.0 * sum(pairwise_sum(chord_lengths(a[i + 1:], a[i]) ** -2.0) for i in range(n - 1)))
    crit.require(check_inverse_square_bruteforce(np.array(direct)))

    n = np.arange(1, 4097)
    worst = float(np.max(np.abs(midpoint_potential(n, 2.0) / (n * n) - 0.25) / 0.25))
    crit.check(worst <= 1e-10, f"midpoint inverse-square N^2/4 residual {worst:.2e} > 1e-10")

    series = extremal_values_structural(4096, 2.0)
    worst = 0.0
    for n in range(1, 4097):
        exact = sum(4 ** j for j in range(n.bit_length()) if (n >> j) & 1) / 4.0
        worst = max(worst, abs(series[n - 1] - exact) / exact)
    crit.check(worst <= 1e-10, f"extremal inverse-square power sum residual {worst:.2e} > 1e-10")
    crit.finish()


def test_subcritical_second_order_limits():
    crit = Criterion("subcritical second-order limits (s = 1/2)")
    s = 0.5
    dyadic_limit = (2.0 ** s - 1.0) * 2.0 * zeta(s) / (2.0 * math.pi) ** s
    ones_limit = 2.0 * zeta(s) / (2.0 * math.pi) ** s
    series = normalized_series("extremal", s, 1 << 12).values

    res_dyadic = abs(series[(1 << 12) - 1] - dyadic_limit)
    res_dyadic_half = abs(series[(1 << 11) - 1] - dyadic_limit)
    crit.check(res_dyadic <= 1e-4, f"dyadic residual {res_dyadic:.2e} > 1e-4")
    crit.check(
        res_dyadic_half >= 3.0 * res_dyadic,
        f"dyadic residual shrink {res_dyadic_half / res_dyadic:.2f}x < 3x",
    )

    # The dyadic blocks of N = 2**p - 1 telescope: U_N(a_N) = E_s(2**p)/2**p.
    ext = extremal_values_structural((1 << 12) - 1, s)
    worst = 0.0
    for p in range(1, 13):
        m = 1 << p
        rhs = roots_energy(m, s) / m
        worst = max(worst, abs(ext[m - 2] - rhs) / abs(rhs))
    crit.check(worst <= 1e-12, f"telescoping identity residual {worst:.2e} > 1e-12")

    # Hence the series at N = 2**p - 1 is (I_s + c*(N+1)**s)/N**s + O(N**-2).
    i_sigma = continuous_energy(s)

    def ones_prediction(n):
        return (i_sigma + ones_limit * (n + 1) ** s) / n ** s

    res_ones = abs(series[(1 << 12) - 2] - ones_prediction((1 << 12) - 1))
    res_ones_half = abs(series[(1 << 11) - 2] - ones_prediction((1 << 11) - 1))
    crit.check(res_ones <= 1e-3, f"all-ones residual {res_ones:.2e} > 1e-3")
    crit.check(
        res_ones_half >= 3.0 * res_ones,
        f"all-ones residual shrink {res_ones_half / res_ones:.2f}x < 3x",
    )

    # Separation is judged on the raw distances of each subsequence from its limit.
    raw_ones = abs(series[(1 << 12) - 2] - ones_limit)
    separation = abs(dyadic_limit - ones_limit)
    crit.check(
        separation > 10.0 * max(res_dyadic, raw_ones),
        "the two subsequence limits do not separate beyond the residuals",
    )
    crit.finish()


def test_critical_limits():
    crit = Criterion("critical limits (s = 1)")
    n = 1 << 12
    level = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi  # recomputed ~0.48126
    assert abs(level - 0.48126) < 5e-6

    # The second-order constant enters the first-order ratio at scale 1/log N.
    crit.require(check_critical_first_order_corrected(extremal_values_structural(n, 1.0), 2e-3))

    t_val = normalized_series("extremal", 1.0, n).values[-1]
    res_t = abs(t_val - level)
    crit.check(res_t <= 1e-3, f"second-order value residual {res_t:.2e} > 1e-3")
    crit.finish()


def test_supercritical_limits():
    crit = Criterion("supercritical limits (s = 3 and s = 2)")
    n = 1 << 12
    const = 7.0 * zeta(3.0) / (4.0 * math.pi ** 3)  # recomputed ~0.06784
    assert abs(const - 0.06784) < 5e-6
    value = normalized_series("extremal", 3.0, n).values[-1]
    res = abs(value - const)
    crit.check(res <= 1e-4, f"s=3 dyadic residual {res:.2e} > 1e-4")

    value2 = normalized_series("extremal", 2.0, n).values[-1]
    res2 = abs(value2 - 0.25)
    crit.check(res2 <= 1e-10, f"s=2 dyadic value residual {res2:.2e} > 1e-10")
    crit.finish()


def test_digit_functional_bounds_and_searches():
    crit = Criterion("digit-direction functionals: brackets, searches, limit point")
    upper_half = 2.0 ** 0.5 / (2.0 ** 0.5 - 1.0)  # 2 + sqrt 2 < 3.4142136
    ok_half = ok_two = ok_lam = True
    for m in enumerate_theta(16, 16):
        g_half = g_value(m, 0.5)
        g_two = g_value(m, 2.0)
        lam = lambda_value(m)
        ok_half = ok_half and 1.0 <= g_half < 3.4142136 and g_half < upper_half
        ok_two = ok_two and 0.0 < g_two <= 1.0
        ok_lam = ok_lam and -2.5 < lam <= 0.0
    crit.check(ok_half, "G(.; 1/2) outside [1, 2^s/(2^s-1)) for an enumerated vector")
    crit.check(ok_two, "G(.; 2) outside (0, 1] for an enumerated vector")
    crit.check(ok_lam, "Lambda outside (-2.5, 0] for an enumerated vector")

    sup_half = search_g_extremes(0.5, 16).sup_found
    crit.check(sup_half >= 2.40, f"sup G(.; 1/2) search found {sup_half:.4f} < 2.40")
    inf_two = search_g_extremes(2.0, 16).inf_found
    crit.check(inf_two <= 0.3334, f"inf G(.; 2) search found {inf_two:.5f} > 0.3334")
    lam_min = search_lambda(16).inf_found
    crit.check(lam_min <= -1.35, f"inf Lambda search found {lam_min:.4f} > -1.35")

    gap = limit_point_check(3, 2, 0.5, 12).gap
    crit.check(gap <= 1e-3, f"limit-point witness gap {gap:.2e} > 1e-3")
    crit.finish()


def test_generalized_greedy_distribution(generalized_runs):
    crit = Criterion("generalized greedy: energy, discrepancy, monotonicity")
    for s, run in generalized_runs.items():
        i_sigma = continuous_energy(s)
        allowed = 0.02 * max(i_sigma, 1.0)
        # The N-th roots of unity minimize the N-point energy; they are the baseline.
        n = len(run.points)
        e_min = roots_energy(n, s) if s > 0 else -n * math.log(n)
        e_greedy = energy(run.points, s)
        gap = (e_greedy - e_min) / n ** 2
        crit.check(
            abs(gap) <= allowed,
            f"s={s}: energy gap to the minimal energy {gap:+.4f} beyond +/-{allowed:.4f}",
        )
        crit.check(
            e_greedy >= e_min - 1e-12 * abs(e_min),
            f"s={s}: greedy energy {e_greedy:.12g} below the minimal energy {e_min:.12g}",
        )

        discs = [star_discrepancy(run.points.angles()[:n]) for n in (64, 128, 256, 512)]
        crit.check(discs[-1] <= 0.05, f"s={s}: discrepancy {discs[-1]:.4f} > 0.05 at N=512")
        trend = all(b <= 1.1 * a for a, b in zip(discs, discs[1:]))
        crit.check(trend, f"s={s}: discrepancy not non-increasing within 10%: {discs}")

        ext = np.array(run.extremal_values)
        if s > 0:
            mono = bool(np.all(np.diff(ext[run.p:]) >= -1e-9 * np.max(np.abs(ext))))
            crit.check(mono, f"s={s}: running minima not monotone from step p+1")
        if 0 < s < 1:
            nn = np.arange(run.p + 1, 512)
            bounded = bool(np.all(ext[run.p:] <= nn * i_sigma))
            crit.check(bounded, f"s={s}: extremal values exceed N*I_s")
    crit.finish()


def test_numerical_greedy_matches_structural():
    # a rotated start leaves the greedy values unchanged
    crit = Criterion("numerical greedy reproduces the structural values")
    for x0 in (0.0, 0.3137):
        for s in (0.5, 1.0, 2.0):
            values = extremal_values_structural(127, s)  # N < 128
            crit.require(check_cross_construction(s, values, start=x0), f"x0={x0}: ")
    crit.finish()


def test_figure_emission(tmp_path):
    crit = Criterion("figure series on the documented grids")
    assert cli_main(["figure", "--id", "1", "--out-dir", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "fig1.csv").open()))
    crit.check(len(rows) == 5000, f"fig1 has {len(rows)} rows, wanted 5000")
    ones_exact = all(rows[(1 << m) - 2]["value"] == "1" for m in range(1, 13))
    crit.check(ones_exact, "fig1 not exactly 1.0 at N = 2^m - 1")

    assert cli_main(["figure", "--id", "2", "--out-dir", str(tmp_path)]) == 0
    fig2 = sorted(p.name for p in tmp_path.glob("fig2_*.csv"))
    crit.check(len(fig2) == 6, f"fig2 emitted {len(fig2)} files, wanted 6")
    all_negative = True
    for name in fig2:
        vals = [float(r["value"]) for r in csv.DictReader((tmp_path / name).open())]
        all_negative = all_negative and len(vals) == 2048 and all(v < 0.0 for v in vals)
    crit.check(all_negative, "fig2 series not everywhere negative")

    assert cli_main(["figure", "--id", "3", "--out-dir", str(tmp_path)]) == 0
    vals3 = [float(r["value"]) for r in csv.DictReader((tmp_path / "fig3.csv").open())]
    crit.check(len(vals3) == 2048, "fig3 grid wrong")

    assert cli_main(["figure", "--id", "4", "--out-dir", str(tmp_path)]) == 0
    fig4 = sorted(p.name for p in tmp_path.glob("fig4_*.csv"))
    crit.check(len(fig4) == 4, f"fig4 emitted {len(fig4)} files, wanted 4")
    for name in fig4:
        s = float(name.replace("fig4_s", "").replace(".csv", ""))
        vals = np.array([float(r["value"]) for r in csv.DictReader((tmp_path / name).open())])
        crit.check(vals.size == 2048, f"{name} has {vals.size} rows, wanted 2048")
        w = normalized_series("W_supercritical", s, 2048).values
        crit.require(check_supercritical_window(s, w, vals), f"{name}: ")  # positive and bounded
    crit.finish()
