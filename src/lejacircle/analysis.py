"""Normalized asymptotic series, limit-point checks, and the verification harness.

The normalized series are the exact transforms of the closed-form circle
quantities (see circle.py) under which the greedy extremal potentials have
finite limit behaviour:

    R(N)  = (roots_energy(N) - N**2*I_s) / N**(1+s)          0 < s < 1
    W(N)  = (midpoint_potential(N) - N*I_s) / N**s           0 < s < 1
    W1(N) = midpoint_potential(N) / (N*log N)                s = 1, N >= 2
    T(N)  = (midpoint_potential(N) - N*log(N)/pi) / N        s = 1
    W(N)  = midpoint_potential(N) / N**s                     s > 1
    log_ratio(N)     = log(product of distances) / log(N+1)  s = 0
    second_order_1(N) = (U_N(a_N) - N*log(N)/pi) / N         s = 1, extremal

plus the extremal second-order series (U_N(a_N) - N*I_s)/N**s for
0 < s < 1.  For the bit-reversal sequence, log_ratio is evaluated through the
exact identity: the product of distances from point N to its predecessors is
2**tau_b(N), so log_ratio(N) = tau_b(N)/log2(N+1) (exactly 1.0 in floating
point whenever N + 1 is a power of two).

``limit_point_check`` realizes a digit-direction vector theta by the witness
subsequence N(n) = 2**n * M (+ low bits for trailing zeros) and compares the
observed normalized extremal value against the predicted limit point
G(theta; s) * (2**s - 1) * 2*zeta(s)/(2*pi)**s (or its s = 1 analogue with
Lambda).

``verify_all`` runs every identity, inequality, and limit check the package
asserts and returns a machine-readable report.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import binary
from .binary import ThetaVector, decompose, tau_b
from .circle import (
    MAX_POINTS,
    REGIME_CRITICAL,
    REGIME_LOG,
    REGIME_SUBCRITICAL,
    REGIME_SUPERCRITICAL,
    BudgetExceededError,
    Configuration,
    classify_regime,
    energy,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from .sequences import (
    GreedyRun,
    energy_series_from_extremal,
    extremal_values_structural,
    greedy_numerical,
    structural_angles,
)
from .special import EULER_GAMMA, continuous_energy, gamma_fn, second_order_scale, zeta
from .summation import pairwise_sum

__all__ = [
    "SERIES_KINDS",
    "NormalizedSeries",
    "DiscrepancyReport",
    "LimitPointCheck",
    "CheckResult",
    "VerificationReport",
    "normalized_series",
    "extremal_second_order_series",
    "extremal_first_order_series",
    "theta_limit_prediction",
    "limit_point_check",
    "star_discrepancy",
    "uniform_distribution_report",
    "verify_all",
]

SERIES_KINDS = (
    "R_subcritical",
    "W_subcritical",
    "W1_critical",
    "T_critical",
    "W_supercritical",
    "log_ratio",
    "second_order_1",
)


@dataclass(frozen=True)
class NormalizedSeries:
    kind: str
    s: float
    n: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(a), float(b)) for a, b in zip(self.n, self.values)]


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    star_discrepancy: float
    energy_gap: float


@dataclass(frozen=True)
class LimitPointCheck:
    n: int
    predicted: float
    observed: float
    gap: float


def _check_n_max(n_max: int, low: int = 1) -> None:
    if n_max < low:
        raise ValueError(f"need n_max >= {low}, got {n_max}")
    if n_max > MAX_POINTS:
        raise BudgetExceededError(f"n_max={n_max} exceeds the compute budget {MAX_POINTS}")


def log_ratio_value(n: int) -> float:
    """log(product of distances)/log(N+1) for the bit-reversal sequence.

    Uses the exact product identity (product = 2**tau_b(N)) and base-2 logs,
    so the value is exactly 1.0 whenever N+1 is a power of two.
    """
    return tau_b(n) / math.log2(n + 1)


def normalized_series(kind: str, s: float, n_max: int) -> NormalizedSeries:
    """Evaluate one of the named normalized series for N up to n_max."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    regime = classify_regime(s)
    _check_n_max(n_max, low=2)

    if kind in ("R_subcritical", "W_subcritical"):
        if regime != REGIME_SUBCRITICAL:
            raise ValueError(f"{kind} requires 0 < s < 1, got s={s}")
        i_sigma = continuous_energy(s)
        n = np.arange(1, n_max + 1, dtype=np.int64)
        if kind == "R_subcritical":
            vals = np.array([roots_energy(int(k), s) for k in n])
            values = (vals - n.astype(np.float64) ** 2 * i_sigma) / n.astype(np.float64) ** (1.0 + s)
        else:
            vals = np.array([midpoint_potential(int(k), s) for k in n])
            values = (vals - n.astype(np.float64) * i_sigma) / n.astype(np.float64) ** s
        return NormalizedSeries(kind, s, n, values)

    if kind in ("W1_critical", "T_critical", "second_order_1"):
        if regime != REGIME_CRITICAL:
            raise ValueError(f"{kind} requires s = 1, got s={s}")
        if kind == "W1_critical":
            n = np.arange(2, n_max + 1, dtype=np.int64)
            vals = np.array([midpoint_potential(int(k), 1.0) for k in n])
            nf = n.astype(np.float64)
            values = vals / (nf * np.log(nf))
            return NormalizedSeries(kind, s, n, values)
        n = np.arange(1, n_max + 1, dtype=np.int64)
        nf = n.astype(np.float64)
        if kind == "T_critical":
            vals = np.array([midpoint_potential(int(k), 1.0) for k in n])
        else:
            vals = extremal_values_structural(n_max, 1.0)
        values = (vals - nf * np.log(nf) / math.pi) / nf
        return NormalizedSeries(kind, s, n, values)

    if kind == "W_supercritical":
        if regime != REGIME_SUPERCRITICAL:
            raise ValueError(f"{kind} requires s > 1, got s={s}")
        n = np.arange(1, n_max + 1, dtype=np.int64)
        vals = np.array([midpoint_potential(int(k), s) for k in n])
        values = vals / n.astype(np.float64) ** s
        return NormalizedSeries(kind, s, n, values)

    # log_ratio
    if regime != REGIME_LOG:
        raise ValueError(f"log_ratio requires s = 0, got s={s}")
    n = np.arange(1, n_max + 1, dtype=np.int64)
    values = np.array([log_ratio_value(int(k)) for k in n])
    return NormalizedSeries(kind, s, n, values)


def extremal_second_order_series(s: float, n_max: int) -> NormalizedSeries:
    """(U_N(a_N) - N*I_s)/N**s for N = 1..n_max, 0 < s < 1 (structural values)."""
    if classify_regime(s) != REGIME_SUBCRITICAL:
        raise ValueError(f"second-order extremal series requires 0 < s < 1, got s={s}")
    _check_n_max(n_max)
    i_sigma = continuous_energy(s)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    nf = n.astype(np.float64)
    vals = extremal_values_structural(n_max, s)
    return NormalizedSeries("second_order_subcritical", s, n, (vals - nf * i_sigma) / nf ** s)


def extremal_first_order_series(s: float, n_max: int) -> NormalizedSeries:
    """U_N(a_N)/N**s for N = 1..n_max, s > 1 (structural values)."""
    if classify_regime(s) != REGIME_SUPERCRITICAL:
        raise ValueError(f"first-order extremal series requires s > 1, got s={s}")
    _check_n_max(n_max)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    vals = extremal_values_structural(n_max, s)
    return NormalizedSeries("first_order_supercritical", s, n, vals / n.astype(np.float64) ** s)


def theta_limit_prediction(theta: ThetaVector, s: float) -> float:
    """Predicted limit point of the normalized extremal sequence for theta."""
    regime = classify_regime(s)
    if regime == REGIME_LOG:
        raise ValueError("no second-order limit-point prediction in the log case")
    if regime == REGIME_CRITICAL:
        return (EULER_GAMMA + math.log(8.0 / math.pi) + binary.lambda_value(theta)) / math.pi
    return binary.g_value(theta, s) * second_order_scale(s)


def limit_point_check(theta: ThetaVector, s: float, depth: int) -> LimitPointCheck:
    """Evaluate the witness subsequence of theta at the given depth.

    The witness index is N = 2**depth * M with the trailing zeros realized by
    appending the lowest ``trailing_zeros`` bits (adding 2**z - 1), which
    vanish in the limit while preserving the digit ratios exactly.
    """
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    z = theta.trailing_zeros
    if depth <= z - 1:
        raise ValueError(f"depth {depth} too small for {z} trailing zeros")
    n_witness = (theta.m << depth) + ((1 << z) - 1)
    if n_witness > MAX_POINTS:
        raise BudgetExceededError(
            f"witness index {n_witness} exceeds the compute budget {MAX_POINTS}"
        )
    regime = classify_regime(s)
    u = math.fsum(midpoint_potential(1 << e, s) for e in decompose(n_witness).exponents)
    nf = float(n_witness)
    if regime == REGIME_SUBCRITICAL:
        observed = (u - nf * continuous_energy(s)) / nf ** s
    elif regime == REGIME_CRITICAL:
        observed = (u - nf * math.log(nf) / math.pi) / nf
    elif regime == REGIME_SUPERCRITICAL:
        observed = u / nf ** s
    else:
        raise ValueError("no limit-point prediction in the log case")
    predicted = theta_limit_prediction(theta, s)
    return LimitPointCheck(
        n=n_witness, predicted=predicted, observed=observed, gap=abs(observed - predicted)
    )


def star_discrepancy(angles) -> float:
    """Exact star discrepancy of points in [0, 1) against Lebesgue measure.

    For sorted samples x_(1) <= ... <= x_(N):
    D* = max_i max(i/N - x_(i), x_(i) - (i-1)/N), computed in O(N log N).
    """
    x = np.sort(np.asarray(angles, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / n - x, x - (i - 1.0) / n)))


def uniform_distribution_report(run: GreedyRun) -> DiscrepancyReport:
    """Star discrepancy and energy gap of a greedy run (regimes 0 <= s < 1).

    The discrepancy is computed exactly from the sorted angles.
    """
    s = run.s
    if not 0 <= s < 1:
        raise ValueError(f"uniform-distribution report applies for 0 <= s < 1, got s={s}")
    n = len(run.points)
    disc = star_discrepancy(run.points.angles())
    i_sigma = continuous_energy(s)
    gap = energy(run.points, s) / float(n) ** 2 - i_sigma
    return DiscrepancyReport(n=n, star_discrepancy=disc, energy_gap=gap)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    budget: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual,
            "budget": self.budget,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_pass": self.all_pass, "checks": [c.to_dict() for c in self.checks]}


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _max_le(name, residual, budget, detail="") -> CheckResult:
    return CheckResult(name, residual <= budget, float(residual), float(budget), detail)


def _divergence_check(name, series, detail="") -> CheckResult:
    """Divergence evidence for a series over N = 1..n_max.

    The dyadic (N = 2^p) and all-ones (N = 2^p - 1) subsequences must differ by
    more than ten times their own drift over the last doubling.
    """
    p = len(series).bit_length() - 1
    v_dyadic = series[(1 << p) - 1]
    v_ones = series[(1 << p) - 2]
    r_dyadic = abs(v_dyadic - series[(1 << (p - 1)) - 1])
    r_ones = abs(v_ones - series[(1 << (p - 1)) - 2])
    gap = abs(v_dyadic - v_ones)
    budget = 10.0 * max(r_dyadic, r_ones)
    return CheckResult(name, gap > budget, float(gap), float(budget), detail)


def verify_all(n_max: int = 2048, s_grid=(0.5, 1.0, 1.5, 2.0)) -> VerificationReport:
    """Run every identity, inequality, and limit check over the given grid."""
    _check_n_max(n_max, low=8)
    s_grid = tuple(float(s) for s in s_grid)
    for s in s_grid:
        classify_regime(s)  # validates s >= 0
    sub = [s for s in s_grid if 0 < s < 1]
    sup = [s for s in s_grid if s > 1]
    pos = [s for s in s_grid if s > 0]
    has_critical = any(s == 1.0 for s in s_grid)
    rep = VerificationReport()

    # --- product-of-distances identity and ratio shape (log case)
    n_norm = min(n_max, 5000)
    log_products = -prefix_potentials(structural_angles(n_norm + 1), 0.0)
    taus = np.array([tau_b(n) for n in range(1, n_norm + 1)], dtype=np.float64)
    worst = float(np.max(np.abs(log_products - taus * math.log(2.0))))
    rep.checks.append(_max_le("sup-norm-identity", worst, 1e-7, f"N<={n_norm}"))

    worst = 0.0
    m = 1
    while (1 << m) - 1 <= n_max:
        worst = max(worst, abs(log_ratio_value((1 << m) - 1) - 1.0))
        m += 1
    rep.checks.append(_max_le("sup-norm-ratio-dyadic-ones", worst, 0.0, "exact 1 at N=2^m-1"))

    worst_diff = -math.inf
    for n in range(1, min(64, n_max) + 1):
        ratios = [tau_b(n) / math.log2((n << k) + 1) for k in range(0, 7)]
        worst_diff = max(worst_diff, max(np.diff(ratios)))
    rep.checks.append(
        CheckResult(
            "sup-norm-ratio-doubling-decreasing",
            worst_diff < 0.0,
            float(worst_diff),
            0.0,
            "max consecutive increment; must be < 0",
        )
    )

    # --- roots-of-unity identities
    n_roots = min(n_max, 1024)
    for s in pos:
        worst32 = 0.0
        worst33 = 0.0
        for n in range(2, n_roots + 1):
            gaps = np.arange(1, n, dtype=np.float64) / n
            lhs = pairwise_sum((2.0 * np.sin(np.pi * gaps)) ** (-s))
            rhs = roots_energy(n, s) / n
            worst32 = max(worst32, abs(lhs - rhs) / abs(rhs))
        for n in range(1, n_roots + 1):
            lhs = midpoint_potential(n, s)
            rhs = roots_energy(2 * n, s) / (2 * n) - roots_energy(n, s) / n
            worst33 = max(worst33, abs(lhs - rhs) / abs(rhs))
        rep.checks.append(_max_le(f"roots-potential-identity[s={s:g}]", worst32, 1e-10))
        rep.checks.append(_max_le(f"midpoint-energy-identity[s={s:g}]", worst33, 1e-10))

    # --- s = 2 closed forms (brute-force validated first)
    worst = 0.0
    for n in range(2, min(64, n_max) + 1):
        brute = energy(Configuration.from_turns(np.arange(n) / n), 2.0)
        exact = n * (n * n - 1) / 12.0
        worst = max(worst, abs(brute - exact) / exact)
    rep.checks.append(_max_le("inverse-square-bruteforce", worst, 1e-12, "N<=64"))
    n = np.arange(2, n_roots + 1, dtype=np.int64)
    closed = (n.astype(np.float64) ** 2 - 1.0) / 12.0
    vals = np.array([roots_energy(int(k), 2.0) / int(k) for k in n])
    rep.checks.append(
        _max_le("inverse-square-closed-form", float(np.max(_rel(vals, closed))), 1e-10)
    )

    # --- direct energy agrees with the closed form
    n_energy = min(n_max, 512)
    for s in pos:
        worst = 0.0
        for k in range(2, n_energy + 1):
            exact = roots_energy(k, s)
            direct = energy(Configuration.from_turns(np.arange(k) / k), s)
            worst = max(worst, abs(direct - exact) / exact)
        rep.checks.append(_max_le(f"roots-energy-direct[s={s:g}]", worst, 1e-9, f"N<={n_energy}"))

    # --- binary decomposition of the extremal potential
    ang = structural_angles(n_max + 1)
    for s in pos:
        series = extremal_values_structural(n_max, s)
        worst = float(np.max(_rel(prefix_potentials(ang, s), series)))
        rep.checks.append(_max_le(f"binary-decomposition-potential[s={s:g}]", worst, 1e-9))

    # --- subcritical relations and limits
    for s in sub:
        i_sigma = continuous_energy(s)
        c_w = second_order_scale(s)
        c_r = 2.0 * zeta(s) / (2.0 * math.pi) ** s
        r_ser = normalized_series("R_subcritical", s, 2 * min(n_max, 1024))
        w_ser = normalized_series("W_subcritical", s, min(n_max, 1024))
        r = r_ser.values
        w = w_ser.values
        worst = float(
            np.max(np.abs(w - (2.0 ** s * r[1::2][: w.size] - r[: w.size])))
        )
        rep.checks.append(_max_le(f"subcritical-w-r-relation[s={s:g}]", worst, 1e-12))

        rr = normalized_series("R_subcritical", s, n_max).values
        res_full = abs(rr[-1] - c_r)
        res_half = abs(rr[n_max // 2 - 1] - c_r)
        res_odd = abs(rr[-2] - c_r)
        ok = res_full <= 1e-3 and res_odd <= 1e-3 and res_half >= 3.0 * res_full
        rep.checks.append(
            CheckResult(
                f"subcritical-r-limit[s={s:g}]",
                ok,
                float(max(res_full, res_odd)),
                1e-3,
                f"shrink {res_half / max(res_full, 1e-300):.2f}x per doubling",
            )
        )

        ext = extremal_second_order_series(s, n_max).values
        rep.checks.append(
            CheckResult(
                f"subcritical-negative[s={s:g}]",
                bool(np.all(ext < 0.0)),
                float(np.max(ext)),
                0.0,
                "extremal second-order series stays negative",
            )
        )
        bound = float(np.max(np.abs(w))) * 2.0 ** s / (2.0 ** s - 1.0)
        rep.checks.append(
            CheckResult(
                f"subcritical-window[s={s:g}]",
                bool(np.all(ext >= -bound - 1e-12)),
                float(-np.min(ext)),
                bound,
                "series within the proof's geometric bound",
            )
        )
        rep.checks.append(
            _divergence_check(
                f"divergence-witnesses[s={s:g}]",
                ext,
                "dyadic and 2^p-1 subsequences separate beyond drift",
            )
        )

    # --- critical limits
    if has_critical:
        level = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi
        t_ser = normalized_series("T_critical", 1.0, n_max).values
        rep.checks.append(_max_le("critical-t-limit", abs(t_ser[-1] - level), 1e-3))
        u_nmax = extremal_values_structural(n_max, 1.0)[-1]
        corrected = (u_nmax - n_max * level) / (n_max * math.log(n_max))
        rep.checks.append(
            _max_le(
                "critical-first-order-corrected",
                abs(corrected - 1.0 / math.pi),
                2e-4,
                "first-order ratio after removing the second-order constant",
            )
        )
        ext1 = normalized_series("second_order_1", 1.0, n_max).values
        rep.checks.append(_divergence_check("divergence-witnesses[s=1]", ext1))
        lo = level - (2.0 / math.e + 2.0 * math.log(2.0)) / math.pi
        rep.checks.append(
            CheckResult(
                "critical-window",
                bool(np.all(ext1[7:] >= lo - 0.05) and np.all(ext1 <= level + 0.05)),
                float(np.max(ext1)),
                level + 0.05,
                f"series within [{lo:.4f} - 0.05, limsup + 0.05] from N=8 on",
            )
        )

    # --- supercritical limits
    for s in sup:
        c = second_order_scale(s)
        w_ser = normalized_series("W_supercritical", s, n_max).values
        res_full = abs(w_ser[-1] - c)
        res_half = abs(w_ser[n_max // 2 - 1] - c)
        # The remainder decays like N**(1-s) for 1 < s < 3 (exactly 0 at s=2),
        # so demand either the absolute tolerance or clear geometric decay.
        ok = res_full <= 1e-4 or (res_full <= 0.8 * res_half and res_full <= 0.05 * abs(c))
        rep.checks.append(
            CheckResult(
                f"supercritical-w-limit[s={s:g}]",
                ok,
                float(res_full),
                1e-4,
                f"decay {res_half / max(res_full, 1e-300):.2f}x per doubling",
            )
        )
        ext = extremal_first_order_series(s, n_max).values
        bound = float(np.max(w_ser)) * 2.0 ** s / (2.0 ** s - 1.0)
        rep.checks.append(
            CheckResult(
                f"supercritical-window[s={s:g}]",
                bool(np.all(ext > 0.0) and np.all(ext <= bound + 1e-12)),
                float(np.max(ext)),
                bound,
                "positive and within the proof's geometric bound",
            )
        )
        if s == 2.0:
            rep.checks.append(
                _max_le(
                    "supercritical-quarter[s=2]",
                    float(np.max(np.abs(w_ser - 0.25))),
                    1e-10,
                    "midpoint transform is exactly 1/4 at s=2",
                )
            )
        rep.checks.append(_divergence_check(f"divergence-witnesses[s={s:g}]", ext))

    # --- monotonicity and energy domination (structural greedy)
    for s in pos:
        ext = extremal_values_structural(n_max, s)
        worst = float(np.max(ext[:-1] - ext[1:]))
        rep.checks.append(
            CheckResult(
                f"extremal-monotone[s={s:g}]",
                worst <= 1e-9 * float(np.max(np.abs(ext))),
                worst,
                1e-9 * float(np.max(np.abs(ext))),
                "running minima are non-decreasing",
            )
        )
        n_cmp = min(256, n_max)
        energies = energy_series_from_extremal(ext[: n_cmp - 1])
        worst = 0.0
        for k in range(2, n_cmp + 1):
            worst = max(worst, roots_energy(k, s) - energies[k - 1])
        rep.checks.append(
            CheckResult(
                f"greedy-energy-dominates-roots[s={s:g}]",
                worst <= 1e-9 * abs(energies[n_cmp - 1]),
                worst,
                1e-9 * abs(energies[n_cmp - 1]),
                "roots-of-unity energy never exceeds the greedy energy",
            )
        )

    # --- continuous energy closed forms
    worst = 0.0
    for s100 in range(5, 100, 5):
        s = s100 / 100.0
        first = 2.0 ** (-s) / math.sqrt(math.pi) * gamma_fn((1 - s) / 2) / gamma_fn(1 - s / 2)
        second = gamma_fn(1.0 - s) / gamma_fn(1.0 - s / 2.0) ** 2
        worst = max(worst, abs(first - second) / abs(first))
    rep.checks.append(_max_le("continuous-energy-forms", worst, 1e-12))

    # --- zeta signs and the Euler-Mascheroni defining limit
    sign_ok = all(zeta(s / 20.0) < 0.0 for s in range(1, 20)) and all(
        zeta(1.0 + s / 4.0) > 1.0 for s in range(1, 17)
    )
    nh = 1_000_000
    harmonic = float(np.sum(1.0 / np.arange(1, nh + 1, dtype=np.float64)))
    gamma_resid = abs(harmonic - math.log(nh) - EULER_GAMMA)
    rep.checks.append(
        CheckResult(
            "zeta-sign-and-euler-gamma",
            sign_ok and gamma_resid <= 1.0 / nh,
            gamma_resid,
            1.0 / nh,
            "zeta < 0 on (0,1), zeta > 1 beyond, gamma matches its defining limit",
        )
    )

    # --- theta machinery invariants
    worst = 0.0
    ok = True
    for theta in binary.enumerate_theta(12, 12):
        comps = theta.components()
        ok = ok and sum(comps) == 1
        ok = ok and all(c <= Fraction(1, 1 << (k - 1)) for k, c in enumerate(comps, start=1))
        lam = binary.lambda_value(theta)
        ok = ok and -2.5 < lam <= 0.0
        for s in pos:
            if s == 1.0:
                continue
            g = binary.g_value(theta, s)
            if s < 1:
                ok = ok and 1.0 <= g < 2.0 ** s / (2.0 ** s - 1.0)
            else:
                ok = ok and 0.0 < g <= 1.0
        worst = min(worst, lam)
    rep.checks.append(
        CheckResult("theta-invariants", ok, worst, -2.5, "sum=1 exact, decay, G/Lambda brackets")
    )

    mono_ok = True
    grid_s = sorted(set(pos) | {0.25, 0.75, 1.25, 3.0})
    for theta in binary.enumerate_theta(8, 8):
        if theta.m == 1:
            continue  # the vector (1) has G identically 1
        gs = [binary.g_value(theta, s) for s in grid_s]
        mono_ok = mono_ok and all(a > b for a, b in zip(gs, gs[1:]))
    rep.checks.append(
        CheckResult("g-strictly-decreasing-in-s", mono_ok, 0.0, 0.0, "for vectors other than (1)")
    )

    n_arr = np.arange(1, 1_000_001, dtype=np.int64)
    taus = np.zeros_like(n_arr)
    for j in range(20):
        taus += (n_arr >> j) & 1
    tau_ok = bool(np.all(n_arr >= (1 << taus) - 1))
    tau2 = np.zeros_like(n_arr)
    doubled = n_arr << 1
    for j in range(21):
        tau2 += (doubled >> j) & 1
    tau_ok = tau_ok and bool(np.all(tau2 == taus))
    recon_ok = all(decompose(int(k)).value == int(k) for k in range(1, 2048))
    rep.checks.append(
        CheckResult(
            "tau-binary-properties",
            tau_ok and recon_ok,
            0.0,
            0.0,
            "tau(2N)=tau(N), N >= 2^tau - 1, decomposition reconstructs N",
        )
    )

    # --- summation order insensitivity
    worst = 0.0
    for s in pos:
        k = np.arange(1, 4999, dtype=np.float64)
        terms = (2.0 * np.sin((2.0 * k - 1.0) * (np.pi / (2.0 * 4998)))) ** (-s)
        fwd = pairwise_sum(terms)
        rev = pairwise_sum(terms[::-1])
        worst = max(worst, abs(fwd - rev) / abs(fwd))
    rep.checks.append(_max_le("summation-reversal", worst, 1e-12))

    # --- numerical greedy reproduces the structural extremal values
    n_cross = min(64, n_max)
    for s in dict.fromkeys(pos[:1] + pos[-1:]):
        run = greedy_numerical(Configuration.from_turns([0.0]), s, n_cross)
        ref = extremal_values_structural(n_cross - 1, s)
        worst = float(np.max(np.abs(np.array(run.extremal_values) - ref)))
        rep.checks.append(
            _max_le(f"cross-construction[s={s:g}]", worst, 1e-6, f"N<={n_cross}")
        )

    # --- generalized greedy run (several initial points) equidistributes
    if sub:
        s = sub[0]
        n_gen = min(256, n_max)
        run = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), s, n_gen)
        discs = []
        for n_chk in (n_gen // 4, n_gen // 2, n_gen):
            sub_run = GreedyRun(
                s=run.s,
                initial=run.initial,
                points=Configuration.from_turns(run.points.angles()[:n_chk]),
                extremal_values=run.extremal_values[: n_chk - 1],
            )
            discs.append(uniform_distribution_report(sub_run).star_discrepancy)
        trend_ok = all(b <= 1.1 * a for a, b in zip(discs, discs[1:]))
        ext = np.array(run.extremal_values)
        mono_ok = bool(np.all(np.diff(ext[run.p:]) >= -1e-9 * float(np.max(np.abs(ext)))))
        i_sigma = continuous_energy(s)
        nn = np.arange(run.p + 1, n_gen)
        bound_ok = bool(np.all(ext[run.p:] <= nn * i_sigma))
        rep.checks.append(
            CheckResult(
                f"generalized-greedy-trend[s={s:g}]",
                trend_ok and mono_ok and bound_ok and discs[-1] <= 0.05,
                float(discs[-1]),
                0.05,
                "discrepancy non-increasing (10% slack), minima monotone and below N*I_s",
            )
        )

    return rep
