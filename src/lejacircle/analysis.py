"""Normalized asymptotic series, limit-point checks, and the verification harness.

The normalized series are the exact transforms of the closed-form circle
quantities (see circle.py) under which the greedy extremal potentials have
finite limit behaviour:

    R(N)  = (roots_energy(N) - N**2*I_s) / N**(1+s)          0 < s < 1
    W(N)  = (midpoint_potential(N) - N*I_s) / N**s           0 < s < 1
    W1(N) = midpoint_potential(N) / (N*log N)                s = 1, N >= 2
    T(N)  = (midpoint_potential(N) - N*log(N)/pi) / N        s = 1
    W(N)  = midpoint_potential(N) / N**s                     s > 1

The kind ``extremal`` is the regime normalization of the structural
extremal value U_N(a_N), the series of the figures, for every s >= 0:
(U_N(a_N) - N*I_s)/N**s for 0 < s < 1, (U_N(a_N) - N*log(N)/pi)/N at s = 1
and U_N(a_N)/N**s for s > 1.  At s = 0 it is the ratio
log(product of distances)/log(N+1), evaluated through the exact identity:
the product of distances from point N to its predecessors is 2**tau_b(N), so
the ratio is tau_b(N)/log2(N+1) (exactly 1.0 in floating point whenever
N + 1 is a power of two).

Every value at a single N is one row, rows(N, N + 1), of its series' row
source, so it is bitwise the entry of the whole series and shares its
refusals.  ``limit_point_check`` realizes a digit-direction vector theta by
the witness subsequence N(n) = 2**n * M (+ low bits for trailing zeros) and
compares the ``extremal`` row at the witness against the predicted limit
point G(theta; s) * (2**s - 1) * 2*zeta(s)/(2*pi)**s (or its s = 1 analogue
with Lambda).

``verify_all`` runs every identity, inequality, and limit check the package
asserts and returns a machine-readable report; each check is a plain
``check_*`` function, which the acceptance suite calls with its own N or arrays.
The checks read I_s, h = 1 - 2**(-s) and the Lambda floor from ``special``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import binary
from .binary import decompose
from .budget import exponent, require, size
from .circle import (
    Configuration,
    _midpoint_map,
    chord_kernel,
    energy,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from .sequences import (
    _OVERFLOW,
    _doubling,
    _value_terms,
    energy_series_from_extremal,
    extremal_values_structural,
    greedy_numerical,
    structural_angles,
)
from .special import (
    CRITICAL_LEVEL,
    EULER_GAMMA,
    LAMBDA_FLOOR,
    REGIME_CRITICAL,
    REGIME_LOG,
    REGIME_SUBCRITICAL,
    REGIME_SUPERCRITICAL,
    classify_regime,
    continuous_energy,
    dyadic_h,
    second_order_scale,
    zeta,
)
from .summation import pairwise_sum

__all__ = [
    "SERIES_KINDS",
    "NormalizedSeries",
    "LimitPointCheck",
    "CheckResult",
    "VerificationReport",
    "normalized_series",
    "theta_limit_prediction",
    "limit_point_check",
    "star_discrepancy",
    "verify_all",
]

# Each series kind and the regime of s it is defined in.
_KIND_REGIMES = {
    "R_subcritical": REGIME_SUBCRITICAL,
    "W_subcritical": REGIME_SUBCRITICAL,
    "W1_critical": REGIME_CRITICAL,
    "T_critical": REGIME_CRITICAL,
    "W_supercritical": REGIME_SUPERCRITICAL,
    "extremal": None,  # every s >= 0
}
SERIES_KINDS = tuple(_KIND_REGIMES)


@dataclass(frozen=True)
class NormalizedSeries:
    kind: str
    s: float
    n: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LimitPointCheck:
    n: int
    predicted: float
    observed: float
    gap: float


def _normalize(u, n, s: float):
    """(U - N*I_s)/N**s, (U - N*log(N)/pi)/N or U/N**s for s below, at or above 1; N = n."""
    regime = classify_regime(s)
    if regime == REGIME_SUBCRITICAL:
        return (u - n * continuous_energy(s)) / n ** s
    if regime == REGIME_CRITICAL:
        return (u - n * np.log(n) / math.pi) / n
    if regime == REGIME_SUPERCRITICAL:
        with np.errstate(over="ignore"):
            scale = np.power(n, s)  # inf, not OverflowError, for a float N
            big = np.isinf(scale)
            if np.any(big):  # U finite, N**s not: divide by N**(s/2) twice, a few ulps
                # from U/N**s wherever that is a normal double
                half = np.power(n, s / 2.0)
                return np.where(big, u / half / half, u / scale)
        return u / scale
    raise ValueError("no regime normalization in the log case")


def _nf(a: int, b: int) -> np.ndarray:
    """N = a..b-1 as floats."""
    return np.arange(a, b, dtype=np.float64)


def _r_series(e: np.ndarray, n: np.ndarray, s: float) -> np.ndarray:
    """R(N) = (E_s(N) - N**2*I_s)/N**(1+s) at each N of n, where e[i] = E_s(n[i])."""
    nf = n.astype(np.float64)
    return (e - nf ** 2 * continuous_energy(s)) / nf ** (1.0 + s)


def _series_values(kind: str, s: float, n_max: int):
    """Validate a series request; return its first N and values(a, b), the
    series at N = a..b-1 for first <= a <= b <= n_max + 1.

    What does not depend on N, the midpoint expansion's coefficients or the
    doubling table, is set up here once, so the series can be evaluated one
    block of N at a time; every value is bitwise that of the whole array.
    """
    if kind not in _KIND_REGIMES:
        raise ValueError(f"unknown series kind {kind!r}")
    if _KIND_REGIMES[kind] not in (None, classify_regime(s)):
        raise ValueError(f"{kind} needs a {_KIND_REGIMES[kind]} exponent, got s={s}")
    n_max = require(size(n_max, 2, "n_max"), f"n_max={n_max}")
    if kind == "extremal":
        if classify_regime(s) == REGIME_LOG:  # tau_b(N)/log2(N+1), exactly 1.0 at N = 2**m - 1
            return 1, lambda a, b: np.bitwise_count(np.arange(a, b)) / np.log2(_nf(a, b) + 1.0)
        values = _doubling(_value_terms(n_max + 1, s))  # refuses a U_N that overflows
        return 1, lambda a, b: _normalize(values(a, b), _nf(a, b), s)
    if kind == "R_subcritical":
        return 1, lambda a, b: _r_series(roots_energy(np.arange(a, b), s), np.arange(a, b), s)
    midpoint = _midpoint_map(s, n_max)
    with np.errstate(over="ignore"):  # refused below; the potential is largest at N = n_max
        if not math.isfinite(midpoint(np.array([n_max]))[0]):
            raise ValueError(_OVERFLOW.format("midpoint", s, n_max))
    if kind == "W1_critical":
        def w1(a, b):
            nf = _nf(a, b)
            return midpoint(np.arange(a, b)) / (nf * np.log(nf))
        return 2, w1
    # W_subcritical, T_critical, W_supercritical: the midpoint transform
    return 1, lambda a, b: _normalize(midpoint(np.arange(a, b)), _nf(a, b), s)


def normalized_series(kind: str, s: float, n_max: int) -> NormalizedSeries:
    """Evaluate one of the named normalized series for N up to n_max."""
    n_max = size(n_max, 2, "n_max")
    first, values = _series_values(kind, s, n_max)
    return NormalizedSeries(kind, s, np.arange(first, n_max + 1), values(first, n_max + 1))


def theta_limit_prediction(m: int, s: float) -> float:
    """Predicted limit point of the normalized extremal sequence for the theta of odd M."""
    regime = classify_regime(s)
    if regime == REGIME_LOG:
        raise ValueError("no second-order limit-point prediction in the log case")
    if regime == REGIME_CRITICAL:
        return CRITICAL_LEVEL + binary.lambda_value(m) / math.pi
    return binary.g_value(m, s) * second_order_scale(s)


def limit_point_check(m: int, p: int, s: float, depth: int) -> LimitPointCheck:
    """Evaluate the witness subsequence of the length-p theta of odd M at the given depth.

    The witness index is N = 2**depth * M with the z = p - tau_b(M) trailing
    zeros realized by appending the lowest z bits (adding 2**z - 1), which
    vanish in the limit while preserving the digit ratios exactly.
    """
    m = binary._check_odd(m)
    z = size(p, None, "p") - binary.tau_b(m)  # the trailing zeros of theta
    if z < 0:
        raise ValueError(f"need p >= tau_b(M) = {p - z}, got p = {p}")
    depth = size(depth, max(1, z), "depth")
    n_witness = (m << depth) + ((1 << z) - 1)
    require(n_witness, f"witness index {n_witness}")
    predicted = theta_limit_prediction(m, s)  # refuses s = 0 before the witness is summed
    observed = float(_series_values("extremal", s, n_witness)[1](n_witness, n_witness + 1)[0])
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

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))  # a numpy bool is not JSON's

    def to_dict(self) -> dict:  # a nan or +-inf residual or budget is None: JSON has no such numbers
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual if math.isfinite(self.residual) else None,
            "budget": self.budget if math.isfinite(self.budget) else None,
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


# The N = 1..10**6 checks walk N in blocks of this many, so their arrays stay small.
_CHECK_BLOCK = 1 << 15


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # inf against inf is nan, which fails the check
        return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _max_le(name, residual, budget, detail="") -> CheckResult:
    return CheckResult(name, residual <= budget, float(residual), float(budget), detail)


def check_sup_norm_identity(u0: np.ndarray) -> CheckResult:
    """The product of distances from a_N to its predecessors is 2**tau_b(N), N <= u0.size.

    u0[N-1] is the structural U_N(a_N) at s = 0, the negated log of that product.
    """
    n = u0.size
    log_products = -u0
    taus = np.bitwise_count(np.arange(1, n + 1)).astype(np.float64)
    worst = float(np.max(np.abs(log_products - taus * math.log(2.0))))
    return _max_le("sup-norm-identity", worst, 1e-7, f"N<={n}")


def check_sup_norm_ratio_dyadic_ones(n: int) -> CheckResult:
    ones = (1 << np.arange(1, (n + 1).bit_length())) - 1  # every N = 2**m - 1 <= n
    worst = float(np.max(np.abs(normalized_series("extremal", 0.0, n).values[ones - 1] - 1.0)))
    return _max_le("sup-norm-ratio-dyadic-ones", worst, 0.0, "exact 1 at N=2^m-1")


def check_sup_norm_ratio_doubling_decreasing(n: int) -> CheckResult:
    """The norm ratio strictly decreases along N, 2N, ..., 64N for every N <= n."""
    ratio = normalized_series("extremal", 0.0, n << 6).values
    chains = ratio[(np.arange(1, n + 1)[:, None] << np.arange(7)) - 1]  # row k-1: k, ..., 64k
    worst = float(np.max(np.diff(chains, axis=1)))
    return CheckResult(
        "sup-norm-ratio-doubling-decreasing",
        worst < 0.0,
        float(worst),
        0.0,
        "max consecutive increment; must be < 0",
    )


def roots_potentials(n: int, exponents) -> np.ndarray:
    """The potential of the N-th roots of unity at one root, 2 <= N <= n, one row per exponent.

    Entry [i, N-2] is pairwise_sum of chord_kernel(2*sin(pi*j/N), s_i), j = 1..N-1,
    over the chords unreflected, so it is independent of roots_energy.  One pass
    over N serves every exponent, and each N's chords are dropped once summed.
    """
    out = np.empty((len(exponents), max(n - 1, 0)))
    with np.errstate(over="ignore"):  # a potential past float64's range is inf
        for k in range(2, n + 1):
            chords = 2.0 * np.sin(np.pi * (np.arange(1, k) / k))
            for i, s in enumerate(exponents):
                out[i, k - 2] = pairwise_sum(chord_kernel(chords, s))
    return out


def check_roots_potential_identity(s: float, potentials: np.ndarray, e: np.ndarray) -> CheckResult:
    """The potential of the N-th roots of unity at one root is E_s(N)/N, 2 <= N <= e.size.

    potentials[N-2] is that potential at s, a row of ``roots_potentials``, and
    e[N-1] = E_s(N), the energy.
    """
    lhs = potentials[: e.size - 1]
    rhs = e[1:] / np.arange(2, e.size + 1)
    return _max_le(f"roots-potential-identity[s={s:g}]", float(np.max(_rel(lhs, rhs))), 1e-10)


def check_midpoint_energy_identity(s: float, e: np.ndarray) -> CheckResult:
    """midpoint_potential(N) = E_s(2N)/(2N) - E_s(N)/N for N <= n = e.size // 2, e[N-1] = E_s(N)."""
    n = e.size // 2
    lhs = midpoint_potential(np.arange(1, n + 1), s)
    e = e[: 2 * n] / np.arange(1, 2 * n + 1)  # E_s(N)/N
    worst = float(np.max(_rel(lhs, e[1::2] - e[:n])))
    return _max_le(f"midpoint-energy-identity[s={s:g}]", worst, 1e-10)


def check_inverse_square_bruteforce(direct: np.ndarray) -> CheckResult:
    """The direct s = 2 energy direct[N-2] of the N-th roots is N(N^2 - 1)/12, 2 <= N <= direct.size + 1."""
    k = np.arange(2, direct.size + 2)
    worst = float(np.max(_rel(direct, k * (k * k - 1) / 12.0)))
    return _max_le("inverse-square-bruteforce", worst, 1e-12, f"N<={direct.size + 1}")


def check_inverse_square_closed_form(e2: np.ndarray) -> CheckResult:
    """E_2(N)/N = (N^2 - 1)/12 for 2 <= N <= e2.size, where e2[N-1] = roots_energy(N, 2)."""
    k = np.arange(2, e2.size + 1, dtype=np.int64)
    closed = (k.astype(np.float64) ** 2 - 1.0) / 12.0
    vals = e2[1:] / k
    return _max_le("inverse-square-closed-form", float(np.max(_rel(vals, closed))), 1e-10)


def check_roots_energy_direct(s: float, direct: np.ndarray, e: np.ndarray) -> CheckResult:
    """The direct energy of the N-th roots equals the closed form, 2 <= N <= n = e.size.

    direct[N-2] is the direct energy of the N-th roots and e[N-1] = E_s(N).
    """
    n = e.size
    worst = float(np.max(_rel(direct, e[1:])))
    return _max_le(f"roots-energy-direct[s={s:g}]", worst, 1e-9, f"N<={n}")


def check_binary_decomposition_potential(s: float, u: np.ndarray, values: np.ndarray) -> CheckResult:
    """The direct U_N(a_N) equals its sum of dyadic midpoint potentials, N <= u.size.

    u[N-1] is the direct structural U_N(a_N) at s (``prefix_potentials``), values[N-1] its sum.
    """
    worst = float(np.max(_rel(u, values)))
    return _max_le(f"binary-decomposition-potential[s={s:g}]", worst, 1e-9)


def check_subcritical_w_r_relation(s: float, w: np.ndarray, r: np.ndarray) -> CheckResult:
    """W(N) = 2**s R(2N) - R(N) for N <= w.size, w and r the series W and R (r to 2 w.size)."""
    worst = float(np.max(np.abs(w - (2.0 ** s * r[1::2] - r[: w.size]))))
    return _max_le(f"subcritical-w-r-relation[s={s:g}]", worst, 1e-12)


def check_subcritical_r_limit(s: float, n: int) -> CheckResult:
    """R(N) reaches 2 zeta(s)/(2 pi)**s at N = n and n - 1, shrinking from N = n // 2."""
    c_r = 2.0 * zeta(s) / (2.0 * math.pi) ** s
    rows = _series_values("R_subcritical", s, n)[1]
    r = np.concatenate([rows(n // 2, n // 2 + 1), rows(n - 1, n + 1)])  # R at n // 2, n - 1, n
    res_half, res_odd, res_full = np.abs(r - c_r)
    ok = res_full <= 1e-3 and res_odd <= 1e-3 and res_half >= 3.0 * res_full
    return CheckResult(
        f"subcritical-r-limit[s={s:g}]",
        ok,
        float(max(res_full, res_odd)),
        1e-3,
        f"shrink {res_half / max(res_full, 1e-300):.2f}x per doubling",
    )


def check_subcritical_negative(s: float, ext: np.ndarray) -> CheckResult:
    return CheckResult(
        f"subcritical-negative[s={s:g}]",
        bool(np.all(ext < 0.0)),
        float(np.max(ext)),
        0.0,
        "extremal second-order series stays negative",
    )


def check_subcritical_window(s: float, w: np.ndarray, ext: np.ndarray) -> CheckResult:
    """The normalized extremal series ext stays above -max|W| 2**s/(2**s - 1), w the series W."""
    bound = float(np.max(np.abs(w))) / dyadic_h(s)
    return CheckResult(
        f"subcritical-window[s={s:g}]",
        bool(np.all(ext >= -bound - 1e-12)),
        float(-np.min(ext)),
        bound,
        "series within the proof's geometric bound",
    )


def check_divergence_witnesses(s: float, series: np.ndarray) -> CheckResult:
    """Divergence evidence for the normalized extremal series over N = 1..series.size.

    The dyadic (N = 2^p) and all-ones (N = 2^p - 1) subsequences must differ by
    more than ten times their own drift over the last doubling.
    """
    top = 1 << (series.size.bit_length() - 1)  # the largest N = 2^p <= series.size
    dyadic, ones = series[top - 1], series[top - 2]
    budget = 10.0 * max(abs(dyadic - series[top // 2 - 1]), abs(ones - series[top // 2 - 2]))
    gap = abs(dyadic - ones)
    detail = "dyadic and 2^p-1 subsequences separate beyond drift" if s < 1 else ""
    return CheckResult(
        f"divergence-witnesses[s={s:g}]", gap > budget, float(gap), float(budget), detail
    )


def check_critical_t_limit(n: int) -> CheckResult:
    """T(n) is within 1e-3 of the critical level (gamma + log(8/pi))/pi."""
    t = _series_values("T_critical", 1.0, n)[1](n, n + 1)[0]
    return _max_le("critical-t-limit", abs(t - CRITICAL_LEVEL), 1e-3)


def check_critical_first_order_corrected(values: np.ndarray, budget: float) -> CheckResult:
    """(U_n(a_n) - n T)/(n log n) is within budget of 1/pi at n = values.size, T the critical
    level, where values[N-1] = U_N(a_N) at s = 1 (``extremal_values_structural(n, 1.0)``)."""
    n = values.size
    corrected = (values[-1] - n * CRITICAL_LEVEL) / (n * math.log(n))
    return _max_le(
        "critical-first-order-corrected",
        abs(corrected - 1.0 / math.pi),
        budget,
        "first-order ratio after removing the second-order constant",
    )


def check_critical_window(ext1: np.ndarray) -> CheckResult:
    """The normalized extremal series ext1 at s = 1 stays near the critical level."""
    lo = CRITICAL_LEVEL + LAMBDA_FLOOR / math.pi
    return CheckResult(
        "critical-window",
        bool(np.all(ext1[7:] >= lo - 0.05) and np.all(ext1 <= CRITICAL_LEVEL + 0.05)),
        float(np.max(ext1)),
        CRITICAL_LEVEL + 0.05,
        f"series within [{lo:.4f} - 0.05, limsup + 0.05] from N=8 on",
    )


def check_supercritical_w_limit(s: float, w: np.ndarray) -> CheckResult:
    """W(N) at N = w.size reaches (2**s - 1) 2 zeta(s)/(2 pi)**s, or decays to it geometrically."""
    c = second_order_scale(s)
    res_full = abs(w[-1] - c)
    res_half = abs(w[w.size // 2 - 1] - c)
    # The remainder decays like N**(1-s) for 1 < s < 3 (exactly 0 at s=2),
    # so demand either the absolute tolerance or clear geometric decay.
    ok = res_full <= 1e-4 or (res_full <= 0.8 * res_half and res_full <= 0.05 * abs(c))
    return CheckResult(
        f"supercritical-w-limit[s={s:g}]",
        ok,
        float(res_full),
        1e-4,
        f"decay {res_half / max(res_full, 1e-300):.2f}x per doubling",
    )


def check_supercritical_window(s: float, w: np.ndarray, ext: np.ndarray) -> CheckResult:
    """ext[N-1] = U_N(a_N)/N**s lies in (0, max W 2**s/(2**s - 1)], w the series W."""
    bound = float(np.max(w)) / dyadic_h(s)
    return CheckResult(
        f"supercritical-window[s={s:g}]",
        bool(np.all(ext > 0.0) and np.all(ext <= bound + 1e-12)),
        float(np.max(ext)),
        bound,
        "positive and within the proof's geometric bound",
    )


def check_supercritical_quarter(w: np.ndarray) -> CheckResult:
    """W_supercritical at s = 2 is exactly 1/4 at every N <= w.size."""
    return _max_le(
        "supercritical-quarter[s=2]",
        float(np.max(np.abs(w - 0.25))),
        1e-10,
        "midpoint transform is exactly 1/4 at s=2",
    )


def check_extremal_monotone(s: float, ext: np.ndarray) -> CheckResult:
    """The structural values ext[N-1] = U_N(a_N) do not decrease in N."""
    worst = float(np.max(ext[:-1] - ext[1:]))
    budget = 1e-9 * float(np.max(np.abs(ext)))
    detail = "running minima are non-decreasing"
    return _max_le(f"extremal-monotone[s={s:g}]", worst, budget, detail)


def check_greedy_energy_dominates_roots(s: float, values: np.ndarray, e: np.ndarray) -> CheckResult:
    """E_s(N) = e[N-1] <= the greedy energy for 2 <= N <= n = e.size, values[N-1] = U_N(a_N), N < n."""
    n = e.size
    energies = energy_series_from_extremal(values[:n - 1])
    worst = float(np.max(e[1:] - energies[1:], initial=0.0))  # nan where both overflow, and fails
    return _max_le(
        f"greedy-energy-dominates-roots[s={s:g}]",
        worst,
        1e-9 * abs(energies[n - 1]),
        "roots-of-unity energy never exceeds the greedy energy",
    )


def check_continuous_energy_forms() -> CheckResult:
    """continuous_energy(s) agrees with Gamma(1-s)/Gamma(1-s/2)**2 for s = 0.05, 0.10, ..., 0.95."""
    worst = 0.0
    for s100 in range(5, 100, 5):
        s = s100 / 100.0
        first = continuous_energy(s)
        second = math.gamma(1.0 - s) / math.gamma(1.0 - s / 2.0) ** 2
        worst = max(worst, abs(first - second) / abs(first))
    return _max_le("continuous-energy-forms", worst, 1e-12)


def check_zeta_sign_and_euler_gamma() -> CheckResult:
    sign_ok = all(zeta(s / 20.0) < 0.0 for s in range(1, 20)) and all(
        zeta(1.0 + s / 4.0) > 1.0 for s in range(1, 17)
    )
    nh = 1_000_000
    partials = []
    for a in range(1, nh + 1, _CHECK_BLOCK):
        h = np.arange(a, min(a + _CHECK_BLOCK, nh + 1), dtype=np.float64)
        partials.append(float(np.sum(np.reciprocal(h, out=h))))
    harmonic = math.fsum(partials)
    gamma_resid = abs(harmonic - math.log(nh) - EULER_GAMMA)
    return CheckResult(
        "zeta-sign-and-euler-gamma",
        sign_ok and gamma_resid <= 1.0 / nh,
        gamma_resid,
        1.0 / nh,
        "zeta < 0 on (0,1), zeta > 1 beyond, gamma matches its defining limit",
    )


def check_theta_invariants(s_values, max_bits: int = 12) -> CheckResult:
    """Every theta of odd M < 2**max_bits sums to 1 and decays; G and Lambda lie in their brackets.

    The sum and the decay are integer array identities.  G and Lambda are read
    on the array screens of ``binary``: only the M whose screen value lies
    within the slack of a bracket end are evaluated exactly, and the residual,
    the minimum of Lambda, by ``_first_extreme``, so the decisions and the
    residual are those of ``g_value``/``lambda_value`` at every M.  The depth
    ``max_bits`` is this check's N: ``verify_all`` keeps 12, the acceptance suite 16.
    """
    m = binary._odd_m(max_bits)
    # theta_k = 2**e_k/M: the sum is 1 and theta_k <= 2**(1-k), in integers;
    # set bit j is the k-th from the top, k = tau_b(M >> j), and decays if 2**(j+k-1) <= M
    total = np.zeros_like(m)
    oks = []
    for j in range(max_bits):
        bit = ((m >> j) & 1) == 1
        total[bit] += 1 << j
        oks.append(np.all(m[bit] >> (j + np.bitwise_count(m[bit] >> j) - 1) >= 1))
    oks.append(np.all(total == m))
    lam = binary._lambda_screen(m)
    near = binary._near(lam, -2.5) | binary._near(lam, 0.0)
    oks.append(binary._all_hold(m, lam, near, lambda v: (-2.5 < v) & (v <= 0.0), binary.lambda_value))
    for s in (s for s in s_values if s != 1.0):
        g = binary._g_screen(m, s)
        # 1 <= G < 2**s/(2**s - 1) below s = 1, 0 < G <= 1 above
        lo, hi = (1.0, 1.0 / dyadic_h(s)) if s < 1 else (0.0, 1.0)
        near = binary._near(g, lo) | binary._near(g, hi)
        oks.append(binary._all_hold(
            m, g, near, lambda v: (lo <= v) & (v < hi) if s < 1 else (lo < v) & (v <= hi),
            lambda mm: binary.g_value(mm, s),
        ))
    worst = min(0.0, binary._first_extreme(m, lam, binary.lambda_value, -1)[0])
    return CheckResult("theta-invariants", all(oks), worst, -2.5, "sum=1 exact, decay, G/Lambda brackets")


def check_g_strictly_decreasing_in_s(s_values) -> CheckResult:
    """G(theta; s) strictly decreases along the s grid for every odd 1 < M < 2**8.

    Read on the array screens; only the M at which two neighbouring values
    lie within the screen slack are compared on exact values.
    """
    grid_s = sorted(set(s_values) | {0.25, 0.75, 1.25, 3.0})
    m = binary._odd_m(8)[1:]  # M = 1, the vector (1), has G identically 1
    screen = np.array([binary._g_screen(m, s) for s in grid_s])
    near = np.any(binary._near(screen[1:], screen[:-1]), axis=0)
    mono_ok = binary._all_hold(
        m, screen, near, lambda g: np.all(g[:-1] > g[1:], axis=0),
        lambda mm: np.array([binary.g_value(mm, s) for s in grid_s]),
    )
    detail = "for vectors other than (1)"
    return CheckResult("g-strictly-decreasing-in-s", mono_ok, 0.0, 0.0, detail)


def check_tau_binary_properties() -> CheckResult:
    tau_ok = True
    for a in range(1, 1_000_001, _CHECK_BLOCK):
        n_arr = np.arange(a, min(a + _CHECK_BLOCK, 1_000_001), dtype=np.int32)
        taus = np.bitwise_count(n_arr)  # uint8
        tau2 = np.bitwise_count(n_arr << 1)
        tau_ok = tau_ok and bool(np.all(n_arr >= (np.int32(1) << taus) - 1) and np.all(tau2 == taus))
    recon_ok = all(sum(1 << e for e in decompose(k)) == k for k in range(1, 2048))
    return CheckResult(
        "tau-binary-properties",
        tau_ok and recon_ok,
        0.0,
        0.0,
        "tau(2N)=tau(N), N >= 2^tau - 1, decomposition reconstructs N",
    )


def check_summation_reversal(s_values) -> CheckResult:
    """pairwise_sum of 4998 midpoint terms is insensitive to their order."""
    k = np.arange(1, 4999, dtype=np.float64)
    chords = 2.0 * np.sin((2.0 * k - 1.0) * (np.pi / (2.0 * 4998)))
    with np.errstate(over="ignore"):  # terms past float64's range: inf sums, a nan ratio, a failure
        sums = [(pairwise_sum(t), pairwise_sum(t[::-1])) for t in (chord_kernel(chords, s) for s in s_values)]
    worst = np.max([abs(fwd - rev) / abs(fwd) for fwd, rev in sums], initial=0.0)
    return _max_le("summation-reversal", worst, 1e-12)


def check_cross_construction(s: float, values: np.ndarray, start: float) -> CheckResult:
    """The greedy from one start point reproduces the structural values[N-1] = U_N(a_N), N < n."""
    n = values.size + 1
    run = greedy_numerical(Configuration.from_turns([start]), s, n)
    worst = float(np.max(np.abs(run.extremal_values - values)))
    return _max_le(f"cross-construction[s={s:g}]", worst, 1e-6, f"N<={n}")


def check_generalized_greedy_trend(s: float, n: int) -> CheckResult:
    run = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), s, n)
    angles = run.points.angles()
    discs = [star_discrepancy(angles[:k]) for k in (n // 4, n // 2, n)]
    trend_ok = all(b <= 1.1 * a for a, b in zip(discs, discs[1:]))
    ext = run.extremal_values
    mono_ok = bool(np.all(np.diff(ext[run.p:]) >= -1e-9 * float(np.max(np.abs(ext)))))
    nn = np.arange(run.p + 1, n)
    bound_ok = bool(np.all(ext[run.p:] <= nn * continuous_energy(s)))
    return CheckResult(
        f"generalized-greedy-trend[s={s:g}]",
        trend_ok and mono_ok and bound_ok and discs[-1] <= 0.05,
        float(discs[-1]),
        0.05,
        "discrepancy non-increasing (10% slack), minima monotone and below N*I_s",
    )


def verify_all(n_max: int = 2048, s_grid=(0.5, 1.0, 1.5, 2.0)) -> VerificationReport:
    """Run every identity, inequality, and limit check over the given grid (each s once).

    The arrays that several checks read are built once, only as far as a check
    reads them, and the checks take slices of them, bitwise the arrays they would
    build alone.  With n_roots = min(n_max, 1024): E_s(N) at every positive s and
    2, in one call, and R from it, N <= 2 n_roots; the roots' potentials at one
    root, N <= n_roots, and their direct energies at the exponents of E_s(N),
    N <= min(n_max, 512), one chord pass per N; the structural prefix potentials
    at s = 0 and all positive s in one pass; per positive s, one U_N(a_N) array, N <= n_max,
    which the extremal series normalizes and the cross-construction and first-order checks
    slice; W, N <= n_roots below s = 1, n_max above; R and T at single N as rows of their
    series.  Every array is O(len(s_grid) * n_max); the checks over N <= 10**6 go in blocks.
    """
    n_max = require(size(n_max, 8, "n_max"), f"n_max={n_max}")
    s_grid = tuple(dict.fromkeys(exponent(s) for s in s_grid))
    pos = [s for s in s_grid if s > 0]
    sub = [s for s in pos if s < 1]
    sup = [s for s in pos if s > 1]
    n_roots = min(n_max, 1024)
    n_direct = min(n_max, 512)

    exponents = pos + [2.0] * (2.0 not in pos)
    ns = np.arange(1, 2 * n_roots + 1)
    e = dict(zip(exponents, roots_energy(ns, exponents)))  # e[s][N-1] = E_s(N), N <= 2 n_roots
    potentials = roots_potentials(n_roots, pos)  # one row per s
    roots = (Configuration.from_turns(np.arange(k) / k) for k in range(2, n_direct + 1))
    direct = dict(zip(exponents, np.array([energy(c, exponents) for c in roots]).T))  # [s][N-2]
    u = prefix_potentials(structural_angles(n_max + 1), [0.0] + pos)
    values = {s: extremal_values_structural(n_max, s) for s in pos}  # values[s][N-1] = U_N(a_N)
    ext = {s: _normalize(v, _nf(1, n_max + 1), s) for s, v in values.items()}  # the extremal series

    checks = [
        check_sup_norm_identity(u[0, : min(n_max, 5000)]),
        check_sup_norm_ratio_dyadic_ones(n_max),
        check_sup_norm_ratio_doubling_decreasing(min(64, n_max)),
    ]
    for s, pot in zip(pos, potentials):
        checks.append(check_roots_potential_identity(s, pot, e[s][:n_roots]))
        checks.append(check_midpoint_energy_identity(s, e[s][: 2 * n_roots]))
    checks.append(check_inverse_square_bruteforce(direct[2.0][: min(64, n_max) - 1]))
    checks.append(check_inverse_square_closed_form(e[2.0][:n_roots]))
    checks += [check_roots_energy_direct(s, direct[s], e[s][:n_direct]) for s in pos]
    checks += [check_binary_decomposition_potential(s, u_s, values[s]) for s, u_s in zip(pos, u[1:])]
    for s in sub:
        w = normalized_series("W_subcritical", s, n_roots).values
        checks.append(check_subcritical_w_r_relation(s, w, _r_series(e[s], ns, s)))
        checks.append(check_subcritical_r_limit(s, n_max))
        checks.append(check_subcritical_negative(s, ext[s]))
        checks.append(check_subcritical_window(s, w, ext[s]))
        checks.append(check_divergence_witnesses(s, ext[s]))
    if 1.0 in s_grid:
        checks.append(check_critical_t_limit(n_max))
        checks.append(check_critical_first_order_corrected(values[1.0], 2e-4))
        checks.append(check_divergence_witnesses(1.0, ext[1.0]))
        checks.append(check_critical_window(ext[1.0]))
    for s in sup:
        w = normalized_series("W_supercritical", s, n_max).values
        checks.append(check_supercritical_w_limit(s, w))
        checks.append(check_supercritical_window(s, w, ext[s]))
        if s == 2.0:
            checks.append(check_supercritical_quarter(w))
        checks.append(check_divergence_witnesses(s, ext[s]))
    for s in pos:
        checks.append(check_extremal_monotone(s, values[s]))
        checks.append(check_greedy_energy_dominates_roots(s, values[s], e[s][: min(256, n_max)]))
    checks.append(check_continuous_energy_forms())
    checks.append(check_zeta_sign_and_euler_gamma())
    checks.append(check_theta_invariants(pos))
    checks.append(check_g_strictly_decreasing_in_s(pos))
    checks.append(check_tau_binary_properties())
    checks.append(check_summation_reversal(pos))
    for s in dict.fromkeys(pos[:1] + pos[-1:]):
        checks.append(check_cross_construction(s, values[s][: min(64, n_max) - 1], 0.0))
    if sub:
        checks.append(check_generalized_greedy_trend(sub[0], min(256, n_max)))
    return VerificationReport(checks)
