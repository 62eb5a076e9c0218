"""Special functions and the catalog of theoretical limit constants.

Provides the regime classification of the Riesz exponent, the Riemann zeta
function on s > 0 (s != 1) via the alternating (eta) series accelerated with
Chebyshev-polynomial weights (Cohen / Rodriguez Villegas / Zagier), the
Euler-Mascheroni constant, the critical second-order level
(gamma + log(8/pi))/pi, and the continuous s-energy of normalized arc length
on the circle (Gamma is ``math.gamma``)

    I_s = 2**(-s)/sqrt(pi) * Gamma((1-s)/2) / Gamma(1-s/2)
        = Gamma(1-s) / Gamma(1-s/2)**2,        0 < s < 1,  I_0 = 0.

:func:`roots_energy_expansion` gives the coefficients of the
Brauchart-Hardin-Saff expansion of the roots-of-unity energy, using zeta
continued below 0 by the functional equation.

:func:`limit_catalog` assembles, per regime of the exponent s, the first- and
second-order limit constants of the extremal greedy potentials:

    0 < s < 1:  first order I_s, second-order limsup (2**s-1)*2*zeta(s)/(2*pi)**s
    s = 1:      first order 1/pi, second-order limsup (gamma + log(8/pi))/pi
    s > 1:      first-order limsup (2**s-1)*2*zeta(s)/(2*pi)**s

The corresponding liminf constants involve the suprema/infima of the digit
functionals G and Lambda, which are not known in closed form; the catalog
reports certified brackets from the bounded searches of :mod:`lejacircle.binary`,
the landmarks 1/(2**s-1) and -2*log 2, and the floor ``LAMBDA_FLOOR`` of Lambda.
"""

import math
from dataclasses import dataclass

from . import binary
from .budget import exponent

__all__ = [
    "EULER_GAMMA",
    "CRITICAL_LEVEL",
    "classify_regime",
    "zeta",
    "continuous_energy",
    "ConstantsCatalog",
    "limit_catalog",
]

# Regime labels for the Riesz exponent.
REGIME_LOG = "log"
REGIME_SUBCRITICAL = "subcritical"
REGIME_CRITICAL = "critical"
REGIME_SUPERCRITICAL = "supercritical"

# Euler-Mascheroni constant, nearest double.
EULER_GAMMA = 0.5772156649015329
# limsup of the critical second-order series (U_N(a_N) - N log(N)/pi)/N
CRITICAL_LEVEL = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi
# Lower bound of Lambda: -M/e - 2*log 2 with 2**(-M) < 1/e, hence M = 2.
LAMBDA_FLOOR = -2.0 / math.e - 2.0 * math.log(2.0)

# Terms of the accelerated alternating series; error ~ (3+sqrt(8))**(-n).
_ZETA_TERMS = 50
# Depth of the bounded G/Lambda searches behind the liminf brackets: odd M < 2**16.
_CATALOG_MAX_BITS = 16


def classify_regime(s: float) -> str:
    """Classify the finite Riesz exponent: log (s=0), subcritical, critical, supercritical."""
    s = exponent(s)
    if s == 0:
        return REGIME_LOG
    if s < 1:
        return REGIME_SUBCRITICAL
    if s == 1:
        return REGIME_CRITICAL
    return REGIME_SUPERCRITICAL


def zeta(s: float) -> float:
    """Riemann zeta on s > 0, s != 1, via the accelerated alternating series.

    zeta(s) = eta(s) / (1 - 2**(1-s)) with eta the alternating zeta; the
    Chebyshev weighting converges at rate (3+sqrt(8))**(-n) uniformly on the
    two regimes used here (0 < s < 1 and s > 1).
    """
    if not s > 0:
        raise ValueError(f"zeta evaluated only for s > 0, got {s}")
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    n = _ZETA_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    eta = acc / d
    # 1 - 2**(1-s) without the cancellation next to s = 1
    return eta / -math.expm1((1.0 - s) * math.log(2.0))


# Terms a_0..a_12 of roots_energy_expansion (circle.py states the truncation bound).
_EXPANSION_TERMS = 13
# zeta(2j), j = 1..12: j times the z**(2j) coefficient of log(pi*z/sin(pi*z)).
_ZETA_EVEN = tuple(zeta(2.0 * j) for j in range(1, _EXPANSION_TERMS))


def continuous_energy(s: float) -> float:
    """Continuous s-energy of normalized arc length, for 0 <= s < 1:
    2**(-s)/sqrt(pi) * Gamma((1-s)/2) / Gamma(1-s/2).

    The one definition of I_s: ``analysis.check_continuous_energy_forms``
    checks this function against the equivalent form Gamma(1-s)/Gamma(1-s/2)**2.
    """
    if not 0 <= s < 1:
        raise ValueError(f"continuous energy is finite only for 0 <= s < 1, got {s}")
    if s == 0:
        return 0.0
    return 2.0 ** (-s) / math.sqrt(math.pi) * math.gamma((1.0 - s) / 2.0) / math.gamma(1.0 - s / 2.0)


def _zeta_continued(x: float) -> float:
    """zeta(x) for every real x != 1.

    ``zeta`` itself for x > 0, -1/2 at 0, and below 0 the functional equation
    zeta(x) = 2**x pi**(x-1) sin(pi x/2) Gamma(1-x) zeta(1-x).
    """
    if x > 0:
        return zeta(x)
    if x == 0:
        return -0.5
    if x % 2.0 == 0.0:
        return 0.0  # the trivial zeros
    sin_half = math.sin(math.pi * math.fmod(0.5 * x, 2.0))  # the reduction mod 2 is exact
    return 2.0 ** x * math.pi ** (x - 1.0) * sin_half * math.gamma(1.0 - x) * zeta(1.0 - x)


def roots_energy_expansion(s: float) -> tuple[float, list[float]]:
    """V_s and a_0..a_12 of E_s(M)/M = V_s*M + sum_k a_k*M**(s-2k) + O(M**(s-26)).

    The asymptotic expansion of the roots-of-unity energy E_s(M) = roots_energy(M, s)
    by Brauchart, Hardin and Saff (Bull. LMS 41, 2009), for s > 0 other than an odd
    integer, where log M terms appear.  a_k = 2*alpha_k(s)*zeta(s-2k)/(2*pi)**s with
    alpha_k(s) the Taylor coefficients of (sin(pi*z)/(pi*z))**(-s) in z**2.  V_s is the
    continuous energy I_s for s < 1 and its continuation
    2**(-s)/sqrt(pi)*tan(pi*s/2)*Gamma(s/2)/Gamma((1+s)/2) for s > 1, 0 at even s.
    """
    if not s > 0 or s % 2.0 == 1.0:
        raise ValueError(f"the expansion needs s > 0 other than an odd integer, got {s}")
    # (sin(pi z)/(pi z))**(-s) = exp(s * sum_j zeta(2j)/j * z**(2j)); differentiating gives
    # k*alpha_k = sum_{j=1..k} s*zeta(2j)*alpha_(k-j).
    b = [s * z for z in _ZETA_EVEN]
    alpha = [1.0]
    for k in range(1, _EXPANSION_TERMS):
        alpha.append(math.fsum(b[j] * alpha[k - 1 - j] for j in range(k)) / k)
    scale = 2.0 / (2.0 * math.pi) ** s
    coefs = [scale * a * _zeta_continued(s - 2.0 * k) for k, a in enumerate(alpha)]
    if s < 1:
        v = continuous_energy(s)
    elif s % 2.0 == 0.0:
        v = 0.0
    else:
        # tan(pi*s/2) = -1/tan(pi*(h - 1/2)) with h = s/2 mod 1; h - 1/2 is exact, so
        # the pole at odd s costs no precision
        h = math.fmod(0.5 * s, 1.0)
        v = -(2.0 ** (-s) / math.sqrt(math.pi) * math.gamma(0.5 * s) / math.gamma(0.5 + 0.5 * s)
              / math.tan(math.pi * (h - 0.5)))
    return v, coefs


@dataclass(frozen=True)
class ConstantsCatalog:
    """Regime-dependent theoretical limits for the extremal potentials.

    The fields are the JSON keys; ``liminf_lower``/``liminf_upper`` bracket the
    (unknown) liminf constant; entries are None where they do not apply.
    """

    s: float
    regime: str
    i_sigma: float | None = None
    zeta: float | None = None
    first_order: float = 0.0
    limsup: float | None = None
    liminf_lower: float | None = None
    liminf_upper: float | None = None


def dyadic_h(s: float) -> float:
    """h = 1 - 2**(-s) and 2**s/(2**s - 1) = 1/h; 2**s - 1 is 0 below s = 1.6e-16, inf from 1024."""
    return -math.expm1(-s * math.log(2.0))


def second_order_scale(s: float) -> float:
    """(2**s - 1) * 2*zeta(s) / (2*pi)**s, the dyadic-subsequence limit, as
    h * 2*zeta(s) * pi**(-s): finite for every s > 0, near 0 too."""
    return dyadic_h(s) * 2.0 * zeta(s) * math.pi ** -s


def limit_catalog(s: float) -> ConstantsCatalog:
    """Assemble the limit constants for exponent s >= 0.

    The liminf brackets use the bounded searches over odd M < 2**16.
    """
    regime = classify_regime(s)
    if regime == REGIME_LOG:
        return ConstantsCatalog(s=s, regime=regime, i_sigma=0.0)
    if regime == REGIME_CRITICAL:
        search = binary.search_lambda(_CATALOG_MAX_BITS)
        lam_ub = min(search.inf_found, search.family_inf, -2.0 * math.log(2.0))
        return ConstantsCatalog(
            s=s,
            regime=regime,
            first_order=1.0 / math.pi,
            limsup=CRITICAL_LEVEL,
            liminf_lower=CRITICAL_LEVEL + LAMBDA_FLOOR / math.pi,
            liminf_upper=CRITICAL_LEVEL + lam_ub / math.pi,
        )
    c = second_order_scale(s)  # negative for s < 1, positive for s > 1
    search = binary.search_g_extremes(s, _CATALOG_MAX_BITS)
    h = dyadic_h(s)
    landmark = 0.5 ** s / h  # 1/(2**s - 1), inf once h is subnormal
    if regime == REGIME_SUBCRITICAL:
        g_sup_lb = max(search.sup_found, search.family_sup)
        return ConstantsCatalog(
            s=s,
            regime=regime,
            i_sigma=continuous_energy(s),
            zeta=zeta(s),
            first_order=continuous_energy(s),
            limsup=c,
            liminf_lower=c / h,  # sup G <= 2**s/(2**s - 1)
            # landmark * c as 0.5**s * (c/h), which stays finite
            liminf_upper=g_sup_lb * c if g_sup_lb >= landmark else 0.5 ** s * (c / h),
        )
    g_inf_ub = min(search.inf_found, search.family_inf, landmark)
    return ConstantsCatalog(
        s=s,
        regime=regime,
        zeta=zeta(s),
        first_order=c,
        limsup=c,
        liminf_lower=0.0,
        liminf_upper=g_inf_ub * c,
    )
