"""Binary-expansion combinatorics behind the greedy-sequence analysis.

For N = 2**n_1 + ... + 2**n_p with n_1 > ... > n_p >= 0, ``tau_b(N) = p`` is
the binary digit count and ``decompose(N)`` lists the exponents.  The limit
directions of the normalized digit pattern (2**n_1/N, ..., 2**n_p/N) form the
family of vectors

    theta = (2**n_1/M, ..., 2**n_t/M, 0, ..., 0),   M = sum of the powers odd,

represented exactly as rationals by :class:`ThetaVector`.  Two functionals on
these vectors control the second-order limit points of the extremal
potentials:

    G(theta; s)  = sum_k theta_k**s
    Lambda(theta) = sum_k theta_k*log(theta_k)      (0*log 0 := 0)

The suprema/infima of G and Lambda over all theta have no known closed forms;
:func:`search_g_extremes` and :func:`search_lambda` provide certified
one-sided bounds from a finite enumeration plus the structured family
M = 2**t - 1, which approaches the known landmarks 1/(2**s - 1) and -2*log 2
fastest.  The enumeration is evaluated as numpy arrays over all odd M, one
pass per bit; only the M within rounding of the array extreme are evaluated
again exactly, so no ThetaVector is built except the witnesses.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ThetaVector",
    "tau_b",
    "decompose",
    "theta_from_odd",
    "enumerate_theta",
    "count_theta",
    "g_value",
    "lambda_value",
    "search_g_extremes",
    "search_lambda",
    "GSearchResult",
    "LambdaSearchResult",
]

# Largest exponent used when probing the structured family M = 2**t - 1.
_FAMILY_MAX_T = 60
# The array screen of the searches keeps every M whose array value lies within
# this relative slack of the array extreme.  An array value is a sum of at
# most 60 same-signed terms, so it is within about 1e-14 relative of the exact
# (fsum) value; the slack is far above that and far below the gaps between
# distinct values.  The absolute floor covers extremes that underflow to 0.
_SCREEN_SLACK = 1e-12
_SCREEN_FLOOR = 1e-300


def tau_b(n: int) -> int:
    """Number of ones in the binary representation of n >= 1."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    return int(n).bit_count()


def decompose(n: int) -> tuple[int, ...]:
    """Exponents n_1 > n_2 > ... > n_p >= 0 of the set bits of n >= 1."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    return tuple(i for i in range(n.bit_length() - 1, -1, -1) if (n >> i) & 1)


@dataclass(frozen=True)
class ThetaVector:
    """Vector (2**n_1/M, ..., 2**n_t/M, 0, ..., 0) with M odd, n_t = 0.

    Components are exact rationals; ``trailing_zeros`` pads the vector to
    length p = t + trailing_zeros.  The components sum to exactly 1 and
    satisfy theta_k <= 2**(1-k).
    """

    m: int
    exponents: tuple[int, ...]
    trailing_zeros: int = 0

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"M must be odd and positive, got {self.m}")
        if self.trailing_zeros < 0:
            raise ValueError("trailing_zeros must be >= 0")
        if sum(1 << e for e in self.exponents) != self.m:
            raise ValueError("exponents do not reconstruct M")
        if list(self.exponents) != sorted(self.exponents, reverse=True) or self.exponents[-1] != 0:
            raise ValueError("exponents must be strictly decreasing and end at 0")

    @property
    def p(self) -> int:
        """Total length including trailing zeros."""
        return len(self.exponents) + self.trailing_zeros

    @property
    def t(self) -> int:
        """Number of nonzero components."""
        return len(self.exponents)

    def components(self) -> tuple[Fraction, ...]:
        nonzero = tuple(Fraction(1 << e, self.m) for e in self.exponents)
        return nonzero + (Fraction(0),) * self.trailing_zeros


def theta_from_odd(m: int, p: int) -> ThetaVector:
    """Theta vector of the odd integer m, padded with zeros to length p."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"M must be odd and positive, got {m}")
    t = tau_b(m)
    if p < t:
        raise ValueError(f"need p >= tau_b(M) = {t}, got p = {p}")
    return ThetaVector(m=m, exponents=decompose(m), trailing_zeros=p - t)


def _check_theta_args(p: int, max_bits: int) -> None:
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if max_bits < 1:
        raise ValueError(f"need max_bits >= 1, got {max_bits}")


def enumerate_theta(p: int, max_bits: int) -> list[ThetaVector]:
    """All theta vectors with odd M < 2**max_bits and at most p nonzero parts.

    Each vector is padded to length p.  The order (ascending M) is
    deterministic; distinct M give distinct vectors, so no deduplication is
    needed.
    """
    _check_theta_args(p, max_bits)
    out = []
    for m in range(1, 1 << max_bits, 2):
        if tau_b(m) <= p:
            out.append(theta_from_odd(m, p))
    return out


def count_theta(p: int, max_bits: int) -> int:
    """len(enumerate_theta(p, max_bits)), without building the vectors.

    An odd M < 2**max_bits has bit 0 set and max_bits - 1 free bits, so the
    count is sum_{j < min(p, max_bits)} C(max_bits - 1, j).
    """
    _check_theta_args(p, max_bits)
    return sum(math.comb(max_bits - 1, j) for j in range(min(p, max_bits)))


def g_value(theta: ThetaVector, s: float) -> float:
    """G(theta; s) = sum_k theta_k**s (zero components contribute 0)."""
    if not s > 0:
        raise ValueError(f"need s > 0, got {s}")
    m = theta.m
    return math.fsum(((1 << e) / m) ** s for e in theta.exponents)


def lambda_value(theta: ThetaVector) -> float:
    """Lambda(theta) = sum_k theta_k*log(theta_k), with 0*log 0 = 0; always <= 0."""
    m = theta.m
    log_m = math.log(m)
    return math.fsum(
        ((1 << e) / m) * (e * math.log(2.0) - log_m) for e in theta.exponents
    )


def _family_vector(t: int) -> ThetaVector:
    """Structured vector for M = 2**t - 1 (components 2**j/M, j = t-1..0)."""
    return ThetaVector(m=(1 << t) - 1, exponents=tuple(range(t - 1, -1, -1)))


@dataclass(frozen=True)
class GSearchResult:
    """Extremes of G over the enumeration, plus the separate family probe.

    ``sup_found``/``inf_found`` come from the enumeration with odd
    M < 2**max_bits (certified one-sided bounds for sup G when 0 < s < 1 and
    inf G when s > 1).  ``family_sup``/``family_inf`` are the extremes over
    the structured family M = 2**t - 1, t <= 60, which approaches the
    landmark 1/(2**s - 1) fastest; they are valid bounds of the same kind.
    """

    sup_found: float
    inf_found: float
    sup_witness: ThetaVector
    inf_witness: ThetaVector
    family_sup: float
    family_inf: float
    degenerate: bool = False

    @property
    def best_sup_bound(self) -> float:
        """Largest certified lower bound for sup G."""
        return max(self.sup_found, self.family_sup)

    @property
    def best_inf_bound(self) -> float:
        """Smallest certified upper bound for inf G."""
        return min(self.inf_found, self.family_inf)


@dataclass(frozen=True)
class LambdaSearchResult:
    """Minimum of Lambda over the enumeration, plus the separate family probe."""

    inf_found: float
    witness: ThetaVector
    family_inf: float

    @property
    def best_inf_bound(self) -> float:
        """Smallest certified upper bound for inf Lambda."""
        return min(self.inf_found, self.family_inf)


def _odd_bit_sums(max_bits: int, term):
    """Odd M < 2**max_bits and, for each, the sum of term(2**j/M) over its set bits j.

    One array pass per bit position; the sums are within rounding of the
    fsum values of ``g_value``/``lambda_value`` and serve only as a screen.
    """
    if max_bits < 1:
        raise ValueError(f"need max_bits >= 1, got {max_bits}")
    m = np.arange(1, 1 << max_bits, 2, dtype=np.int64)
    mf = m.astype(np.float64)
    total = np.zeros(m.size)
    for j in range(max_bits):
        bit = ((m >> j) & 1) == 1
        total[bit] += term(math.ldexp(1.0, j) / mf[bit])
    return m, total


def _first_extreme(m, screen, exact, sign):
    """The extreme of ``exact`` over m and the first M (ascending) that attains it.

    ``sign`` is 1 for a maximum and -1 for a minimum.  Only the M whose
    ``screen`` value lies within the slack of the screen's extreme are
    evaluated exactly, in ascending order, keeping the first strict
    improvement, as a loop over all M would.
    """
    scaled = sign * screen
    top = float(scaled.max())
    keep = scaled >= top - (_SCREEN_SLACK * abs(top) + _SCREEN_FLOOR)
    best_v, best_m = -math.inf, 1
    for cand in m[keep].tolist():
        v = sign * exact(cand)
        if v > best_v:
            best_v, best_m = v, cand
    return sign * best_v, best_m


def search_g_extremes(s: float, max_bits: int) -> GSearchResult:
    """Bounded search for the extremes of G(.; s).

    Scans every vector with odd M < 2**max_bits (as ``enumerate_theta(max_bits,
    max_bits)`` lists them); the structured family M = 2**t - 1, t <= 60, is
    evaluated separately and reported in the ``family_*`` fields.  At s = 1
    the function is identically 1 and the result is flagged degenerate.
    """
    if not s > 0:
        raise ValueError(f"need s > 0, got {s}")
    one = theta_from_odd(1, 1)
    if s == 1.0:
        return GSearchResult(1.0, 1.0, one, one, 1.0, 1.0, degenerate=True)
    m, screen = _odd_bit_sums(max_bits, lambda theta: theta ** s)

    def exact(mm):
        return g_value(theta_from_odd(mm, max_bits), s)

    sup_v, sup_m = _first_extreme(m, screen, exact, 1)
    inf_v, inf_m = _first_extreme(m, screen, exact, -1)
    family = [g_value(_family_vector(t), s) for t in range(1, _FAMILY_MAX_T + 1)]
    return GSearchResult(
        sup_v, inf_v, theta_from_odd(sup_m, max_bits), theta_from_odd(inf_m, max_bits),
        max(family), min(family),
    )


def search_lambda(max_bits: int) -> LambdaSearchResult:
    """Bounded search for the infimum of Lambda: a certified upper bound.

    ``inf_found`` is the minimum over the vectors with odd M < 2**max_bits;
    the family M = 2**t - 1, t <= 60, which approaches the landmark -2*log 2
    from above, is evaluated separately.
    """
    m, screen = _odd_bit_sums(max_bits, lambda theta: theta * np.log(theta))
    best_v, best_m = _first_extreme(
        m, screen, lambda mm: lambda_value(theta_from_odd(mm, max_bits)), -1
    )
    family_inf = min(lambda_value(_family_vector(t)) for t in range(1, _FAMILY_MAX_T + 1))
    return LambdaSearchResult(best_v, theta_from_odd(best_m, max_bits), family_inf)
