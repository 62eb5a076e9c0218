"""Binary-expansion combinatorics behind the greedy-sequence analysis.

For N = 2**n_1 + ... + 2**n_p with n_1 > ... > n_p >= 0, ``tau_b(N) = p`` is
the binary digit count and ``decompose(N)`` lists the exponents.  The limit
directions of the normalized digit pattern (2**n_1/N, ..., 2**n_p/N) form the
family of vectors

    theta = (2**n_1/M, ..., 2**n_t/M, 0, ..., 0),   M = sum of the powers odd,

so a vector is its odd M and a length p: the components 2**e/M over the set
bits e of M, then p - tau_b(M) zeros.  Two functionals of M control the
second-order limit points of the extremal potentials:

    G(theta; s)  = sum_k theta_k**s
    Lambda(theta) = sum_k theta_k*log(theta_k)      (0*log 0 := 0)

The suprema/infima of G and Lambda over all theta have no known closed forms;
:func:`search_g_extremes` and :func:`search_lambda` provide certified
one-sided bounds from a finite enumeration plus the structured family
M = 2**t - 1, which approaches the known landmarks 1/(2**s - 1) and -2*log 2
fastest.  The enumeration is evaluated as numpy arrays over all odd M, one
pass per bit; only the M within rounding of the array extreme are evaluated
again exactly, by the fsum of ``g_value``/``lambda_value``.  The same array
screen serves ``verify``'s ``theta-invariants`` and
``g-strictly-decreasing-in-s`` checks: they evaluate exactly only the M
whose screen value lies within rounding of a bracket end (or of its
neighbour on the s grid), and the minimum of Lambda that is their residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .budget import MAX_POINTS, exponent, require, size

__all__ = [
    "tau_b",
    "decompose",
    "enumerate_theta",
    "g_value",
    "lambda_value",
    "search_g_extremes",
    "search_lambda",
    "GSearchResult",
    "LambdaSearchResult",
]

# Largest exponent used when probing the structured family M = 2**t - 1.
_FAMILY_MAX_T = 60
# The array screen keeps every M whose array value lies within this relative
# slack of the array extreme or of a bracket end.  A G value is a sum of at
# most 60 positive terms, within about 1e-15 relative of the exact (fsum)
# value.  A Lambda value is within about 1e-15 absolute, as the log of a
# component near 1 cancels: within the slack wherever |Lambda| > 1e-3, as at
# its minimum, and of the exact sign for every M.  The slack is far below the
# gaps between distinct values; the absolute floor covers values that underflow to 0.
_SCREEN_SLACK = 1e-12
_SCREEN_FLOOR = 1e-300


def tau_b(n: int) -> int:
    """Number of ones in the binary representation of n >= 1."""
    return size(n, 1).bit_count()


def decompose(n: int) -> tuple[int, ...]:
    """Exponents n_1 > n_2 > ... > n_p >= 0 of the set bits of n >= 1."""
    n = size(n, 1)
    # from a list: a generator's tuple is built at a guessed length, resized, and
    # parked on a free list on every call
    return tuple([i for i in range(n.bit_length() - 1, -1, -1) if (n >> i) & 1])


def _check_odd(m: int) -> int:
    m = size(m, None, "M")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"M must be odd and positive, got {m}")
    return m


def _odd_m(max_bits: int) -> np.ndarray:
    """The odd M < 2**max_bits, ascending, as int64; their 2**(max_bits - 1) must fit MAX_POINTS."""
    max_bits = size(max_bits, 1, "max_bits")
    # the count 2**(max_bits - 1), capped one bit past the budget so no huge int is built
    require(1 << min(max_bits - 1, MAX_POINTS.bit_length()), f"odd M count 2**{max_bits - 1}")
    return np.arange(1, 1 << max_bits, 2, dtype=np.int64)


def enumerate_theta(p: int, max_bits: int) -> list[int]:
    """The odd M < 2**max_bits with at most p set bits, in ascending order.

    Each is the theta vector (2**n_1/M, ..., 2**n_t/M, 0, ..., 0) of length p;
    distinct M give distinct vectors, so no deduplication is needed.
    """
    return _theta_m(p, max_bits).tolist()


def _theta_m(p: int, max_bits: int) -> np.ndarray:
    """``enumerate_theta(p, max_bits)`` as int64: 8 bytes per M, where the list takes 36."""
    p = size(p, 1, "p")
    m = _odd_m(max_bits)
    return m[np.bitwise_count(m) <= p]


def g_value(m: int, s: float) -> float:
    """G(theta; s) = sum_k theta_k**s for the theta of odd M (zero components add 0), finite s > 0."""
    m = _check_odd(m)
    s = exponent(s, positive=True)
    return math.fsum(((1 << e) / m) ** s for e in decompose(m))


def lambda_value(m: int) -> float:
    """Lambda(theta) = sum_k theta_k*log(theta_k) for the theta of odd M, with
    0*log 0 = 0; always <= 0."""
    m = _check_odd(m)
    log_m = math.log(m)
    return math.fsum(((1 << e) / m) * (e * math.log(2.0) - log_m) for e in decompose(m))


@dataclass(frozen=True)
class GSearchResult:
    """Extremes of G over the enumeration, plus the separate family probe.

    ``sup_found``/``inf_found`` (first at the odd M ``sup_witness_m``/``inf_witness_m``)
    come from the enumeration with odd M < 2**max_bits: certified one-sided bounds
    for sup G when 0 < s < 1 and inf G when s > 1.  ``family_sup``/``family_inf``,
    the extremes over the family M = 2**t - 1, t <= 60, which approaches the
    landmark 1/(2**s - 1) fastest, are valid bounds of the same kind.  The
    fields of both search records are the JSON keys of ``lejacircle theta``.
    """

    sup_found: float
    inf_found: float
    sup_witness_m: int
    inf_witness_m: int
    family_sup: float
    family_inf: float


@dataclass(frozen=True)
class LambdaSearchResult:
    """Minimum of Lambda over the enumeration, its first odd M, and the family probe."""

    inf_found: float
    witness_m: int
    family_inf: float


def _odd_bit_sums(m, term):
    """For each odd M in the ascending array m, the sum of term(2**j/M) over its set bits j.

    One array pass per bit position; the sums are within rounding of the
    fsum values of ``g_value``/``lambda_value`` and serve only as a screen.
    """
    mf = m.astype(np.float64)
    total = np.zeros(m.size)
    for j in range(int(m[-1]).bit_length()):
        bit = ((m >> j) & 1) == 1
        total[bit] += term(math.ldexp(1.0, j) / mf[bit])
    return total


def _g_screen(m, s) -> np.ndarray:
    """The screen of G(.; s), finite s > 0, over the odd M in m."""
    s = exponent(s, positive=True)
    return _odd_bit_sums(m, lambda theta: theta ** s)


def _lambda_screen(m) -> np.ndarray:
    """The screen of Lambda over the odd M in m."""
    return _odd_bit_sums(m, lambda theta: theta * np.log(theta))


def _near(screen, end):
    """Where a screen value lies within the slack of ``end``, a number or an array like ``screen``."""
    return np.abs(screen - end) <= _SCREEN_SLACK * np.abs(end) + _SCREEN_FLOOR


def _all_hold(m, screen, near, holds, exact) -> bool:
    """Whether ``holds(exact(M))`` for every M in m, as a loop over all M would say.

    ``screen[..., i]`` is the screen value of m[i]; ``holds`` maps a value (or
    the columns of values) to truth.  It decides on the screen wherever
    ``near`` is false, that is wherever rounding cannot cross a decision
    boundary, and on ``exact`` at the remaining M.
    """
    if not np.all(holds(screen[..., ~near])):
        return False
    return all(bool(np.all(holds(exact(cand)))) for cand in m[near].tolist())


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
    the function is identically 1, and every field is 1.
    """
    s = exponent(s, positive=True)
    m = _odd_m(max_bits)
    if s == 1.0:
        return GSearchResult(1.0, 1.0, 1, 1, 1.0, 1.0)
    screen = _g_screen(m, s)
    sup_v, sup_m = _first_extreme(m, screen, lambda mm: g_value(mm, s), 1)
    inf_v, inf_m = _first_extreme(m, screen, lambda mm: g_value(mm, s), -1)
    family = [g_value((1 << t) - 1, s) for t in range(1, _FAMILY_MAX_T + 1)]
    return GSearchResult(sup_v, inf_v, sup_m, inf_m, max(family), min(family))


def search_lambda(max_bits: int) -> LambdaSearchResult:
    """Bounded search for the infimum of Lambda: a certified upper bound.

    ``inf_found`` is the minimum over the vectors with odd M < 2**max_bits;
    the family M = 2**t - 1, t <= 60, which approaches the landmark -2*log 2
    from above, is evaluated separately.
    """
    m = _odd_m(max_bits)
    best_v, best_m = _first_extreme(m, _lambda_screen(m), lambda_value, -1)
    family_inf = min(lambda_value((1 << t) - 1) for t in range(1, _FAMILY_MAX_T + 1))
    return LambdaSearchResult(best_v, best_m, family_inf)
