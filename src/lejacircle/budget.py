"""The library-wide compute budget, sizes and the domain of the Riesz exponent.

A leaf module: it imports nothing from the package, so every module can
import it without forming an import cycle.  ``circle`` and the package
re-export ``MAX_POINTS`` and ``BudgetExceededError``.  Every budget guard is a call to
:func:`require`, every size check one to :func:`size`, every exponent one to :func:`exponent`.
"""

import math
import operator

# Library-wide size guard: direct summations refuse N beyond this.
MAX_POINTS = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when a request exceeds the configured compute budget."""


def require(n: int, what: str | None = None) -> int:
    """n, or BudgetExceededError if a request of size n exceeds MAX_POINTS.

    The message names the request as ``what``, by default ``N=<n>``.
    """
    if n > MAX_POINTS:
        raise BudgetExceededError(f"{what or f'N={n}'} exceeds the compute budget {MAX_POINTS}")
    return n


def size(n, low: int | None = 0, what: str = "N") -> int:
    """n as a Python int if it is a Python or numpy integer >= low (None: any); otherwise
    the one ValueError "<what> must be an integer, got <n>" or "need <what> >= <low>, got <n>"."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {n}") from None
    if low is not None and n < low:
        raise ValueError(f"need {what} >= {low}, got {n}")
    return n


def exponent(s, positive: bool = False) -> float:
    """s as a float if it is a finite Riesz exponent, s >= 0 (s > 0 if ``positive``);
    otherwise the one ValueError "Riesz exponent must be finite and >= 0 (> 0), got <s>"."""
    s = float(s)
    if not ((0.0 < s) if positive else (0.0 <= s)) or s == math.inf:
        raise ValueError(f"Riesz exponent must be finite and {'>' if positive else '>='} 0, got {s}")
    return s
