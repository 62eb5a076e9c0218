"""The library-wide compute budget and the domain of the Riesz exponent.

A leaf module: it imports nothing from the package, so every module can
import it without forming an import cycle.  ``circle`` and the package
re-export ``MAX_POINTS`` and ``BudgetExceededError``.  Every size guard in
the package is a call to :func:`require`, every exponent check one to :func:`exponent`.
"""

import math

# Library-wide size guard: direct summations refuse N beyond this.
MAX_POINTS = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when a request exceeds the configured compute budget."""


def require(n: int, what: str | None = None) -> None:
    """Raise BudgetExceededError if a request of size n exceeds MAX_POINTS.

    The message names the request as ``what``, by default ``N=<n>``.
    """
    if n > MAX_POINTS:
        raise BudgetExceededError(f"{what or f'N={n}'} exceeds the compute budget {MAX_POINTS}")


def exponent(s, positive: bool = False) -> float:
    """s as a float if it is a finite Riesz exponent, s >= 0 (s > 0 if ``positive``);
    otherwise the one ValueError "Riesz exponent must be finite and >= 0 (> 0), got <s>"."""
    s = float(s)
    if not ((0.0 < s) if positive else (0.0 <= s)) or s == math.inf:
        raise ValueError(f"Riesz exponent must be finite and {'>' if positive else '>='} 0, got {s}")
    return s
