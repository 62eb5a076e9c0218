"""The library-wide compute budget.

A leaf module: it imports nothing from the package, so every module can
import the budget without forming an import cycle.  ``circle`` and the
package re-export ``MAX_POINTS`` and ``BudgetExceededError``; every size
guard in the package is a call to :func:`require`.
"""

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
