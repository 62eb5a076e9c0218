"""The library-wide compute budget.

A leaf module: it imports nothing from the package, so every module can
import the budget without forming an import cycle.  ``circle`` and the
package re-export both names.
"""

# Library-wide size guard: direct summations refuse N beyond this.
MAX_POINTS = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when a request exceeds the configured compute budget."""
