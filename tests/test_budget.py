"""The compute budget: every public entry point refuses a request past MAX_POINTS."""

import pytest

from lejacircle import analysis, binary, circle, sequences
from lejacircle.budget import MAX_POINTS, BudgetExceededError, require
from lejacircle.circle import Configuration

OVER = MAX_POINTS + 1

# Each call asks for MAX_POINTS + 1 points, or for the smallest odd-M array past the
# budget (2**21 odd M below 2**22), and must raise before it allocates anything.
ENTRY_POINTS = {
    "roots_energy": lambda: circle.roots_energy(OVER, 0.5),
    "midpoint_potential": lambda: circle.midpoint_potential(OVER, 0.5),
    "structural_angles": lambda: sequences.structural_angles(OVER),
    "extremal_values_structural": lambda: sequences.extremal_values_structural(OVER, 0.5),
    "greedy_numerical": lambda: sequences.greedy_numerical(Configuration.from_turns([0.0]), 0.5, OVER),
    "extremal_series": lambda: analysis.extremal_series(0.5, OVER),
    "normalized_series": lambda: analysis.normalized_series("W_subcritical", 0.5, OVER),
    "verify_all": lambda: analysis.verify_all(n_max=OVER),
    "limit_point_check": lambda: analysis.limit_point_check(1, 2, 0.5, 20),  # N = 2**20 + 1
    "enumerate_theta": lambda: binary.enumerate_theta(1, 22),
    "search_g_extremes": lambda: binary.search_g_extremes(0.5, 22),
    "search_lambda": lambda: binary.search_lambda(22),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_refuses_past_budget(name):
    with pytest.raises(BudgetExceededError, match="exceeds the compute budget 1048576$"):
        ENTRY_POINTS[name]()


def test_require():
    require(MAX_POINTS)
    with pytest.raises(BudgetExceededError, match=r"^N=1048577 exceeds the compute budget 1048576$"):
        require(OVER)
    with pytest.raises(BudgetExceededError, match=r"^n_max=7 exceeds"):
        require(OVER, "n_max=7")
