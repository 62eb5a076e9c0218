"""The leaf guards: every public entry point refuses a request past MAX_POINTS,
and every one that takes the Riesz exponent s refuses a bad s with one message."""

import math
import re

import numpy as np
import pytest

from lejacircle import analysis, binary, circle, sequences, special
from lejacircle.budget import MAX_POINTS, BudgetExceededError, exponent, require
from lejacircle.circle import Configuration

OVER = MAX_POINTS + 1

# Each call asks for MAX_POINTS + 1 points, or for the smallest odd-M array past the
# budget (2**21 odd M below 2**22), and must raise before it allocates anything.
# "extremal_series" is the series of the figures, normalized_series of kind extremal.
ENTRY_POINTS = {
    "roots_energy": lambda: circle.roots_energy(OVER, 0.5),
    "midpoint_potential": lambda: circle.midpoint_potential(OVER, 0.5),
    "structural_angles": lambda: sequences.structural_angles(OVER),
    "extremal_values_structural": lambda: sequences.extremal_values_structural(OVER, 0.5),
    "greedy_numerical": lambda: sequences.greedy_numerical(Configuration.from_turns([0.0]), 0.5, OVER),
    "extremal_series": lambda: analysis.normalized_series("extremal", 0.5, OVER),
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


# Each call passes s to one public entry point; True marks those that need s > 0.
# "extremal_series" is normalized_series of kind extremal, "normalized_series" a regime kind.
THREE = Configuration.from_turns([0.0, 0.25, 0.5])
EXPONENT_ENTRY_POINTS = {
    "classify_regime": (special.classify_regime, False),
    "limit_catalog": (special.limit_catalog, False),
    "prefix_potentials": (lambda s: circle.prefix_potentials(THREE.angles(), s), False),
    "prefix_potentials_array": (lambda s: circle.prefix_potentials(THREE.angles(), [0.5, s]), False),
    "energy": (lambda s: circle.energy(THREE, s), False),
    "energy_array": (lambda s: circle.energy(THREE, np.array([s, 0.5])), False),
    "roots_energy": (lambda s: circle.roots_energy(4, s), True),
    "midpoint_potential": (lambda s: circle.midpoint_potential(4, s), True),
    "extremal_values_structural": (lambda s: sequences.extremal_values_structural(4, s), False),
    "greedy_numerical": (lambda s: sequences.greedy_numerical(THREE, s, 4), False),
    "extremal_series": (lambda s: analysis.normalized_series("extremal", s, 4), False),
    "normalized_series": (lambda s: analysis.normalized_series("W_subcritical", s, 4), False),
    "theta_limit_prediction": (lambda s: analysis.theta_limit_prediction(3, s), False),
    "verify_all": (lambda s: analysis.verify_all(n_max=8, s_grid=[s]), False),
    "g_value": (lambda s: binary.g_value(3, s), True),
    "search_g_extremes": (lambda s: binary.search_g_extremes(s, 4), True),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_ENTRY_POINTS))
@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
def test_entry_point_refuses_bad_exponent(name, s):
    call, positive = EXPONENT_ENTRY_POINTS[name]
    message = f"Riesz exponent must be finite and {'>' if positive else '>='} 0, got {s}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(s)


@pytest.mark.parametrize("name", sorted(n for n, (_, positive) in EXPONENT_ENTRY_POINTS.items() if positive))
def test_positive_entry_point_refuses_zero(name):
    with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and > 0, got 0.0$"):
        EXPONENT_ENTRY_POINTS[name][0](0.0)


def test_exponent():
    assert exponent(0) == 0.0 and type(exponent(0)) is float
    assert type(exponent(np.float64(2.5), positive=True)) is float
    assert exponent(1e308, positive=True) == 1e308
    for bad, positive in ((-0.5, False), (0.0, True), (math.nan, True), (math.inf, False)):
        with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and >?=? ?0, got "):
            exponent(bad, positive)
