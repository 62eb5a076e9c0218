"""The leaf guards: every public entry point refuses a request past MAX_POINTS,
every one that takes the Riesz exponent s refuses a bad s with one message, and
every one that takes a size takes numpy integers and refuses floats and sizes
below its floor with one message each."""

import math
import pickle
import re

import numpy as np
import pytest

from lejacircle import analysis, binary, circle, sequences, special
from lejacircle.budget import MAX_POINTS, BudgetExceededError, exponent, require, size
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
    "limit_point_check": (lambda s: analysis.limit_point_check(3, 2, s, 4), False),
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


# Each call passes a size n to one public entry point: (call, a valid n, the floor, the
# size's name in the messages).  M and limit_point_check's p have no floor of their own:
# "M must be odd and positive" and "need p >= tau_b(M)" refuse them.
SIZE_ENTRY_POINTS = {
    "structural_angles": (sequences.structural_angles, 5, 0, "n_points"),
    "extremal_values_structural": (lambda n: sequences.extremal_values_structural(n, 0.5), 5, 1, "n_max"),
    "extremal_values_structural_log": (lambda n: sequences.extremal_values_structural(n, 0.0), 5, 1, "n_max"),
    "greedy_numerical": (lambda n: sequences.greedy_numerical(THREE, 0.5, n), 7, 0, "n_points"),
    "roots_energy": (lambda n: circle.roots_energy(n, 0.5), 5, 1, "N"),
    "midpoint_potential": (lambda n: circle.midpoint_potential(n, 0.5), 9, 1, "N"),  # 9 takes the expansion
    "extremal_series": (lambda n: analysis.normalized_series("extremal", 0.5, n), 9, 2, "n_max"),
    "extremal_series_log": (lambda n: analysis.normalized_series("extremal", 0.0, n), 9, 2, "n_max"),
    "normalized_series": (lambda n: analysis.normalized_series("W_subcritical", 0.5, n), 9, 2, "n_max"),
    "verify_all": (lambda n: analysis.verify_all(n_max=n, s_grid=[0.5]), 9, 8, "n_max"),
    "limit_point_check_m": (lambda m: analysis.limit_point_check(m, 3, 0.5, 5), 5, None, "M"),
    "limit_point_check_p": (lambda p: analysis.limit_point_check(5, p, 0.5, 5), 3, None, "p"),
    "limit_point_check_depth": (lambda d: analysis.limit_point_check(1, 5, 0.5, d), 6, 4, "depth"),
    "tau_b": (binary.tau_b, 5, 1, "N"),
    "decompose": (binary.decompose, 5, 1, "N"),
    "enumerate_theta_p": (lambda p: binary.enumerate_theta(p, 6), 2, 1, "p"),
    "enumerate_theta_max_bits": (lambda b: binary.enumerate_theta(3, b), 6, 1, "max_bits"),
    "search_g_extremes": (lambda b: binary.search_g_extremes(0.5, b), 6, 1, "max_bits"),
    "search_lambda": (binary.search_lambda, 6, 1, "max_bits"),
    "g_value": (lambda m: binary.g_value(m, 0.5), 5, None, "M"),
    "lambda_value": (binary.lambda_value, 5, None, "M"),
}
# The roots-of-unity forms also take a 1-d integer array of N and keep its message for a float.
ARRAY_SIZES = {"roots_energy", "midpoint_potential"}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_size_entry_point_takes_numpy_integers(name):
    call, n, _, _ = SIZE_ENTRY_POINTS[name]
    # pickle holds every field's type and bits, so a numpy scalar left in a result shows
    assert pickle.dumps(call(np.int64(n))) == pickle.dumps(call(n))


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_size_entry_point_refuses_a_float(name):
    call, _, _, what = SIZE_ENTRY_POINTS[name]
    message = ("N must be an int or a 1-d integer array" if name in ARRAY_SIZES
               else f"{what} must be an integer, got 4.0")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(4.0)


@pytest.mark.parametrize("name", sorted(n for n, (_, _, low, _) in SIZE_ENTRY_POINTS.items() if low is not None))
def test_size_entry_point_refuses_below_its_floor(name):
    call, _, low, what = SIZE_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(f'need {what} >= {low}, got {low - 1}')}$"):
        call(low - 1)


def test_size():
    assert size(np.int64(7)) == 7 and type(size(np.uint8(7), 1)) is int
    assert size(-3, None, "M") == -3
    for bad, message in ((4.0, "N must be an integer, got 4.0"),
                         (np.float64(4.0), "N must be an integer, got 4.0"),
                         ("4", "N must be an integer, got 4"),
                         (-1, "need N >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            size(bad)
    with pytest.raises(ValueError, match=r"^need depth >= 4, got 3$"):
        size(np.int32(3), 4, "depth")
