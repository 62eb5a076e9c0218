"""Greedy Riesz/Leja energy sequences on the unit circle.

Construction of greedy energy sequences (exact bit-reversal representative
and direct numerical minimization), closed-form roots-of-unity energies and
midpoint potentials, the binary-digit machinery indexing the limit points of
the normalized extremal values, the catalog of theoretical limit constants,
and a verification harness for the first- and second-order asymptotics.
"""

from .binary import (
    decompose,
    enumerate_theta,
    g_value,
    lambda_value,
    search_g_extremes,
    search_lambda,
    tau_b,
)
from .circle import (
    BudgetExceededError,
    CoincidentPointsError,
    Configuration,
    chord_lengths,
    energy,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from .analysis import (
    LimitPointCheck,
    NormalizedSeries,
    VerificationReport,
    limit_point_check,
    normalized_series,
    star_discrepancy,
    theta_limit_prediction,
    verify_all,
)
from .sequences import (
    GreedyRun,
    energy_series_from_extremal,
    extremal_values_structural,
    greedy_numerical,
    structural_angles,
)
from .special import (
    CRITICAL_LEVEL,
    EULER_GAMMA,
    ConstantsCatalog,
    classify_regime,
    continuous_energy,
    limit_catalog,
    zeta,
)

__version__ = "0.1.0"
