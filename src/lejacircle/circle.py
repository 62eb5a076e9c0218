"""Configurations on the unit circle, Riesz/logarithmic kernels, potentials, energies.

A point is a float turn angle x in [0, 1) (full revolutions, so the point is
exp(2*pi*i*x)), and a Configuration is one validated, read-only float64 array
of such angles.  Structurally important points are dyadic rationals
k / 2**m, which are exact in binary floating point; keeping them exact makes
the combinatorial identities of this package hold to rounding error instead
of drifting with 2*pi conversions.

Kernels: for two circle points z, w and exponent s >= 0

    k_0(z, w) = -log|z - w|          (logarithmic case)
    k_s(z, w) = |z - w|**(-s)        (s > 0)

where |z - w| = 2*|sin(pi*(x - y))| is the chord distance between the points
at turn angles x and y; ``chord_kernel`` is the one implementation of this
map from chord lengths to kernel values.

``prefix_potentials`` gives the potential U_n(a_n) of every point against its
predecessors, in bounded row blocks; the energy is E = 2 * sum_n U_n(a_n).

Closed forms for N-th roots of unity:

    roots_energy(N, s)       minimal N-point s-energy on the circle,
                             2**(-s) * N * sum_{k=1}^{N-1} sin(k*pi/N)**(-s)
    midpoint_potential(N, s) s-potential of the N roots evaluated at the
                             midpoint of an arc between adjacent roots

Both are evaluated afresh on every call by direct summation with
deterministic compensated reduction (see summation.py); nothing is cached.
"""

import numpy as np

from .summation import pairwise_sum, row_sums

# Regime labels for the Riesz exponent.
REGIME_LOG = "log"
REGIME_SUBCRITICAL = "subcritical"
REGIME_CRITICAL = "critical"
REGIME_SUPERCRITICAL = "supercritical"

# Library-wide size guard: direct summations refuse N beyond this.
MAX_POINTS = 1 << 20
# Chords per row block of prefix_potentials; bounds its temporaries.
_BLOCK_CELLS = 1 << 14


class CoincidentPointsError(ValueError):
    """Raised where coincident circle points would make a kernel infinite."""


class BudgetExceededError(RuntimeError):
    """Raised when a request exceeds the configured compute budget."""


def classify_regime(s: float) -> str:
    """Classify the Riesz exponent: log (s=0), subcritical, critical, supercritical."""
    if not s >= 0:
        raise ValueError(f"Riesz exponent must be >= 0, got {s}")
    if s == 0:
        return REGIME_LOG
    if s < 1:
        return REGIME_SUBCRITICAL
    if s == 1:
        return REGIME_CRITICAL
    return REGIME_SUPERCRITICAL


class Configuration:
    """An ordered, read-only array of pairwise-distinct turn angles in [0, 1).

    Ordering is by selection index (the order points were generated), not by
    angle.  Distinctness is required so that energies and potentials with
    s >= 0 are finite.  Build one with :meth:`from_turns`.
    """

    __slots__ = ("_angles",)

    @classmethod
    def from_turns(cls, angles) -> "Configuration":
        """Validate turn angles, reduce them mod 1, and freeze them.

        Raises ValueError for angles that do not lie in [0, 1) after the
        reduction (NaN, +-inf, and tiny negatives that round up to 1.0) and
        CoincidentPointsError for repeated angles.
        """
        with np.errstate(invalid="ignore"):  # +-inf reduces to NaN, rejected below
            turns = np.mod(np.array(angles, dtype=np.float64), 1.0)
        if turns.ndim != 1:
            raise ValueError("turn angles must form a 1-d sequence")
        if not np.all((turns >= 0.0) & (turns < 1.0)):
            raise ValueError("turn angles must reduce into [0, 1)")
        if np.any(np.diff(np.sort(turns)) == 0.0):
            raise CoincidentPointsError("configuration contains coincident points")
        turns.flags.writeable = False
        config = object.__new__(cls)
        config._angles = turns
        return config

    def angles(self) -> np.ndarray:
        """Turn angles in selection order (read-only)."""
        return self._angles

    def __len__(self) -> int:
        return self._angles.size

    def __getitem__(self, i) -> float:
        return float(self._angles[i])


def chord_lengths(angles: np.ndarray, x: float) -> np.ndarray:
    """Chord distances 2*|sin(pi*(x - angles))| from turn angle x to each angle."""
    delta = x - angles
    delta = delta - np.round(delta)  # reduce to [-1/2, 1/2] for full sin precision
    return 2.0 * np.abs(np.sin(np.pi * delta))


def chord_kernel(d: np.ndarray, s: float) -> np.ndarray:
    """Kernel values at chord lengths d: d**(-s) for s > 0, -log d for s = 0."""
    return -np.log(d) if s == 0.0 else d ** (-s)


def kernel_values(angles: np.ndarray, x, s: float) -> np.ndarray:
    """Kernel values from turn angle x to each angle (x and angles broadcast)."""
    d = chord_lengths(angles, x)
    if np.any(d == 0.0):
        raise CoincidentPointsError("kernel is infinite at coincident points")
    return chord_kernel(d, s)


def potential(config: Configuration, x: float, s: float) -> float:
    """Potential of a configuration at turn angle x: the sum of its kernel values."""
    return pairwise_sum(kernel_values(config.angles(), x, s))


def prefix_potentials(angles, s: float) -> np.ndarray:
    """Running potentials U_n(a_n) = sum_{i<n} k(a_i, a_n) for n = 1..len-1.

    Rows go in blocks of at most max(_BLOCK_CELLS, len) chords and ``row_sums``
    reduces each one, so entry n-1 has the same bits for every input that
    starts with a_0..a_n.
    """
    a = np.asarray(angles, dtype=np.float64)
    n = a.size
    out = np.empty(max(n - 1, 0))
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(1, n, step):
        stop = min(start + step, n)
        earlier = np.tri(stop - start, stop - 1, start - 1, dtype=bool)
        x = a[start:stop, None]
        # Unused cells hold the antipode of their row's point: finite, then dropped.
        k = kernel_values(np.where(earlier, a[:stop - 1], x + 0.5), x, s)
        out[start - 1:stop - 1] = row_sums(np.where(earlier, k, 0.0))
    return out


def energy(config: Configuration, s: float) -> float:
    """Discrete s-energy E = 2 * sum_n U_n(a_n), the kernel sum over ordered pairs."""
    return 2.0 * pairwise_sum(prefix_potentials(config.angles(), s))


def _check_roots_args(n: int, s: float) -> None:
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    if n > MAX_POINTS:
        raise BudgetExceededError(f"N={n} exceeds the compute budget {MAX_POINTS}")
    if not s > 0:
        raise ValueError(f"need s > 0, got {s}")


def roots_energy(n: int, s: float) -> float:
    """Minimal n-point s-energy on the circle (attained by the n-th roots of unity).

    Closed form 2**(-s) * n * sum_{k=1}^{n-1} sin(k*pi/n)**(-s); by convention
    the value for n = 1 is 0.
    """
    _check_roots_args(n, s)
    if n == 1:
        return 0.0
    k = np.arange(1, n, dtype=np.float64)
    terms = np.sin(k * (np.pi / n)) ** (-s)
    return 2.0 ** (-s) * n * pairwise_sum(terms)


def midpoint_potential(n: int, s: float) -> float:
    """s-potential of the n-th roots of unity at the midpoint of an adjacent arc.

    Direct summation of sum_{k=1}^{n} |exp(pi*i/n) - exp(2*pi*k*i/n)|**(-s);
    the k-th chord has length 2*sin((2k-1)*pi/(2n)).
    """
    _check_roots_args(n, s)
    k = np.arange(1, n + 1, dtype=np.float64)
    d = 2.0 * np.sin((2.0 * k - 1.0) * (np.pi / (2.0 * n)))
    return pairwise_sum(d ** (-s))


def leja_sup_norm_log(config: Configuration, x: float) -> float:
    """log of the product of distances from turn angle x to the configuration points.

    Computed as sum_k log|z - a_k| = -potential(config, x, 0), which cannot overflow.
    """
    return -potential(config, x, 0.0)
