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
Both take one exponent or a 1-d array of them: the chords of a row block do
not depend on s, so an array of exponents shares them and gives one row (or
energy) per exponent, equal bitwise to the single-exponent call.  A block
holds at most 32 rows, start..stop-1, and takes their chords to points
0..stop-2 in one contiguous pass, the diagonal tile of columns start..stop-2
included.  Each exponent's kernel is one unmasked pass over those chords into
a buffer of whole 128-column blocks; the cells a row does not use (its part
of the tile, with the zero chord to itself, and the padding) are then set to
+0.0, so ``row_sums`` reduces each row as if it had been evaluated alone.

Closed forms for N-th roots of unity:

    roots_energy(N, s)       minimal N-point s-energy on the circle,
                             2**(-s) * N * sum_{k=1}^{N-1} sin(k*pi/N)**(-s)
    midpoint_potential(N, s) s-potential of the N roots evaluated at the
                             midpoint of an arc between adjacent roots

Both take N as an int or a 1-d integer array (one value per entry, equal
bitwise to the int call).  roots_energy also takes a 1-d array of exponents,
which adds a leading axis (row i equal bitwise to the call at s[i]) and
shares the sines of each N among them.  It is a direct sum per entry with
deterministic compensated reduction (see summation.py); each chord is taken
at the reflected index where that is smaller (sin(k*pi/N) = sin((N-k)*pi/N)),
so no sine sees an argument near pi, whose rounding would cost about N*eps on
the shortest chords.
midpoint_potential is E_s(2N)/(2N) - E_s(N)/N evaluated by the
Brauchart-Hardin-Saff expansion of E_s (O(1) per N).  The direct sum
serves N < 8, s > 32, and s within 0.01 of an odd integer: at odd s the
expansion has log N terms, and next to it its rounding grows.
Both are evaluated afresh on every call; nothing is cached.
"""

import math

import numpy as np

from .budget import MAX_POINTS, BudgetExceededError, exponent, require, size  # the first two re-exported
from .special import roots_energy_expansion
from .summation import block_width, pairwise_sum, row_sums

# Chords per row block of prefix_potentials; bounds its temporaries.
_BLOCK_CELLS = 1 << 14
# Rows per row block of prefix_potentials.  A block of r rows evaluates and
# discards about r*r/2 kernels of its diagonal tile, and each block costs some
# 20 numpy calls.  The direct energies of the N-th roots at N = 2..512 and
# s = 0.5, 1, 1.5, 2 took 0.97, 0.80, 0.76, 0.72, 0.73, 0.72 and 0.73 s at
# 8, 16, 24, 32, 48, 64 and 128 rows (sum of per-N minima of 3 interleaved
# runs, 2-vCPU Xeon, numpy 2.4.6): 32 is the fewest rows at the floor.
_BLOCK_ROWS = 32
# midpoint_potential uses the 13 terms of roots_energy_expansion from N = 8
# on, for s <= 32.  There the first omitted term (k = 13) is below 1e-18 of
# the value at N = 8 (mpmath, s = 0.001..32.5) and falls relative to it like
# N**-26 or faster, so what is left is rounding.  Near an odd integer the
# poles of V_s and zeta(s-2k) cancel, and that rounding grows like
# 3e-17/d**2 at distance d (mpmath, N = 8..1000); within 0.01 of an odd
# integer the direct sum is used, which keeps the expansion's error below
# 3e-13.
_EXPANSION_MIN_N = 8
_EXPANSION_MAX_S = 32.0
_ODD_MARGIN = 0.01


class CoincidentPointsError(ValueError):
    """Raised where coincident circle points would make a kernel infinite."""


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
    """Chord distances 2*|sin(pi*(x - angles))| from turn angle x to each angle, in one buffer."""
    return _chords(np.asarray(np.subtract(x, angles), dtype=np.float64))


def _chords(d: np.ndarray, scratch=None) -> np.ndarray:
    """Turn the float64 angle differences d into chord lengths 2*|sin(pi*d)|, in place.

    ``scratch``, an array of d's shape, takes the rounded differences.
    """
    np.subtract(d, np.rint(d, out=scratch), out=d)  # reduce to [-1/2, 1/2] for full sin precision
    np.sin(np.multiply(d, np.pi, out=d), out=d)
    return np.multiply(np.abs(d, out=d), 2.0, out=d)


def chord_kernel(d: np.ndarray, s: float, out=None) -> np.ndarray:
    """Kernel values at chord lengths d: d**(-s) for s > 0, -log d for s = 0.

    Given ``out``, they are written there.  s = 1 takes numpy's reciprocal, as
    d ** -1.0 does.
    """
    if s == 0.0:
        return np.negative(np.log(d, out=out), out=out)
    if s == 1.0:
        return np.reciprocal(d, out=out)
    return np.power(d, -s, out=out)


def _exponents(s, positive: bool = False) -> tuple[list, bool]:
    """The exponents of ``s`` (a float or a 1-d array) as checked floats, and whether s was a float."""
    scalar = not hasattr(s, "__len__") or np.ndim(s) == 0  # np.ndim alone costs 2 us
    if not scalar and np.ndim(s) > 1:
        raise ValueError("s must be a float or a 1-d array of floats")
    values = [s] if scalar else np.asarray(s, dtype=np.float64).tolist()
    return [exponent(e, positive) for e in values], scalar


def prefix_potentials(angles, s) -> np.ndarray:
    """Running potentials U_n(a_n) = sum_{i<n} k(a_i, a_n) for n = 1..len-1.

    ``s`` is an exponent (1-d result) or a 1-d array of exponents (one row per
    exponent, row i equal bitwise to the call at s[i]); each row block takes
    its chords once and applies every exponent's kernel to them.  Rows go in
    blocks of at most _BLOCK_ROWS rows and max(_BLOCK_CELLS, len) chords.
    Block rows start..stop-1 take their chords to points 0..stop-2 in one
    contiguous pass, the diagonal tile included, and each exponent's kernel
    is one unmasked pass over them; the cells a row does not use (its part of
    the tile, where the chord to itself is 0, and the padding to whole
    128-column blocks) are then set to +0.0, and ``row_sums`` reduces each
    row.  So entry n-1 is the sum of a_n's own kernel row, with the same bits
    for every input that starts with a_0..a_n.  A point that coincides with
    an earlier one raises CoincidentPointsError; a row made infinite only by
    overflow is returned as it is.
    """
    exponents, scalar = _exponents(s)
    a = np.asarray(angles, dtype=np.float64)
    n, m = a.size, len(exponents)
    out = np.empty((m, max(n - 1, 0)))
    step = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // max(n, 1)))
    width = block_width(n - 1)
    chords = np.empty(step * max(n - 1, 0))
    kernels = np.empty(max(m, 1) * step * width)  # also the scratch of the chords
    later = np.arange(step - 1) >= np.arange(step)[:, None]  # [r, j]: tile column j is not before row r
    with np.errstate(divide="ignore"):  # the kernel at the zero chords, which are discarded
        for start in range(1, n, step):
            stop = min(start + step, n)
            rows, cols = stop - start, block_width(stop - 1)
            d = chords[:rows * (stop - 1)].reshape(rows, stop - 1)
            _chords(np.subtract(a[start:stop, None], a[:stop - 1], out=d),
                    kernels[:d.size].reshape(d.shape))
            k = kernels[:m * rows * cols].reshape(m * rows, cols)
            for i, e in enumerate(exponents):
                chord_kernel(d, e, k[i * rows:(i + 1) * rows, :stop - 1])
            k3 = k.reshape(m, rows, cols)
            np.copyto(k3[:, :, start:stop - 1], 0.0, where=later[:rows, :rows - 1])
            k3[:, :, stop - 1:] = 0.0
            out[:, start - 1:stop - 1] = row_sums(k).reshape(m, rows)
    # A zero chord makes its row's sum infinite, as overflow can; look where one is.
    suspects = np.flatnonzero(~np.isfinite(out).all(axis=0)) if m else range(n - 1)
    if any(not chord_lengths(a[:i + 1], a[i + 1]).all() for i in suspects):
        raise CoincidentPointsError("kernel is infinite at coincident points")
    return out[0] if scalar else out


def energy(config: Configuration, s):
    """Discrete s-energy E = 2 * sum_n U_n(a_n), the kernel sum over ordered pairs.

    A 1-d array of exponents gives an array of energies, entry i equal bitwise
    to the call at s[i], from one pass over the chords.
    """
    u = prefix_potentials(config.angles(), s)
    if u.ndim == 1:
        return 2.0 * pairwise_sum(u)
    return np.array([2.0 * pairwise_sum(row) for row in u])


def _roots_n(n) -> np.ndarray:
    """Validate N (an int or a 1-d integer array) for the roots-of-unity forms; return it as a 1-d array."""
    ns = np.atleast_1d(np.asarray(n))
    if ns.ndim != 1 or not (ns.size == 0 or np.issubdtype(ns.dtype, np.integer)):
        raise ValueError("N must be an int or a 1-d integer array")
    size(ns.min(initial=1), 1)  # initial: an empty array passes
    require(int(ns.max(initial=1)))
    return ns


def roots_energy(n, s):
    """Minimal n-point s-energy on the circle (attained by the n-th roots of unity).

    Closed form 2**(-s) * n * sum_{k=1}^{n-1} sin(k*pi/n)**(-s); by convention
    the value for n = 1 is 0.  ``n`` is an int (float result) or a 1-d integer
    array (array result, equal bitwise to the int calls).  A 1-d array of
    exponents adds a leading axis, row i equal bitwise to the call at s[i].
    """
    ns = _roots_n(n)
    exponents, scalar = _exponents(s, positive=True)
    out = np.empty((len(exponents), ns.size))
    for j, m in enumerate(ns.tolist()):
        k = np.arange(1, m, dtype=np.float64)
        sines = np.sin(np.minimum(k, m - k) * (np.pi / m))
        for i, e in enumerate(exponents):
            out[i, j] = 2.0 ** (-e) * m * pairwise_sum(sines ** (-e))
    out = out[:, 0] if np.ndim(n) == 0 else out
    return out if not scalar else float(out[0]) if out.ndim == 1 else out[0]


def _midpoint_sum(n: int, s: float) -> float:
    """Direct sum of the n chord kernels 2*sin((2k-1)*pi/(2n))**(-s), k = 1..n."""
    j = 2.0 * np.arange(1, n + 1, dtype=np.float64) - 1.0
    d = 2.0 * np.sin(np.minimum(j, 2.0 * n - j) * (np.pi / (2.0 * n)))
    return pairwise_sum(d ** (-s))


def midpoint_potential(n, s: float):
    """s-potential of the n-th roots of unity at the midpoint of an adjacent arc.

    The sum over k = 1..n of |exp(pi*i/n) - exp(2*pi*k*i/n)|**(-s), whose k-th
    chord has length 2*sin((2k-1)*pi/(2n)).  It equals E_s(2n)/(2n) - E_s(n)/n,
    so by ``roots_energy_expansion`` it is

        V_s*n + sum_k a_k*(2**(s-2k) - 1)*n**(s-2k),

    evaluated in O(1) per n for n >= 8 and s <= 32 at least 0.01 from an odd
    integer; the other cases are summed directly.  ``n`` is an int (float
    result) or a 1-d integer array (array result, equal bitwise to the scalar
    calls), for which the coefficients are computed once.
    """
    ns = _roots_n(n)
    s = exponent(s, positive=True)
    out = _midpoint_map(s, int(ns.max()) if ns.size else 0)(ns)
    return float(out[0]) if np.ndim(n) == 0 else out


def _midpoint_map(s: float, n_max: int):
    """The map from a 1-d integer array of N in 1..n_max to midpoint_potential(N, s).

    The expansion's coefficients are set up here, once, if some N >= 8 can
    take them, so a caller that evaluates many blocks of N pays for them once.
    s is not validated.
    """
    nearest_odd = 2.0 * math.floor(0.5 * s) + 1.0
    expansion = (n_max >= _EXPANSION_MIN_N and s <= _EXPANSION_MAX_S
                 and abs(s - nearest_odd) >= _ODD_MARGIN)
    if expansion:
        v, a = roots_energy_expansion(s)
        c = [ak * math.expm1((s - 2.0 * k) * math.log(2.0)) for k, ak in enumerate(a)]

    def values(ns: np.ndarray) -> np.ndarray:
        out = np.empty(ns.size)
        fast = (ns >= _EXPANSION_MIN_N) & expansion
        for i in np.flatnonzero(~fast):
            out[i] = _midpoint_sum(int(ns[i]), s)
        if fast.any():
            nf = ns[fast].astype(np.float64)
            q = 1.0 / (nf * nf)
            poly = np.full(nf.size, c[-1])
            for ck in reversed(c[:-1]):  # Horner in 1/n**2
                poly = poly * q + ck
            out[fast] = v * nf + nf ** s * poly
        return out

    return values
