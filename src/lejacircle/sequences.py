"""Greedy energy sequences on the circle, structural and numerical.

Two constructions are provided.

``structural_angles`` is the exact bit-reversal representative: point n sits
at turn angle x_n = sum b_j*2**(-j-1), where n = sum b_j*2**j.  Equivalently
the angles satisfy the recursion x_(2**k + l) = 2**(-k-1) + x_l, the image on
the circle of the van der Corput sequence.  Every angle k/2**m with
2**m <= MAX_POINTS is exact in float64.  Every 2**m-th section is exactly the
set of 2**m-th roots of unity, and the minimum of the running s-potential
after N points decomposes over the binary expansion of N:

    U_N(a_N) = sum_k midpoint_potential(2**n_k, s),   N = sum_k 2**n_k.

``extremal_values_structural`` evaluates that decomposition from the table
of dyadic midpoint potentials by the same doubling recursion,
U_(2**k + l) = midpoint_potential(2**k) + U_l, so the whole series for
N <= N_max costs N_max additions, each in a fixed order, and is
bit-reproducible.  The recursion also runs on any block of indices
start..stop-1 alone: entry n adds the terms of the set bits of n from the
lowest up, so a block aligned to 2**b is the table of the low b bits plus
the terms of the higher bits of start, and equals the same slice of the
whole table bitwise.  The CLI writes both columns of the structural
sequence one such block at a time, in memory bounded by the block.

``greedy_numerical`` grows an arbitrary initial configuration by appending
the global minimizer of the running potential (s > 0) or of -sum log distance
(s = 0).  Every kernel term is strictly convex between two adjacent charges,
so each gap holds exactly one minimizer; a safeguarded Newton/bisection on the
derivative finds it and brackets the gap minimum from both sides, and the
global minimum is the smallest gap minimum.  A gap is solved once its bracket
is tight or its Newton step no longer moves the iterate, which takes a handful
of derivative passes.  After each appended point only the gaps whose bracket
can still reach the best value are solved again; the two halves of the split
gap inherit its certified lower bound and wait like any other gap, so a step
grown from one start point mostly costs a single derivative pass.

A step's cost is its derivative passes.  Each iteration of the gap solver is
one vectorized pass over the active gaps and all charges; the brackets are
Python floats, since at a handful of gaps a float update is cheaper than the
numpy calls it replaces.  One chord pass and one kernel pass update both
bounds of every gap for the appended charge.
"""

import math
from dataclasses import dataclass

import numpy as np

from .budget import exponent, require
from .circle import (
    Configuration,
    chord_kernel,
    chord_lengths,
    midpoint_potential,
    prefix_potentials,
)
from .special import REGIME_LOG, classify_regime

__all__ = [
    "GreedyRun",
    "structural_angles",
    "extremal_values_structural",
    "greedy_numerical",
    "energy_series_from_extremal",
]

# A gap counts as solved once its certified bracket upper - lower is this small
# relative to the value, or once its Newton step rounds to the iterate (at s = 0
# and s >= 1.5 U' may never meet this budget).  Either takes a few steps; no
# solve needs the iteration cap, which is only a safeguard.
_SOLVED = 1e-13
_MAX_ITERS = 100
# Minima within this absolute slack count as ties; the smallest angle wins.
_TIE = 1e-12
# The ValueError for a potential that overflows float64: which potential, s and N.
_OVERFLOW = "the {} potential overflows float64 at s={}, N={}"


def structural_angles(n_points: int) -> np.ndarray:
    """Turn angles x_0..x_(n_points-1) of the bit-reversal greedy sequence.

    x_n = sum_j b_j * 2**(-j-1) for n = sum_j b_j * 2**j, built by the
    recursion x_(2**k + l) = x_l + 2**(-k-1); every term and partial sum is
    exact.
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    require(n_points)
    return _doubling(_angle_terms(n_points), 0, n_points)


def extremal_values_structural(n_max: int, s: float) -> np.ndarray:
    """Extremal potential values U_N(a_N) for N = 1..n_max (s >= 0).

    Entry N-1 is the sum of midpoint potentials of the dyadic blocks of N,
    added from the lowest bit up: U_(2**k + l) = U_l + midpoint_potential(2**k).
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    require(n_max)
    return _doubling(_value_terms(n_max + 1, s), 0, n_max + 1)[1:]


def _angle_terms(size: int) -> np.ndarray:
    """The terms 2**(-j-1) of the doubling recursion for the angles x_0..x_(size-1)."""
    return 0.5 ** np.arange(1, max(size - 1, 0).bit_length() + 1)


def _value_terms(size: int, s: float) -> np.ndarray:
    """The terms midpoint_potential(2**j, s) of the doubling recursion for
    U_0..U_(size-1), where U_0 = 0; validates s >= 0 and refuses a U_N that
    overflows float64 (above s = 0 the sum of the terms bounds every U_N).

    At s = 0 every block's midpoint potential is -log 2: the product of the
    distances from an arc midpoint to the 2**k-th roots is |(-1) - 1| = 2.
    """
    bits = max(size - 1, 0).bit_length()
    if classify_regime(s) == REGIME_LOG:
        return np.full(bits, -np.log(2.0))
    with np.errstate(over="ignore"):  # refused below
        terms = midpoint_potential(1 << np.arange(bits), s)
    if not math.isfinite(sum(terms.tolist())):
        raise ValueError(_OVERFLOW.format("running", s, size - 1))
    return terms


def _doubling(terms: np.ndarray, start: int, stop: int) -> np.ndarray:
    """v[start:stop] of v[0] = 0 and v[2**j + l] = v[l] + terms[j] for l < 2**j.

    Entry n is the sum of terms[j] over the set bits j of n, added from the
    lowest bit up, so it equals a pass-per-bit sum bitwise, whatever the
    range.  The range is cut into dyadic pieces [a, a + 2**b) with a a
    multiple of 2**b; each piece is the table of the low b bits, built by the
    recursion, plus the terms of the set bits of a, added lowest first.  A
    range of r entries from 0 costs r additions.
    """
    out = np.empty(stop - start)
    at = start
    while at < stop:
        size = min(at & -at or stop, stop - at)  # at's lowest set bit bounds the piece; 0 has none
        piece = out[at - start:at - start + size]
        piece[:1] = 0.0
        low = 1
        for t in terms[:(size - 1).bit_length()]:
            np.add(piece[:min(low, size - low)], t, out=piece[low:2 * low])
            low *= 2
        high = at
        while high:
            piece += terms[(high & -high).bit_length() - 1]
            high &= high - 1
        at += size
    return out


def energy_series_from_extremal(extremal_values) -> np.ndarray:
    """Energies E(alpha_N) for N = 1..len+1 from the running potential minima.

    E(alpha_N) = 2 * sum_{j=1}^{N-1} U_j(a_j); the N = 1 entry is 0.
    """
    return np.concatenate(([0.0], 2.0 * np.cumsum(extremal_values)))


@dataclass
class GreedyRun:
    """A grown greedy configuration together with its running potential values.

    ``extremal_values`` is a float64 array whose entry n-1 is U_n(a_n), the
    potential of the first n points at the (n+1)-th; for n > p (the number
    of given initial points minus one) that value is the minimum of the
    running potential, certified by a per-gap bracket.
    """

    s: float
    initial: Configuration
    points: Configuration
    extremal_values: np.ndarray

    @property
    def p(self) -> int:
        """Index of the last initial point (initial set has p+1 points)."""
        return len(self.initial) - 1


def _derivatives(x: np.ndarray, charges: np.ndarray, sv: float):
    """U, U' and U'' in the turn angle at each point of x, strictly inside its gap.

    One outer difference, one pi*t for both sin and cos, and every later
    elementwise step in place.
    """
    t = np.subtract.outer(x, charges)
    t -= np.rint(t)
    t *= np.pi
    sn = np.sin(t)
    cot = np.cos(t, out=t)
    cot /= sn
    csc2 = np.multiply(sn, sn)
    np.reciprocal(csc2, out=csc2)
    g = chord_kernel(np.multiply(np.abs(sn, out=sn), 2.0, out=sn), sv, out=sn)
    u = np.add.reduce(g, axis=1)
    if sv == 0.0:
        return u, -np.pi * np.add.reduce(cot, axis=1), np.pi ** 2 * np.add.reduce(csc2, axis=1)
    curv = np.multiply(cot, sv)
    curv *= cot
    curv += csc2
    curv *= g
    cot *= g
    return (u, -sv * np.pi * np.add.reduce(cot, axis=1),
            sv * np.pi ** 2 * np.add.reduce(curv, axis=1))


def _solve_gaps(charges: np.ndarray, lo: list, hi: list, sv: float):
    """Minimize the running potential on each open gap (lo[i], hi[i]).

    Every kernel term is strictly convex between adjacent charges, so U' rises
    through zero exactly once per gap.  A safeguarded Newton iteration on U'
    keeps a sign bracket and bisects it whenever the Newton step leaves it;
    starting at the midpoint keeps symmetric gaps exactly at their dyadic
    midpoints.  A gap stops once |U'| * (hi - lo) <= _SOLVED * max(|U|, 1),
    or once its Newton step rounds to the iterate itself: x is then the root
    to working precision, even where U' cannot meet that budget in double
    precision.  Each iteration takes one ``_derivatives`` pass over the
    active gaps; the brackets are Python floats, updated gap by gap.  Returns
    lists (x, upper, lower) with upper = U(x) and, by convexity,
    lower = U(x) - |U'(x)| * (hi - lo) <= the gap minimum <= upper.
    """
    length = [h - l for l, h in zip(lo, hi)]
    xl, xh = list(lo), list(hi)
    x = [0.5 * (l + h) for l, h in zip(lo, hi)]
    u, du = [0.0] * len(x), [0.0] * len(x)
    active = list(range(len(x)))
    for it in range(_MAX_ITERS):
        xa = np.array([x[i] for i in active])
        ua, dua, dda = _derivatives(xa, charges, sv)
        steps = (xa - dua / dda).tolist()  # numpy division: inf or nan, never an exception
        last = it == _MAX_ITERS - 1
        still = []
        for i, ui, dui, step in zip(active, ua.tolist(), dua.tolist(), steps):
            xi = x[i]
            u[i], du[i] = ui, dui
            if dui < 0.0:  # the minimizer lies right of xi
                xl[i] = xi
            else:
                xh[i] = xi
            bl, bh = xl[i], xh[i]
            nxt = step if bl < step < bh else 0.5 * (bl + bh)
            if (abs(dui) * length[i] <= _SOLVED * max(abs(ui), 1.0)
                    or step == xi or nxt == xi or last):
                continue
            x[i] = nxt
            still.append(i)
        active = still
        if not active:
            break
    return x, u, [ui - abs(dui) * li for ui, dui, li in zip(u, du, length)]


def _grow(initial: np.ndarray, sv: float, n_points: int) -> np.ndarray:
    """Append the global minimizer of the running potential until n_points.

    Gap i runs from lo[i] to hi[i] (hi may pass 1) and keeps a candidate x[i]
    with upper[i] = U(x[i]) and a certified lower[i] <= its minimum, as in the
    one-candidate-per-gap scheme of Baglama, Calvetti and Reichel, "Fast Leja
    points" (ETNA 7, 1998).  Appending a charge a adds k(x[i] - a) to upper[i]
    and the least value of k(. - a) on the gap, taken at its point farthest
    from a, to lower[i].  The two halves of the split gap keep the bound just
    certified for the whole gap, plus that far-end term, and stay unsolved
    (upper = inf, x at the midpoint) until their bound reaches the best upper
    bound, like any other gap.  Each step solves every gap whose lower bound
    reaches the best upper bound, so every gap that can hold or tie the global
    minimum is solved for the current potential, and leaves the others alone.
    x, lo and hi are the rows of one array and upper, lower of another, so a
    step's update of both bounds is one chord pass and one kernel pass.
    """
    pts = np.empty(n_points)
    m = initial.size
    pts[:m] = initial
    gaps = np.empty((3, n_points))
    x, lo, hi = gaps
    bounds = np.empty((2, n_points))
    upper, lower = bounds
    upper[:], lower[:] = np.inf, -np.inf
    order = np.sort(initial)
    lo[:m], hi[:m] = order, np.append(order[1:], order[0] + 1.0)
    while m < n_points:
        redo = np.flatnonzero(lower[:m] <= upper[:m].min() + _TIE)
        x[redo], upper[redo], lower[redo] = _solve_gaps(
            pts[:m], lo[redo].tolist(), hi[redo].tolist(), sv)
        best = upper[:m].min()
        if not math.isfinite(best):  # all-inf potentials would tie, and the tie rule would pick the point
            raise ValueError(_OVERFLOW.format("running", sv, n_points))
        ties = np.flatnonzero(upper[:m] <= best + _TIE)
        j = int(ties[np.argmin(x[ties] % 1.0)])
        xj, hj = float(x[j]), float(hi[j])
        a = pts[m] = xj % 1.0
        lo[m], hi[m], hi[j] = xj, hj, xj
        # the halves keep the parent's certified bound and wait unsolved; x must
        # stay inside each, since the upper update below reads it
        lower[m], upper[j], upper[m] = lower[j], np.inf, np.inf
        x[j], x[m] = 0.5 * (float(lo[j]) + xj), 0.5 * (xj + hj)
        m += 1
        d = chord_lengths(gaps[:, :m], a)  # rows from x, lo, hi; row 1 becomes the far end
        np.maximum(d[1], d[2], out=d[1])
        d[1, (a + 0.5 - lo[:m]) % 1.0 < hi[:m] - lo[:m]] = 2.0
        bounds[:, :m] += chord_kernel(d[:2], sv, out=d[:2])
    return pts


def greedy_numerical(initial: Configuration, s: float, n_points: int) -> GreedyRun:
    """Grow a greedy s-energy sequence numerically from an initial configuration.

    Each appended point is the global minimizer of the running potential of
    the current points (for s = 0, equivalently the maximizer of the product
    of distances), found by one certified convex solve per gap.  Minima
    within 1e-12 of each other are ties, resolved to the smallest angle in
    [0, 1).  Requires a nonempty initial configuration of distinct points.  If
    n_points does not exceed the initial size, the configuration is returned
    unchanged (running potential values are still recorded).  A recorded value
    that overflows float64 raises ValueError: ties among inf would pick the points.
    """
    sv = exponent(s)
    if len(initial) < 1:
        raise ValueError("initial configuration must contain at least one point")
    require(n_points)

    work = initial.angles()
    with np.errstate(all="ignore"):  # a potential that overflows is refused below
        if n_points > len(work):
            work = _grow(work, sv, n_points)
        points = Configuration.from_turns(work)
        extremal = prefix_potentials(points.angles(), sv)
    if not np.isfinite(extremal).all():
        raise ValueError(_OVERFLOW.format("running", sv, n_points))
    return GreedyRun(s=sv, initial=initial, points=points, extremal_values=extremal)
