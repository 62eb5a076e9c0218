"""Independent certifier for greedy Riesz/log sequences on the unit circle.

The running potential U(x) = sum_k k_s(x - a_k), with k_s(t) = |2 sin(pi t)|^-s
(s > 0) or -log|2 sin(pi t)| (s = 0), is strictly convex on every gap between
circularly adjacent charges.  So each gap holds exactly one minimizer, where the
derivative crosses zero, and for any x in a gap of length L

    U(x) - |U'(x)| * L  <=  min over the gap  <=  U(x).

The certifier runs one safeguarded Newton iteration on U' per gap, vectorised
over all gaps of a step, and takes the smallest gap minimum as the global one.
It shares no code with the package it checks.
"""

import numpy as np

# Relative excess above the certified minimum that makes a step non-greedy.
NONGREEDY_REL = 1e-9
_MAX_ITERS = 80


def _terms(x, a, s):
    """Per-(point, charge) sin and cos of pi*(x - a); rows are points."""
    t = np.pi * (x[:, None] - a[None, :])
    return np.sin(t), np.cos(t)


def potential(x, a, s):
    """U at each point of x (1-d array) for charges a."""
    sn, _ = _terms(np.atleast_1d(x), a, s)
    d = 2.0 * np.abs(sn)
    if s == 0.0:
        return -np.log(d).sum(axis=1)
    return (d ** (-s)).sum(axis=1)


def _derivatives(x, a, s):
    """U, U' and U'' at each point of x, with x strictly inside its gap."""
    sn, cs = _terms(x, a, s)
    cot = cs / sn
    csc2 = 1.0 / (sn * sn)
    d = 2.0 * np.abs(sn)
    if s == 0.0:
        u = -np.log(d).sum(axis=1)
        du = -np.pi * cot.sum(axis=1)
        ddu = np.pi ** 2 * csc2.sum(axis=1)
        return u, du, ddu
    g = d ** (-s)
    u = g.sum(axis=1)
    du = -s * np.pi * (g * cot).sum(axis=1)
    ddu = s * np.pi ** 2 * (g * (s * cot * cot + csc2)).sum(axis=1)
    return u, du, ddu


def gap_minima(a, s):
    """Certified per-gap bounds of the running potential of charges a.

    Returns (lower, upper, argmin): gap i starts at the i-th smallest charge,
    its minimum lies in [lower[i], upper[i]] and upper[i] = U(argmin[i]).
    """
    order = np.sort(np.asarray(a, dtype=np.float64))
    lo = order
    hi = np.append(order[1:], order[0] + 1.0)
    length = hi - lo
    xl, xh = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    active = np.ones(order.size, dtype=bool)
    u = np.empty(order.size)
    du = np.empty(order.size)
    for _ in range(_MAX_ITERS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        ui, dui, ddui = _derivatives(x[idx], order, s)
        u[idx], du[idx] = ui, dui
        done = np.abs(dui) * length[idx] <= 1e-13 * np.maximum(np.abs(ui), 1.0)
        neg = dui < 0.0
        xl[idx] = np.where(neg, x[idx], xl[idx])
        xh[idx] = np.where(neg, xh[idx], x[idx])
        step = x[idx] - dui / ddui
        inside = (step > xl[idx]) & (step < xh[idx])
        nxt = np.where(inside, step, 0.5 * (xl[idx] + xh[idx]))
        stalled = nxt == x[idx]
        x[idx] = np.where(done | stalled, x[idx], nxt)
        active[idx] = ~(done | stalled)
    if np.any(active):
        idx = np.nonzero(active)[0]
        u[idx], du[idx], _ = _derivatives(x[idx], order, s)
    return u - np.abs(du) * length, u, x % 1.0


def certified_minimum(a, s):
    """(lower, upper, argmin) bracketing the global minimum of U over the circle."""
    lower, upper, xs = gap_minima(a, s)
    i = int(np.argmin(upper))
    return float(np.min(lower)), float(upper[i]), float(xs[i])


def certify_run(angles, n_initial, s):
    """Check every appended point of a greedy run against the certified minimum.

    ``angles`` are the run's turns in selection order and the first
    ``n_initial`` of them were given.  Returns a dict with the number of
    non-greedy steps, the largest relative excess, the first non-greedy step
    and the number of steps whose point lies below the certified lower bound
    (which only a wrong certifier or wrong angles can produce).
    """
    angles = np.asarray(angles, dtype=np.float64)
    nongreedy, below, first = 0, 0, None
    worst = 0.0
    for n in range(n_initial, angles.size):
        lower, upper, _ = certified_minimum(angles[:n], s)
        chosen = float(potential(angles[n:n + 1], angles[:n], s)[0])
        scale = max(abs(upper), 1.0)
        excess = (chosen - upper) / scale
        worst = max(worst, excess)
        if excess > NONGREEDY_REL:
            nongreedy += 1
            first = n if first is None else first
        if (lower - chosen) / scale > NONGREEDY_REL:
            below += 1
    return {
        "nongreedy_steps": nongreedy,
        "worst_excess": worst,
        "first_nongreedy": first,
        "below_lower_bound": below,
    }

