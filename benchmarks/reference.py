"""Independent references for the outputs the benchmark checks.

Everything here is computed from the definitions in the source paper with
the standard library and numpy only; nothing is imported from the package
under test.  Sums of many terms use ``math.fsum``, so the summation order
differs from the package's blockwise reduction.
"""

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286
ZETA_HALF = -1.4603545088095868  # zeta(1/2)


def midpoint_potential(n, s):
    """Potential of the n-th roots of unity at an adjacent arc midpoint."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return math.fsum((2.0 * np.sin((2.0 * k - 1.0) * (np.pi / (2.0 * n)))) ** (-s))


def structural_values(n_max, s):
    """U_N(a_N) of the bit-reversal greedy sequence for N = 0..n_max (U_0 = 0).

    U_N sums the dyadic midpoint potentials over the binary digits of N; here
    it is built by the top-bit recurrence U[2^k + r] = mp(2^k) + U[r].
    """
    u = np.zeros(n_max + 1)
    k = 0
    while (1 << k) <= n_max:
        lo, hi = 1 << k, min(1 << (k + 1), n_max + 1)
        u[lo:hi] = midpoint_potential(lo, s) + u[: hi - lo]
        k += 1
    return u


def structural_angles(n_points):
    """Turn angles sum_j b_j 2^(-j-1) of n = sum_j b_j 2^j, for n < n_points."""
    n = np.arange(n_points, dtype=np.int64)
    angles = np.zeros(n_points)
    for j in range(max(int(n_points - 1).bit_length(), 1)):
        angles += ((n >> j) & 1) * 0.5 ** (j + 1)
    return angles


def continuous_energy(s):
    """I_s = Gamma(1-s)/Gamma(1-s/2)^2 for 0 < s < 1."""
    return math.gamma(1.0 - s) / math.gamma(1.0 - s / 2.0) ** 2


def second_order_scale(s, zeta_s):
    """(2^s - 1) * 2 zeta(s) / (2 pi)^s."""
    return (2.0 ** s - 1.0) * 2.0 * zeta_s / (2.0 * math.pi) ** s


def theta_functionals(max_bits, s):
    """G(theta_M; s) and Lambda(theta_M) for every odd M < 2^max_bits.

    Returns (m, g, lam) arrays; theta_M has components 2^e/M over the set
    bits e of M.
    """
    m = np.arange(1, 1 << max_bits, 2, dtype=np.int64)
    g = np.zeros(m.size)
    lam = np.zeros(m.size)
    mf = m.astype(np.float64)
    for e in range(max_bits):
        on = ((m >> e) & 1).astype(bool)
        theta = (1 << e) / mf[on]
        g[on] += theta ** s
        lam[on] += theta * np.log(theta)
    return m, g, lam


def family_functionals(s, t_max=60):
    """(G, Lambda) over the family M = 2^t - 1, t = 1..t_max."""
    gs, lams = [], []
    for t in range(1, t_max + 1):
        m = (1 << t) - 1
        theta = [(1 << e) / m for e in range(t)]
        gs.append(math.fsum(x ** s for x in theta))
        lams.append(math.fsum(x * math.log(x) for x in theta))
    return gs, lams


def close(a, b, rel):
    """Scalar closeness within a relative tolerance."""
    return abs(a - b) <= rel * max(abs(a), abs(b))
