"""Kernels, potentials, energies, and the roots-of-unity closed forms.

Expected values marked as frozen were computed with the independent
complex-arithmetic oracles in conftest.py before being asserted here.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chord_oracle, energy_oracle, potential_oracle
from lejacircle import circle
from lejacircle.circle import (
    BudgetExceededError,
    CoincidentPointsError,
    Configuration,
    chord_kernel,
    chord_lengths,
    energy,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from lejacircle.circle import _EXPANSION_MIN_N
from lejacircle.sequences import structural_angles
from lejacircle.special import _EXPANSION_TERMS, classify_regime, roots_energy_expansion
from lejacircle.summation import pairwise_sum, row_sums


def chord(x, y):
    return float(chord_lengths(np.array([y]), x)[0])


def kernel(s, x, y):
    return float(chord_kernel(chord_lengths(np.array([y]), x), s)[0])


def potential(angles, x, s):
    """The potential of the points at turn angle x: the last entry of prefix_potentials."""
    return float(prefix_potentials(np.array([*angles, x]), s)[-1])


class TestConfiguration:
    def test_angle_range(self):
        assert Configuration.from_turns([1.25])[0] == 0.25
        with pytest.raises(ValueError):
            Configuration.from_turns([-1e-20])  # reduces to 1.0

    def test_regime_classification(self):
        assert classify_regime(0.0) == "log"
        assert classify_regime(0.5) == "subcritical"
        assert classify_regime(1.0) == "critical"
        assert classify_regime(3.0) == "supercritical"
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="Riesz exponent must be finite and >= 0"):
                classify_regime(bad)

    def test_rejects_invalid_angles(self):
        for bad in ([math.nan], [math.inf], [-math.inf], [-1e-20], [0.1, math.nan]):
            with pytest.raises(ValueError):
                Configuration.from_turns(bad)
        with pytest.raises(CoincidentPointsError):
            Configuration.from_turns([0.2, 0.2])

    def test_angles_are_read_only(self):
        cfg = Configuration.from_turns([0.0, 0.5, 1.25])
        assert cfg.angles().tolist() == [0.0, 0.5, 0.25] and len(cfg) == 3
        assert isinstance(cfg[1], float)
        with pytest.raises(ValueError):
            cfg.angles()[0] = 0.75


class TestChordDistance:
    def test_antipodal(self):
        assert chord(0.0, 0.5) == 2.0

    def test_quarter_turn(self):
        assert chord(0.0, 0.25) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_third_turn_matches_complex_oracle(self):
        expected = chord_oracle(0.0, 1.0 / 3.0)  # |e^{2pi i/3} - 1| = sqrt(3)
        assert expected == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert chord(0.0, 1.0 / 3.0) == pytest.approx(expected, rel=1e-14)

    def test_coincident_signals_zero(self):
        assert chord(0.0, 0.0) == 0.0

    @given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_and_symmetry(self, x, y):
        d = chord(x, y)
        assert d == chord(y, x)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(chord_oracle(x, y), abs=1e-12)


class TestKernel:
    def test_log_antipodal(self):
        assert kernel(0.0, 0.0, 0.5) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_s1_antipodal(self):
        assert kernel(1.0, 0.0, 0.5) == 0.5

    def test_s2_quarter(self):
        # (sqrt 2)^(-2) = 1/2, checked against the complex oracle.
        oracle = chord_oracle(0.0, 0.25) ** (-2.0)
        assert oracle == pytest.approx(0.5, rel=1e-14)
        assert kernel(2.0, 0.0, 0.25) == pytest.approx(0.5, rel=1e-14)

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPointsError):
            potential([0.0], 0.0, 1.0)

    def test_symmetry_exact(self):
        for s in (0.0, 0.5, 1.0, 2.7):
            assert kernel(s, 0.1, 0.73) == kernel(s, 0.73, 0.1)


class TestPotential:
    def test_single_point_antipodal(self):
        assert potential([0.0], 0.5, 1.0) == 0.5

    def test_three_points(self):
        # 1, -1, i; chords to -i: sqrt2, sqrt2, 2 -> sqrt2 + 1/2 (oracle-checked)
        oracle = potential_oracle([0.0, 0.5, 0.25], 0.75, 1.0)
        assert oracle == pytest.approx(math.sqrt(2.0) + 0.5, rel=1e-14)
        assert potential([0.0, 0.5, 0.25], 0.75, 1.0) == pytest.approx(1.9142135623730951, rel=1e-14)

    def test_log_case(self):
        value = potential([0.0], 0.5, 0.0)
        assert value == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPointsError):
            potential([0.0, 0.5], 0.5, 1.0)


class TestEnergy:
    def test_two_antipodal_points(self):
        assert energy(Configuration.from_turns([0.0, 0.5]), 1.0) == 1.0

    def test_third_roots(self):
        angles = [0.0, 1.0 / 3.0, 2.0 / 3.0]
        oracle = energy_oracle(angles, 1.0)  # 6 ordered pairs at distance sqrt3
        assert oracle == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-13)
        assert energy(Configuration.from_turns(angles), 1.0) == pytest.approx(oracle, rel=1e-13)

    def test_fourth_roots_s2(self):
        angles = [0.0, 0.25, 0.5, 0.75]
        assert energy_oracle(angles, 2.0) == pytest.approx(5.0, rel=1e-13)
        assert energy(Configuration.from_turns(angles), 2.0) == pytest.approx(5.0, rel=1e-14)
        assert roots_energy(4, 2.0) == pytest.approx(5.0, rel=1e-14)

    def test_fewer_than_two_points(self):
        assert energy(Configuration.from_turns([0.0]), 1.0) == 0.0
        assert energy(Configuration.from_turns([]), 1.0) == 0.0

    def test_duplicates_raise(self):
        with pytest.raises(CoincidentPointsError):
            Configuration.from_turns([0.0, 0.0])


class TestPrefixPotentials:
    # Seeded random angles in random order, at least 0.2/300 turns apart: the
    # complex-arithmetic oracle loses about eps/|z - w| relative accuracy per
    # chord, so closer pairs would measure the oracle rather than the code.
    _rng = np.random.default_rng(20211)
    ANGLES = (_rng.permutation(300) + _rng.uniform(0.1, 0.9, 300)) / 300

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_matches_oracle(self, s):
        a = self.ANGLES
        got = prefix_potentials(a, s)
        want = np.array([potential_oracle(a[:n], a[n], s) for n in range(1, a.size)])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_prefix_is_bitwise_stable(self, s):
        full = prefix_potentials(self.ANGLES, s)
        for m in (1, 2, 128, 129, 130, 257, 300):
            assert np.array_equal(prefix_potentials(self.ANGLES[:m], s), full[: m - 1])

    def test_fewer_than_two_points(self):
        assert prefix_potentials(np.array([]), 1.0).shape == (0,)
        assert prefix_potentials(np.array([0.25]), 1.0).shape == (0,)

    def test_repeated_angle_raises(self):
        with pytest.raises(CoincidentPointsError):
            prefix_potentials(np.array([0.1, 0.4, 0.1]), 1.0)

    # 513 angles for the lengths past ANGLES, drawn the same way.
    LONG = (_rng.permutation(513) + _rng.uniform(0.1, 0.9, 513)) / 513

    # 2**8 cells per block leave one row per block at n = 300.  At the default
    # a block holds circle._BLOCK_ROWS = 32 rows and n points have n - 1 rows:
    # 31..33 points fill the first block to 30..32 rows, 64 and 65 the second
    # to 31 and 32, and 512 and 513 the sixteenth, whose last rows reach 511
    # and 512 columns.
    @pytest.mark.parametrize("block_cells", [circle._BLOCK_CELLS, 1 << 8])
    def test_rows_equal_per_row_reference(self, monkeypatch, block_cells):
        # Each block evaluates its kernels over whole rows into a
        # 128-column-aligned buffer and zeroes the cells a row does not use;
        # every entry must keep the bits of summing that point's own kernel row.
        monkeypatch.setattr(circle, "_BLOCK_CELLS", block_cells)
        s_grid = (0.0, 0.5, 1.0, 2.0, 3.5)
        for n in (1, 2, 31, 32, 33, 64, 65, 127, 128, 129, 300, 512, 513):
            a = self.ANGLES[:n] if n <= self.ANGLES.size else self.LONG[:n]
            rows = prefix_potentials(a, s_grid)
            for s, row in zip(s_grid, rows):
                want = [row_sums(chord_kernel(chord_lengths(a[:i], a[i]), s)[None])[0]
                        for i in range(1, n)]
                assert row.tobytes() == np.array(want).tobytes(), (n, s)
                assert prefix_potentials(a, s).tobytes() == row.tobytes(), (n, s)

    # With 2**11 cells per block the 300 points go 6 rows to a block, and
    # one block holds points 25..30: a repeat of an earlier point falls in
    # that block's unmasked rectangle (columns < 25) or its diagonal tile.
    @pytest.mark.parametrize(
        "later, earlier", [(27, 3), (25, 24), (26, 25), (27, 25), (30, 29)]
    )
    def test_repeated_point_in_rectangle_or_tile(self, monkeypatch, later, earlier):
        monkeypatch.setattr(circle, "_BLOCK_CELLS", 1 << 11)
        a = self.ANGLES.copy()
        a[later] = a[earlier]
        for s in (0.5, [0.0, 1.0]):
            with pytest.raises(CoincidentPointsError):
                prefix_potentials(a, s)
        assert prefix_potentials(a[:later], 0.5).shape == (later - 1,)

    @pytest.mark.parametrize("block_cells", [circle._BLOCK_CELLS, 1 << 8])
    def test_no_floating_point_warnings(self, monkeypatch, block_cells):
        # The blocks evaluate kernels at the diagonal's zero chords and discard
        # them; on distinct points nothing of that may reach the caller.
        monkeypatch.setattr(circle, "_BLOCK_CELLS", block_cells)
        cfg = Configuration.from_turns(self.ANGLES)
        for s in (0.0, 0.5, 1.0, 2.0, 3.5, [0.0, 0.5, 1.0, 2.0, 3.5]):
            want = prefix_potentials(self.ANGLES, s)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert prefix_potentials(self.ANGLES, s).tobytes() == want.tobytes()
                energy(cfg, s)
            with np.errstate(all="raise"):
                assert prefix_potentials(self.ANGLES, s).tobytes() == want.tobytes()
                energy(cfg, s)

    @pytest.mark.parametrize("block_cells", [circle._BLOCK_CELLS, 1 << 8])
    def test_repeated_point_raises_under_strict_errors(self, monkeypatch, block_cells):
        monkeypatch.setattr(circle, "_BLOCK_CELLS", block_cells)
        a = self.ANGLES.copy()
        a[40] = a[7]
        for s in (0.0, 2.0, [0.5, 1.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CoincidentPointsError):
                    prefix_potentials(a, s)
            with np.errstate(all="raise"), pytest.raises(CoincidentPointsError):
                prefix_potentials(a, s)

    def test_energy_over_several_row_blocks(self):
        cfg = Configuration.from_turns(self.ANGLES)
        for s in (0.5, 1.0):
            assert energy(cfg, s) == pytest.approx(energy_oracle(self.ANGLES, s), rel=1e-12)


class TestExponentAxis:
    """An array of exponents gives one row (energy) per exponent, equal bitwise
    to the call at that exponent."""

    S = (0.0, 0.5, 1.0, 2.0, 3.5)
    # 128 columns per row_sums block: 127..130 and 257 sit at its edges.  The
    # default row blocks hold circle._BLOCK_ROWS = 32 rows: 31..33, 64, 65, 512
    # and 513 sit at theirs; 1000 cells per block leave 1 to 333 rows.
    LENGTHS = (2, 3, 127, 128, 129, 130, 182, 257, 31, 32, 33, 64, 65, 512, 513)

    @staticmethod
    def inputs(n):
        rng = np.random.default_rng(n)
        return {
            "roots": np.arange(n) / n,
            "random": (rng.permutation(n) + rng.uniform(0.1, 0.9, n)) / n,
            "structural": structural_angles(n),
        }

    @pytest.mark.parametrize("block_cells", [circle._BLOCK_CELLS, 1000])
    def test_prefix_rows_equal_scalar_calls(self, monkeypatch, block_cells):
        monkeypatch.setattr(circle, "_BLOCK_CELLS", block_cells)
        for n in self.LENGTHS:
            for kind, a in self.inputs(n).items():
                rows = prefix_potentials(a, self.S)
                assert rows.shape == (len(self.S), n - 1)
                for row, s in zip(rows, self.S):
                    assert row.tobytes() == prefix_potentials(a, s).tobytes(), (n, kind, s)

    def test_energy_entries_equal_scalar_calls(self):
        for n in self.LENGTHS:
            for kind, a in self.inputs(n).items():
                cfg = Configuration.from_turns(a)
                want = np.array([energy(cfg, s) for s in self.S])
                assert energy(cfg, self.S).tobytes() == want.tobytes(), (n, kind)

    @pytest.mark.parametrize("n", [127, 128, 129, 511, 512])
    def test_roots_energy_equals_scalar_calls_and_row_reference(self, n):
        # verify's direct energies of the N-th roots: the exponent axis, the
        # scalar calls and the per-row sums must agree bit for bit
        s_grid = (0.5, 1.0, 1.5, 2.0)
        a = np.arange(n) / n
        got = energy(Configuration.from_turns(a), s_grid)
        for s, e in zip(s_grid, got):
            rows = [row_sums(chord_kernel(chord_lengths(a[:i], a[i]), s)[None])[0]
                    for i in range(1, n)]
            assert e == energy(Configuration.from_turns(a), s) == 2.0 * pairwise_sum(rows), (n, s)

    def test_fewer_than_two_points(self):
        for a in ([], [0.25]):
            assert prefix_potentials(np.array(a), self.S).shape == (len(self.S), 0)
            assert energy(Configuration.from_turns(a), self.S).tolist() == [0.0] * len(self.S)
        assert prefix_potentials(np.array([0.1, 0.2]), []).shape == (0, 1)
        with pytest.raises(CoincidentPointsError):
            prefix_potentials(np.array([0.1, 0.2, 0.1]), [])

    def test_scalar_keeps_its_shape(self):
        a = self.inputs(5)["random"]
        assert prefix_potentials(a, np.float64(0.5)).shape == (4,)
        assert prefix_potentials(a, [0.5]).shape == (1, 4)
        assert isinstance(energy(Configuration.from_turns(a), 0.5), float)

    def test_repeated_angle_raises(self):
        with pytest.raises(CoincidentPointsError):
            prefix_potentials(np.array([0.1, 0.4, 0.1]), self.S)
        with pytest.raises(ValueError):
            prefix_potentials(np.array([0.1, 0.4]), [[0.5, 1.0]])


class TestRootsEnergy:
    def test_convention_n1(self):
        for s in (0.5, 1.0, 2.0, 3.7):
            assert roots_energy(1, s) == 0.0

    def test_n2(self):
        # 2^{-1} * 2 * (sin pi/2)^{-1} = 1; oracle: energy of {1, -1}
        assert roots_energy(2, 1.0) == pytest.approx(energy(Configuration.from_turns([0.0, 0.5]), 1.0), rel=1e-15)

    def test_n4_s2_bruteforce(self):
        # 2^{-2} * 4 * (2 + 1 + 2) = 5
        assert roots_energy(4, 2.0) == pytest.approx(energy_oracle([0, 0.25, 0.5, 0.75], 2.0), rel=1e-13)

    def test_matches_direct_energy(self):
        for n in (3, 7, 16, 101):
            for s in (0.5, 1.0, 1.5, 2.0):
                cfg = Configuration.from_turns(np.arange(n) / n)
                assert energy(cfg, s) == pytest.approx(roots_energy(n, s), rel=1e-12)

    def test_inverse_square_closed_form(self):
        # roots_energy(N, 2)/N = (N^2 - 1)/12, brute-force checked in verify_all
        for n in (2, 3, 10, 64, 513, 1024):
            assert roots_energy(n, 2.0) / n == pytest.approx((n * n - 1) / 12.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            roots_energy(0, 1.0)
        with pytest.raises(ValueError):
            roots_energy(4, 0.0)
        with pytest.raises(BudgetExceededError):
            roots_energy(1 << 21, 1.0)

    def test_int_and_array_errors_agree(self):
        for n in (0, np.int64(0)):
            with pytest.raises(ValueError, match=r"^need N >= 1, got 0$"):
                roots_energy(n, 1.0)
        for f in (roots_energy, midpoint_potential):
            with pytest.raises(ValueError, match=r"^need N >= 1, got -3$"):
                f(np.array([5, -3, 0]), 1.0)
            for n in (1 << 21, np.array([4, 1 << 21, 3])):
                with pytest.raises(BudgetExceededError, match=r"^N=2097152 exceeds the compute budget 1048576$"):
                    f(n, 1.0)
            for n in (np.array([2.0, 3.0]), np.array([[2, 3]]), 4.0):
                with pytest.raises(ValueError, match=r"^N must be an int or a 1-d integer array$"):
                    f(n, 1.0)

    def test_array_entries_equal_scalar_calls(self):
        ns = np.array([1, 2, 3, 7, 128, 129, 130, 257, 1000, 1])
        for s in (0.5, 1.0, 2.0, 3.5):
            got = roots_energy(ns, s)
            want = np.array([roots_energy(int(n), s) for n in ns])
            assert got.tobytes() == want.tobytes()
            assert got[0] == 0.0 and not np.signbit(got[0])
        assert roots_energy(np.array([], dtype=np.int64), 1.0).shape == (0,)

    S = (0.001, 0.5, 1.0, 2.0, 3.5)

    def test_exponent_axis_rows_equal_scalar_calls(self):
        ns = np.array([1, 2, 3, 7, 128, 129, 130, 257, 1000, 1])
        rows = roots_energy(ns, self.S)
        assert rows.shape == (len(self.S), ns.size)
        for row, s in zip(rows, self.S):
            assert row.tobytes() == roots_energy(ns, s).tobytes(), s
            assert row.tolist() == [roots_energy(int(n), s) for n in ns], s

    def test_exponent_axis_keeps_the_shape_of_n(self):
        assert roots_energy(np.array([], dtype=np.int64), self.S).shape == (len(self.S), 0)
        col = roots_energy(7, self.S)
        assert col.shape == (len(self.S),)
        assert col.tolist() == [roots_energy(7, s) for s in self.S]
        assert roots_energy(np.array([5, 6]), []).shape == (0, 2)

    def test_exponent_axis_validates_every_s(self):
        for s in ([0.5, 0.0], [-1.0, 2.0], [1.0, 2.0, math.nan]):
            with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and > 0, got "):
                roots_energy(np.array([3, 4]), s)
            with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and > 0, got "):
                roots_energy(4, s)
        with pytest.raises(ValueError):
            roots_energy(4, [[0.5, 1.0]])

    def test_infinite_exponent_is_refused(self):
        # the closed forms would take floor(inf) or return inf
        for call in (lambda: roots_energy(4, math.inf), lambda: roots_energy(4, [1.0, math.inf]),
                     lambda: midpoint_potential(4, math.inf)):
            with pytest.raises(ValueError, match=r"^Riesz exponent must be finite and > 0, got inf$"):
                call()


class TestMidpointPotential:
    def test_n1(self):
        assert midpoint_potential(1, 1.0) == 0.5
        assert midpoint_potential(1, 0.5) == pytest.approx(2.0 ** -0.5, rel=1e-15)

    def test_n2_matches_identity(self):
        rhs = roots_energy(4, 1.0) / 4.0 - roots_energy(2, 1.0) / 2.0
        assert midpoint_potential(2, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert midpoint_potential(2, 1.0) == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_energy_identity_sweep(self, s):
        # midpoint potential == roots_energy(2N)/(2N) - roots_energy(N)/N
        worst = 0.0
        mp = midpoint_potential(np.arange(1, 1025), s)
        for n in range(1, 1025):
            lhs = mp[n - 1]
            rhs = roots_energy(2 * n, s) / (2 * n) - roots_energy(n, s) / n
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_roots_potential_identity_sweep(self, s):
        # sum of kernels from the other roots to e_1 == roots_energy(N)/N
        worst = 0.0
        for n in range(2, 1025):
            gaps = np.arange(1, n) / n
            lhs = float(np.sum((2.0 * np.sin(np.pi * gaps)) ** (-s)))
            rhs = roots_energy(n, s) / n
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-10


def midpoint_mpmath(n, s):
    """The midpoint potential summed at 30 digits."""
    with mp.workdps(30):
        total = mp.fsum((2 * mp.sin((2 * k - 1) * mp.pi / (2 * n))) ** (-mp.mpf(s))
                        for k in range(1, n + 1))
        return float(total)


def midpoint_direct(n, s):
    """The direct sum, as midpoint_potential evaluates it below N0 and at odd s.

    Chord k is taken at the reflected odd multiple 2n - (2k - 1) where that is
    smaller, so the sine argument stays at most pi/2.
    """
    j = 2.0 * np.arange(1, n + 1, dtype=np.float64) - 1.0
    d = 2.0 * np.sin(np.minimum(j, 2.0 * n - j) * (np.pi / (2.0 * n)))
    return pairwise_sum(d ** (-s))


def expansion_mpmath(s, k_max):
    """a_0..a_k_max of E_s(M)/M at 30 digits: 2*alpha_k(s)*zeta(s-2k)/(2*pi)**s."""
    with mp.workdps(30):
        z = mp.mpf(s)
        alpha = mp.taylor(lambda x: (mp.sin(mp.pi * x) / (mp.pi * x)) ** (-z) if x else 1,
                          0, 2 * k_max)[::2]
        return [float(2 * a * mp.zeta(z - 2 * k) / (2 * mp.pi) ** z) for k, a in enumerate(alpha)]


EXPANSION_S = [0.001, 0.1, 0.5, 1.5, 2.0, 2.5, 3.5, 6.0, 8.5]


class TestMidpointExpansion:
    N0 = _EXPANSION_MIN_N

    @pytest.mark.parametrize("s", EXPANSION_S + [0.99, 1.005])
    def test_matches_mpmath(self, s):
        rel = 5e-12 if s in (0.99, 1.005) else 1e-14
        ns = np.array([self.N0, self.N0 + 1, 64, 1000])
        for n, got in zip(ns, midpoint_potential(ns, s)):
            want = midpoint_mpmath(int(n), s)
            assert abs(got - want) <= rel * abs(want), (n, got, want)

    @pytest.mark.parametrize("s, rel", [(0.5, 1e-12), (1.5, 1e-11)])
    def test_matches_direct_sum(self, s, rel):
        ns = np.concatenate([np.arange(1, 1025), np.linspace(1025, 1 << 14, 40, dtype=np.int64)])
        got = midpoint_potential(ns, s)
        want = np.array([midpoint_direct(int(n), s) for n in ns])
        assert np.max(np.abs(got - want) / want) <= rel

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0, 8.5, 40.0])
    def test_array_call_equals_scalar_calls(self, s):
        ns = np.concatenate([np.arange(1, 40), [64, 1000, 4097, 1 << 14]])
        got = midpoint_potential(ns, s)
        assert got.dtype == np.float64 and got.shape == ns.shape
        assert np.array_equal(got, [midpoint_potential(int(n), s) for n in ns])
        assert np.array_equal(midpoint_potential(ns[::-1], s), got[::-1])

    @pytest.mark.parametrize("s", EXPANSION_S + [1.0, 3.0, 5.0])
    def test_direct_sum_below_n0_and_at_odd_s(self, s):
        ns = range(1, self.N0) if s not in (1.0, 3.0, 5.0) else [*range(1, 40), 1000, 4096]
        for n in ns:
            assert midpoint_potential(n, s) == midpoint_direct(n, s)

    def test_direct_sum_reflects_long_chords(self):
        # Sine arguments near pi would cost about N*eps on the shortest chords.
        got = midpoint_potential(11869, 1.0)
        want = midpoint_mpmath(11869, 1.0)
        assert abs(got - want) <= 1e-15 * want

    def test_direct_sum_near_odd_s_and_beyond_32(self):
        for s in (0.995, 1.005, 2.999, 40.0):
            for n in (8, 100, 1000):
                assert midpoint_potential(n, s) == midpoint_direct(n, s)

    def test_s2_closed_form(self):
        # E_2(M)/M = (M**2 - 1)/12, so the expansion stops after k = 1 and mp(N) = N**2/4.
        v, a = roots_energy_expansion(2.0)
        assert v == 0.0 and a[2:] == [0.0] * (_EXPANSION_TERMS - 2)
        assert a[0] == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert a[1] == pytest.approx(-1.0 / 12.0, rel=1e-15)
        n = np.arange(8, 5000)
        assert np.max(np.abs(midpoint_potential(n, 2.0) / (n * n) - 0.25)) <= 4e-16

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.5, 6.0, 8.5, 20.25, 31.5])
    def test_truncation_bound(self, s):
        # The first omitted term, k = _EXPANSION_TERMS, is below 1e-18 of the value at N0.
        k = _EXPANSION_TERMS
        term = expansion_mpmath(s, k)[k] * (2 ** (s - 2 * k) - 1) * self.N0 ** (s - 2 * k)
        assert abs(term) <= 1e-18 * midpoint_mpmath(self.N0, s)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.5, 2.5, 3.5, 6.0])
    def test_expansion_coefficients_match_mpmath(self, s):
        v, a = roots_energy_expansion(s)
        assert len(a) == _EXPANSION_TERMS
        for got, want in zip(a, expansion_mpmath(s, _EXPANSION_TERMS - 1)):
            assert got == pytest.approx(want, rel=1e-13)
        with mp.workdps(30):
            z = mp.mpf(s)  # 1/Gamma(1 - s/2) vanishes at even s
            want_v = 2 ** (-z) / mp.sqrt(mp.pi) * mp.gamma((1 - z) / 2) * mp.rgamma(1 - z / 2)
        assert v == pytest.approx(float(want_v), rel=1e-14)

    def test_expansion_domain(self):
        for s in (0.0, -0.5, 1.0, 3.0):
            with pytest.raises(ValueError):
                roots_energy_expansion(s)

    def test_array_validation(self):
        assert midpoint_potential(np.array([], dtype=np.int64), 0.5).shape == (0,)
        with pytest.raises(ValueError):
            midpoint_potential(np.array([0, 5]), 0.5)
        with pytest.raises(ValueError):
            midpoint_potential(np.array([4.0, 5.0]), 0.5)
        with pytest.raises(ValueError):
            midpoint_potential(np.array([[4, 5]]), 0.5)
        with pytest.raises(ValueError):
            midpoint_potential(np.array([4, 5]), 0.0)
        with pytest.raises(BudgetExceededError):
            midpoint_potential(np.array([4, 1 << 21]), 0.5)


class TestLejaSupNormLog:
    """log of the product of distances from x to the points, -U_0 at x."""

    def test_single_point(self):
        value = -potential([0.0], 0.5, 0.0)
        assert value == pytest.approx(math.log(2.0), rel=1e-15)

    def test_first_three_canonical(self):
        # product of distances from the 4th point to the first 3 is 4 (two binary ones in 3)
        x = structural_angles(4)
        val = -potential(x[:3], x[3], 0.0)
        assert val == pytest.approx(math.log(4.0), abs=1e-12)

    def test_first_five_canonical(self):
        x = structural_angles(6)
        val = -potential(x[:5], x[5], 0.0)
        assert val == pytest.approx(math.log(4.0), abs=1e-12)

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPointsError):
            potential([0.0], 0.0, 0.0)
