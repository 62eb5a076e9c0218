"""Structural and numerical greedy sequences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import potential_oracle
from lejacircle import sequences
from lejacircle.circle import (
    BudgetExceededError,
    CoincidentPointsError,
    Configuration,
    chord_kernel,
    chord_lengths,
    midpoint_potential,
    prefix_potentials,
    roots_energy,
)
from lejacircle.sequences import (
    energy_series_from_extremal,
    extremal_values_structural,
    greedy_numerical,
    structural_angles,
)


class TestCanonicalStructural:
    def test_first_four(self):
        assert structural_angles(4).tolist() == [0.0, 0.5, 0.25, 0.75]

    def test_first_eight(self):
        # hand-applied doubling recursion
        x = structural_angles(8)
        assert x.tolist() == [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]

    def test_two_points(self):
        assert structural_angles(2).tolist() == [0.0, 0.5]

    def test_empty_allowed(self):
        assert structural_angles(0).size == 0

    def test_recursion(self):
        # x_(2^k + l) = 2^(-k-1) + x_l for 0 <= l < 2^k
        x = structural_angles(4096)
        for k in range(1, 12):
            blk = 1 << k
            np.testing.assert_array_equal(x[blk: 2 * blk], 0.5 ** (k + 1) + x[:blk])

    @pytest.mark.parametrize("m", range(1, 17))
    def test_dyadic_sections_are_roots_of_unity(self, m):
        n = 1 << m
        x = structural_angles(n)
        assert sorted(x.tolist()) == [j / n for j in range(n)]

    def test_points_are_exact_dyadics(self):
        # x_n = sum b_j 2^(-j-1) for n = sum b_j 2^j, exact on the 2^-20 grid
        x = structural_angles(1 << 20)
        scaled = x * 2.0 ** 20
        np.testing.assert_array_equal(scaled, np.floor(scaled))
        for k in range(20):
            blk = 1 << k
            np.testing.assert_array_equal(x[blk: 2 * blk], 0.5 ** (k + 1) + x[:blk])
        assert (x[0], x[1], x[5], x[6]) == (0.0, 0.5, 0.625, 0.375)


# Lengths around the powers of two, where the doubling recursion ends a block.
DOUBLING_SIZES = [1, 2, 3, 1000] + [(1 << k) + d for k in (2, 5, 10, 12) for d in (-1, 0, 1)]


def _bit_loop(terms, n):
    """Entry i of the sum of terms[j] over the set bits j of i, one pass per bit."""
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n)
    for j, t in enumerate(terms):
        out += ((idx >> j) & 1) * t
    return out


class TestDoublingRecursion:
    @pytest.mark.parametrize("n", DOUBLING_SIZES)
    def test_structural_angles_equal_bit_loop(self, n):
        bits = max(n - 1, 0).bit_length()
        want = _bit_loop([0.5 ** (j + 1) for j in range(bits)], n)
        assert structural_angles(n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", DOUBLING_SIZES)
    def test_extremal_values_equal_bit_loop(self, n):
        for s in (0.5, 1.0, 3.5):
            table = midpoint_potential(1 << np.arange(n.bit_length()), s)
            want = _bit_loop(table, n + 1)[1:]
            assert extremal_values_structural(n, s).tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_block_is_the_prefix_slice(self, data):
        # the row source gives the slice of the whole table, bitwise, for any range
        stop = data.draw(st.integers(0, 1 << 14))
        start = data.draw(st.integers(0, stop))
        bits = max(stop - 1, 0).bit_length()
        terms = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=bits, max_size=bits)))
        rows = sequences._doubling(terms)
        assert rows(start, stop).tobytes() == rows(0, stop)[start:].tobytes()

    @pytest.mark.parametrize("step", [1, 5, 4096])
    def test_blocks_cover_the_bit_loop(self, step):
        terms = np.random.default_rng(7).standard_normal(13)
        n = 5000 if step > 1 else 600
        want = _bit_loop(terms, n)
        rows = sequences._doubling(terms)
        got = np.concatenate([rows(a, min(a + step, n)) for a in range(0, n, step)])
        assert got.tobytes() == want.tobytes()

    def test_high_bits_add_lowest_first(self):
        # the windows below 2**20 carry up to 8 high set bits; terms of mixed
        # magnitude round differently when they are added in another order
        terms = np.random.default_rng(11).standard_normal(20) * 10.0 ** np.arange(-10, 10)
        a = (1 << 20) - 3 * 4096 - 5
        got = sequences._doubling(terms)(a, 1 << 20)
        assert got.tobytes() == _bit_loop(terms, 1 << 20)[a:].tobytes()

    @pytest.mark.parametrize("bits, a, b", [
        (0, 0, 2), (0, 1, 2), (1, 0, 3), (1, 2, 5), (3, 7, 9), (12, 0, 4097), (13, 8191, 8193),
    ])
    def test_rows_past_the_terms_raise(self, bits, a, b):
        # rows below 2**bits are served; any row at or past it has a set bit with no term
        rows, reach = sequences._doubling(np.ones(bits)), 1 << bits
        assert rows(min(a, reach), reach).tolist() == _bit_loop(np.ones(bits), reach)[a:].tolist()
        with pytest.raises(IndexError):
            rows(a, b)


class TestExtremalValuesStructural:
    def test_n3_matches_direct_potential(self):
        vals = extremal_values_structural(3, 1.0)
        oracle = potential_oracle([0.0, 0.5, 0.25], 0.75, 1.0)
        assert vals[2] == pytest.approx(oracle, rel=1e-13)
        assert vals[2] == pytest.approx(math.sqrt(2.0) + 0.5, rel=1e-13)

    def test_n1(self):
        for s in (0.5, 1.0, 2.0, 3.5):
            assert extremal_values_structural(1, s)[0] == pytest.approx(2.0 ** (-s), rel=1e-15)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_all_ones_telescopes(self, s):
        # at N = 2^p - 1 the sum telescopes to roots_energy(2^p)/(2^p)
        for p in (2, 5, 9):
            n = (1 << p) - 1
            vals = extremal_values_structural(n, s)
            assert vals[-1] == pytest.approx(roots_energy(1 << p, s) / (1 << p), rel=1e-12)

    def test_decomposition_against_direct(self):
        angles = structural_angles(300)
        for s in (0.5, 1.5):
            vals = extremal_values_structural(299, s)
            for n in (1, 2, 3, 17, 100, 255, 299):
                direct = potential_oracle(angles[:n].tolist(), float(angles[n]), s)
                assert vals[n - 1] == pytest.approx(direct, rel=1e-11)

    def test_monotone(self):
        for s in (0.5, 1.0, 2.0):
            vals = extremal_values_structural(1024, s)
            assert np.all(np.diff(vals) >= -1e-12 * np.abs(vals[1:]))

    def test_log_case(self):
        # the product of distances from a_N to its predecessors is 2**tau_b(N)
        n = 4096
        vals = extremal_values_structural(n, 0.0)
        taus = np.bitwise_count(np.arange(1, n + 1)).astype(np.float64)
        assert vals.tobytes() == (-taus * math.log(2.0)).tobytes()
        direct = prefix_potentials(structural_angles(n + 1), 0.0)
        np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-12)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            extremal_values_structural(8, -0.5)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            extremal_values_structural((1 << 20) + 1, 1.0)


class TestEnergySeries:
    def test_examples(self):
        np.testing.assert_array_equal(energy_series_from_extremal([]), [0.0], strict=True)
        np.testing.assert_array_equal(energy_series_from_extremal([0.5]), [0.0, 1.0], strict=True)
        series = energy_series_from_extremal([0.5, math.sqrt(2.0)])
        assert series[2] == pytest.approx(1.0 + 2.0 * math.sqrt(2.0), rel=1e-15)

    def test_matches_direct_energy(self):
        from lejacircle.circle import energy

        angles = structural_angles(64)
        for s in (0.5, 1.0, 2.0):
            vals = extremal_values_structural(63, s)
            series = energy_series_from_extremal(vals)
            for n in (2, 3, 9, 33, 64):
                cfg = Configuration.from_turns(angles[:n])
                assert series[n - 1] == pytest.approx(energy(cfg, s), rel=1e-12)


def _array_derivatives(x, charges, sv):
    """The gap solver's derivative pass as one array expression per quantity."""
    t = x[:, None] - charges[None, :]
    t -= np.round(t)
    sn = np.sin(np.pi * t)
    cot = np.cos(np.pi * t) / sn
    csc2 = 1.0 / (sn * sn)
    g = chord_kernel(2.0 * np.abs(sn), sv)
    if sv == 0.0:
        return g.sum(axis=1), -np.pi * cot.sum(axis=1), np.pi ** 2 * csc2.sum(axis=1)
    return (g.sum(axis=1), -sv * np.pi * (g * cot).sum(axis=1),
            sv * np.pi ** 2 * (g * (sv * cot * cot + csc2)).sum(axis=1))


def _array_solve_gaps(charges, lo, hi, sv):
    """The safeguarded Newton solve of every gap at once, its brackets in arrays."""
    length = hi - lo
    xl, xh = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    u, du = np.empty_like(x), np.empty_like(x)
    active = np.arange(x.size)
    for it in range(sequences._MAX_ITERS):
        xi = x[active]
        ui, dui, ddui = _array_derivatives(xi, charges, sv)
        u[active], du[active] = ui, dui
        right = dui < 0.0
        bl = xl[active] = np.where(right, xi, xl[active])
        bh = xh[active] = np.where(right, xh[active], xi)
        step = xi - dui / ddui
        nxt = np.where((step > bl) & (step < bh), step, 0.5 * (bl + bh))
        done = np.abs(dui) * length[active] <= sequences._SOLVED * np.maximum(np.abs(ui), 1.0)
        done |= (step == xi) | (nxt == xi) | (it == sequences._MAX_ITERS - 1)
        x[active] = np.where(done, xi, nxt)
        active = active[~done]
        if active.size == 0:
            break
    return x, u, u - np.abs(du) * length


def _array_grow(initial, sv, n_points):
    """The greedy step loop with every gap's state in its own array, updated by fancy indexing."""
    tie = sequences._TIE
    pts = np.empty(n_points)
    m = initial.size
    pts[:m] = initial
    lo, hi, x = (np.empty(n_points) for _ in range(3))
    upper, lower = np.full(n_points, np.inf), np.full(n_points, -np.inf)
    order = np.sort(initial)
    lo[:m], hi[:m] = order, np.append(order[1:], order[0] + 1.0)
    while m < n_points:
        redo = np.nonzero(lower[:m] <= upper[:m].min() + tie)[0]
        x[redo], upper[redo], lower[redo] = _array_solve_gaps(pts[:m], lo[redo], hi[redo], sv)
        ties = np.nonzero(upper[:m] <= upper[:m].min() + tie)[0]
        j = ties[np.argmin(x[ties] % 1.0)]
        a = pts[m] = x[j] % 1.0
        lo[m], hi[m], hi[j] = x[j], hi[j], x[j]
        lower[m], upper[[j, m]] = lower[j], np.inf
        x[[j, m]] = 0.5 * (lo[[j, m]] + hi[[j, m]])
        m += 1
        near = chord_lengths(x[:m], a)
        far = np.maximum(chord_lengths(lo[:m], a), chord_lengths(hi[:m], a))
        far[(a + 0.5 - lo[:m]) % 1.0 < hi[:m] - lo[:m]] = 2.0
        upper[:m] += chord_kernel(near, sv)
        lower[:m] += chord_kernel(far, sv)
    return pts


class TestGapSolver:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("initial", [[0.0], [0.3137], [0.0, 0.1, 0.37]])
    def test_greedy_equals_array_reference_bitwise(self, initial, s):
        # the scalar bracket bookkeeping and in-place passes do the same IEEE
        # operations in the same order as the array-at-once step loop
        n = 256
        run = greedy_numerical(Configuration.from_turns(initial), s, n)
        want = Configuration.from_turns(_array_grow(np.array(initial), s, n)).angles()
        assert run.points.angles().tobytes() == want.tobytes()
        assert run.extremal_values.tobytes() == prefix_potentials(want, s).tobytes()

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("seed, k", [(1, 2), (2, 5), (3, 17)])
    def test_solve_gaps_contract(self, s, seed, k):
        # x lies in its gap, upper is U(x), lower holds the sampled minimum, and
        # each gap is either solved or stopped where it provably cannot hold or
        # tie the minimum; the gap that attains min(upper) is solved
        charges = np.random.default_rng(seed).random(k)
        order = np.sort(charges)
        lo, hi = order.tolist(), np.append(order[1:], order[0] + 1.0).tolist()
        x, upper, lower = sequences._solve_gaps(charges, lo, hi, s)
        frac = (np.arange(64) + 0.5) / 64
        best = min(upper)
        for xi, ui, li, a, b in zip(x, upper, lower, lo, hi):
            assert a < xi < b
            assert ui == pytest.approx(potential_oracle(charges, xi, s), rel=1e-12)
            sampled = min(potential_oracle(charges, a + (b - a) * f, s) for f in frac)
            slack = 1e-12 * max(abs(sampled), 1.0)
            assert li <= sampled + slack
            assert ui <= sampled + slack or li > best + sequences._TIE
            if ui == best:
                assert ui <= sampled + slack


class TestGreedyNumerical:
    def test_from_single_point_s1(self):
        run = greedy_numerical(Configuration.from_turns([0.0]), 1.0, 4)
        got = sorted(run.points.angles())
        assert got == pytest.approx([0.0, 0.25, 0.5, 0.75], abs=1e-9)
        ref = extremal_values_structural(3, 1.0)
        np.testing.assert_allclose(run.extremal_values, ref, atol=1e-6)

    def test_log_case_first_step(self):
        run = greedy_numerical(Configuration.from_turns([0.0]), 0.0, 2)
        assert run.points[1] == pytest.approx(0.5, abs=1e-12)
        assert run.extremal_values[0] == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_initial_two_points_lands_in_long_arc(self):
        # charges at 1 and i: the new point must fall strictly inside (1/4, 1)
        run = greedy_numerical(Configuration.from_turns([0.0, 0.25]), 0.5, 3)
        a = run.points[2]
        assert 0.25 < a < 1.0

    def test_cross_construction_small(self):
        for s in (0.5, 1.0, 2.0):
            run = greedy_numerical(Configuration.from_turns([0.0]), s, 32)
            ref = extremal_values_structural(31, s)
            np.testing.assert_allclose(run.extremal_values, ref, atol=1e-8)

    def test_monotone_and_bounded(self):
        from lejacircle.special import continuous_energy

        run = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), 0.5, 64)
        ext = np.array(run.extremal_values)
        assert run.p == 2
        assert np.all(np.diff(ext[run.p:]) >= -1e-10)
        nn = np.arange(run.p + 1, 64)
        assert np.all(ext[run.p:] <= nn * continuous_energy(0.5))

    def test_every_step_is_the_global_minimizer(self):
        # independent dense search: 64 samples inside every gap of every prefix,
        # all of which lie at or above the true minimum
        n = 64
        frac = (np.arange(64) + 0.5) / 64
        for initial, s in (([0.3137], 2.0), ([0.3137], 0.5), ([0.0, 0.1, 0.37], 0.0), ([0.0], 3.5),
                           ([0.581152, 0.681152, 0.951152], 0.5)):
            run = greedy_numerical(Configuration.from_turns(initial), s, n)
            angles = np.asarray(run.points.angles())
            for k in range(len(initial), n):
                a = np.sort(angles[:k])
                xs = (a[:, None] + np.diff(np.append(a, a[0] + 1.0))[:, None] * frac).ravel()
                d = np.abs(np.exp(2j * np.pi * xs)[:, None] - np.exp(2j * np.pi * a)[None, :])
                kernel = -np.log(d) if s == 0 else d ** -s
                sampled = float(np.min(kernel.sum(axis=1)))
                chosen = potential_oracle(angles[:k], float(angles[k]), s)
                assert chosen <= sampled + 1e-12 * max(abs(sampled), 1.0), \
                    f"s={s} from {initial}: step {k} is not greedy"

    @pytest.mark.parametrize("initial, s, n", [
        ([0.3137], 2.0, 128),
        ([0.581152, 0.681152, 0.951152], 0.0, 256),
        ([0.0], 3.5, 256),
    ])
    def test_gap_solves_take_few_iterations(self, gap_passes, initial, s, n):
        # where U' cannot meet the bracket budget in double precision, each solve
        # must still stop once its Newton step rounds to the iterate, not bisect on
        greedy_numerical(Configuration.from_turns(initial), s, n)
        assert len(gap_passes) >= n - len(initial)
        assert max(gap_passes) <= 6

    @pytest.mark.parametrize("initial", [[0.0], [0.3137]])
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    def test_split_gaps_wait_for_their_bound(self, gap_passes, initial, s):
        # the halves of a split gap inherit its certified lower bound and are
        # solved only once it reaches the best value, so from one start point
        # most steps cost a single derivative pass
        n = 256
        greedy_numerical(Configuration.from_turns(initial), s, n)
        assert sum(gap_passes) / (n - len(initial)) <= 2.0

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_gap_solves_stop_once_they_cannot_hold_the_minimum(self, gap_passes, s):
        # from the generic start most solved gaps are far above the minimum; their
        # solves stop on the certified bound, so a step costs fewer cells and passes
        # than one that solves every gap to the budget: 3211 and 2420 cells, 1066
        # and 971 passes in all (4.21 and 3.84 per step) at s = 0 and 0.5
        initial, n = [0.581152, 0.681152, 0.951152], 256
        greedy_numerical(Configuration.from_turns(initial), s, n)
        assert gap_passes.cells / (n - len(initial)) <= 2000
        assert sum(gap_passes) <= {0.0: 1066, 0.5: 971}[s]

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5])
    def test_from_zero_follows_the_structural_track(self, s):
        run = greedy_numerical(Configuration.from_turns([0.0]), s, 512)
        assert run.points.angles().tobytes() == structural_angles(512).tobytes()

    def test_n_not_larger_than_initial(self):
        init = Configuration.from_turns([0.0, 0.3, 0.6])
        run = greedy_numerical(init, 1.0, 2)
        assert len(run.points) == 3
        assert len(run.extremal_values) == 2

    def test_validation(self):
        with pytest.raises(CoincidentPointsError):
            greedy_numerical(Configuration.from_turns([0.1, 0.1]), 1.0, 4)
        with pytest.raises(ValueError):
            greedy_numerical(Configuration.from_turns([]), 1.0, 4)
        with pytest.raises(ValueError):
            greedy_numerical(Configuration.from_turns([0.0]), -0.5, 4)

    def test_refuses_given_points_whose_potential_overflows(self, monkeypatch):
        # n_points is the initial size, so no step runs; the recorded U_1(a_1) =
        # (2 sin(pi 1e-9))**(-200) overflows, and the last check refuses it
        monkeypatch.setattr(sequences, "_grow", None)
        message = "^the running potential overflows float64 at s=200.0, N=2$"
        with pytest.raises(ValueError, match=message):
            greedy_numerical(Configuration.from_turns([0.0, 1e-9]), 200.0, 2)

    def test_deterministic(self):
        a = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), 0.5, 24)
        b = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), 0.5, 24)
        assert a.points.angles().tolist() == b.points.angles().tolist()
        np.testing.assert_array_equal(a.extremal_values, b.extremal_values, strict=True)
