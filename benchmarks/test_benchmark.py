"""Tests of the benchmark's own code: certifier, references and workload inputs.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks``.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import certify
import reference
import workloads

HERE = Path(__file__).resolve().parent


def dense_potential(a, x, s):
    """Potential at x by complex arithmetic, independent of certify.py."""
    z = complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))
    total = 0.0
    for ak in a:
        d = abs(z - complex(math.cos(2 * math.pi * ak), math.sin(2 * math.pi * ak)))
        total += -math.log(d) if s == 0 else d ** (-s)
    return total


def brute_force_minimum(a, s, samples=1 << 18):
    """Dense-grid minimum of the potential: never below the true minimum."""
    a = np.asarray(a, dtype=np.float64)
    xs = (np.arange(samples) + 0.5) / samples
    best = math.inf
    for chunk in np.array_split(xs, max(1, samples // 4096)):
        d = 2.0 * np.abs(np.sin(np.pi * (chunk[:, None] - a[None, :])))
        vals = -np.log(d).sum(axis=1) if s == 0.0 else (d ** (-s)).sum(axis=1)
        best = min(best, float(np.min(vals)))
    return best


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", range(6))
def test_certified_minimum_brackets_dense_search(s, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(2 + seed)
    lower, upper, x = certify.certified_minimum(a, s)
    brute = brute_force_minimum(a, s)
    scale = max(abs(upper), 1.0)
    assert lower <= upper
    assert upper - lower <= 1e-11 * scale
    # the dense grid can only land above the true minimum, and only slightly
    assert upper <= brute + 1e-12 * scale
    assert brute - upper <= 1e-6 * scale
    assert dense_potential(a, x, s) == pytest.approx(upper, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_certify_run_flags_a_point_that_is_not_the_minimizer(s):
    a = [0.0, 0.1, 0.37]
    _, _, best = certify.certified_minimum(a, s)
    greedy = certify.certify_run(a + [best], 3, s)
    assert greedy["nongreedy_steps"] == 0 and greedy["below_lower_bound"] == 0
    other = certify.certify_run(a + [(best + 0.05) % 1.0], 3, s)
    assert other["nongreedy_steps"] == 1 and other["first_nongreedy"] == 3


@pytest.mark.parametrize("initial, s, n", [([0.3137], 2.0, 40), ([0.0, 0.1, 0.37], 0.5, 40)])
def test_certify_run_agrees_with_dense_search_on_program_output(initial, s, n):
    """Per step, the certifier's verdict matches a dense search, greedy or not."""
    from lejacircle.circle import Configuration
    from lejacircle.sequences import greedy_numerical

    angles = np.asarray(greedy_numerical(Configuration.from_turns(initial), s, n).points.angles())
    for k in range(len(initial), n):
        chosen = dense_potential(angles[:k], angles[k], s)
        brute = brute_force_minimum(angles[:k], s, samples=1 << 16)
        lower, upper, x = certify.certified_minimum(angles[:k], s)
        scale = max(abs(upper), 1.0)
        assert lower <= brute + 1e-12 * scale
        flagged = certify.certify_run(angles[: k + 1], k, s)["nongreedy_steps"] == 1
        if chosen - brute > 1e-6 * scale:
            assert flagged
        if flagged:  # the certifier's minimizer is a witness that beats the chosen point
            assert chosen - dense_potential(angles[:k], x, s) > certify.NONGREEDY_REL * scale


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_structural_values_match_direct_potentials(s):
    angles = reference.structural_angles(65)
    u = reference.structural_values(64, s)
    for n in range(1, 65):
        assert u[n] == pytest.approx(dense_potential(angles[:n], angles[n], s), rel=1e-11)


def test_structural_angles_are_bit_reversals():
    angles = reference.structural_angles(1 << 12)
    for n in range(1, 1 << 12):
        bits = bin(n)[2:]
        assert angles[n] == int(bits[::-1], 2) / 2 ** len(bits)
    assert angles[0] == 0.0


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert [t.argv for t in workloads.build(name, 7)] == [t.argv for t in workloads.build(name, 7)]
    a, b = (workloads.build("greedy-generic", seed)[0].argv for seed in (1, 2))
    assert a != b


def test_generic_inputs_are_a_rotated_fixture():
    task = workloads.build("greedy-generic", 3)[0]
    turns = [float(x) for x in task.argv[task.argv.index("--initial") + 1].split(",")]
    offsets = [(t - turns[0]) % 1.0 for t in turns]
    assert offsets == pytest.approx(list(workloads.GENERIC_SHAPE), abs=1e-8)


def test_symmetric_inputs_are_a_grid_start_and_the_off_track_start():
    starts = set()
    for seed in range(4):
        for task in workloads.build("greedy-symmetric", seed):
            starts.add(float(task.argv[task.argv.index("--initial") + 1]))
    assert workloads.OFF_TRACK_START in starts
    grid = starts - {workloads.OFF_TRACK_START}
    assert len(grid) == 4
    assert all((x * 2 ** workloads.SYMMETRIC_GRID_BITS).is_integer() for x in grid)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
