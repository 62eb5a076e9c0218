import numpy as np
import pytest

from lejacircle import sequences
from lejacircle.sequences import structural_angles


def circle_point_complex(angle_turns: float) -> complex:
    """Independent complex-arithmetic representation of a circle point."""
    return complex(np.cos(2.0 * np.pi * angle_turns), np.sin(2.0 * np.pi * angle_turns))


def chord_oracle(x: float, y: float) -> float:
    """Chord distance via plain complex arithmetic."""
    return abs(circle_point_complex(x) - circle_point_complex(y))


def energy_oracle(angles, s: float) -> float:
    """Direct double sum over ordered pairs via complex arithmetic."""
    pts = [circle_point_complex(a) for a in angles]
    total = 0.0
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            if i == j:
                continue
            d = abs(zi - zj)
            total += -np.log(d) if s == 0 else d ** (-s)
    return total


def potential_oracle(angles, x: float, s: float) -> float:
    """Direct potential at x via complex arithmetic."""
    z = circle_point_complex(x)
    total = 0.0
    for a in angles:
        d = abs(circle_point_complex(a) - z)
        total += -np.log(d) if s == 0 else d ** (-s)
    return total


@pytest.fixture(scope="session")
def canonical_angles_5001():
    return structural_angles(5001)


class GapPasses(list):
    """One entry per ``_solve_gaps`` call, its derivative passes; ``cells`` sums
    the kernel cells of every pass, its points times its charges."""

    cells = 0


@pytest.fixture
def gap_passes(monkeypatch):
    """Derivative passes of the greedy's gap solves, one entry per ``_solve_gaps`` call,
    and the kernel cells of all of them in ``.cells``."""
    passes = GapPasses()
    derivatives, solve_gaps = sequences._derivatives, sequences._solve_gaps

    def counting_derivatives(x, charges, sv):
        passes[-1] += 1
        passes.cells += x.size * charges.size
        return derivatives(x, charges, sv)

    def counting_solve_gaps(*args):
        passes.append(0)
        return solve_gaps(*args)

    monkeypatch.setattr(sequences, "_derivatives", counting_derivatives)
    monkeypatch.setattr(sequences, "_solve_gaps", counting_solve_gaps)
    return passes
