"""Deterministic blockwise summation: two reductions, each with its own contract.

:func:`pairwise_sum`, which the energies and the roots-of-unity closed forms
take, reduces a float64 array in fixed 128-element blocks and combines the
block partials with an exact (Shewchuk) float sum.  The reduction shape depends
only on the length of the input, so results are bit-reproducible and the
worst-case rounding error stays at the block level (~128 * eps relative).

:func:`row_sums`, which ``prefix_potentials`` reduces its rows with, sums each
row of a 2-d array in the same blocks, zero-padded past the row's end, and adds
the partials left to right in floating point, not exactly, so its error grows
with the row's number of blocks; a row's sum depends only on its own entries.
"""

import math

import numpy as np

_BLOCK = 128


def pairwise_sum(values) -> float:
    """Sum a 1-d float array with a fixed blockwise/exact reduction."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("pairwise_sum expects a 1-d array")
    n = arr.shape[0]
    if n == 0:
        return 0.0
    if n <= _BLOCK:
        return math.fsum(arr.tolist())
    head = (n // _BLOCK) * _BLOCK
    partials = np.add.reduce(arr[:head].reshape(-1, _BLOCK), axis=1).tolist()  # np.sum, unwrapped
    if head < n:
        partials.append(math.fsum(arr[head:].tolist()))
    return math.fsum(partials)


def block_width(cols: int) -> int:
    """``cols`` rounded up to whole blocks (at least one): a width row_sums reduces uncopied."""
    return max(1, -(-cols // _BLOCK)) * _BLOCK


def row_sums(values) -> np.ndarray:
    """Sum each row of a 2-d float array with a fixed blockwise reduction."""
    values = np.asarray(values)
    rows, cols = values.shape
    width = block_width(cols)
    if cols != width:
        padded = np.zeros((rows, width))
        padded[:, :cols] = values
        values = padded
    # np.sum and np.cumsum, without their wrappers' 3 us per call
    partials = np.add.reduce(values.reshape(-1, _BLOCK), axis=1).reshape(rows, width // _BLOCK)
    return np.add.accumulate(partials, axis=1)[:, -1]  # left to right; zero partials add nothing
