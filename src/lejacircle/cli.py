"""Command-line front end.

Subcommands:

    sequence   generate a structural or numerical greedy run as CSV
    constants  emit the limit-constant catalog for an exponent s as JSON
    theta      enumerate digit-direction vectors and search G/Lambda extremes
    figure     emit the plotted series (ids 1-4) as CSV files
    verify     run the verification harness and report pass/fail
    series     emit one normalized series as CSV

Angles in all input and output are turns in [0, 1).  Floats are printed with
17 significant digits (%.17g) so the values round-trip.  Every CSV goes
through one writer, which renders each block of rows with numpy, byte-equal
to a %-format per row: an exact fast path finds the 17 digits of each float
in double-double arithmetic, and the few cells it cannot decide (undecided
ties, zeros, non-finite and extreme values) are formatted by %.17g itself.
The writer asks a row source for one block of at most _CSV_CHUNK_ROWS rows
at a time: ``sequence --structural``, ``series`` and ``figure`` compute it
from closed forms set up once per command (the doubling terms, the midpoint
expansion's coefficients), the greedy sequence slices its arrays and
``theta`` formats the vectors of its odd M.  Exit codes: 0 success, 1
verification failures, 2 usage/validation errors, 3 compute budget exceeded.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, binary, special
from .budget import exponent, require
from .circle import BudgetExceededError, Configuration
from .sequences import _angle_terms, _doubling, _value_terms, greedy_numerical

# figure id -> (s values, n_max); each file is the series of kind extremal at s
FIGURE_GRIDS = {
    1: ([0.0], 5000),
    2: ([0.001, 0.1, 0.3, 0.5, 0.7, 0.99], 2048),
    3: ([1.0], 2048),
    4: ([1.005, 1.5, 3.5, 5.0], 2048),
}


# Rows rendered per write by _write_csv; bounds its temporaries.
# With two float columns a chunk's float64 temporaries are 64 KiB, under glibc's
# 128 KiB mmap threshold: at 2**13 rows and more the render ran slower and the
# 2**20-row sequence peaked 2 MB higher.
_CSV_CHUNK_ROWS = 1 << 12

# The fast path of _float_cells covers |x| in [1e-200, 1e200], where 10**(16 - d)
# and its double-double stay normal.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
# Veltkamp's splitter 2**27 + 1 cuts a double into two halves of 26 bits.
_SPLITTER = 134217729.0
_SLOTS = np.arange(18.0)[:, None]  # positions of the digit and point slots
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]
_PLACES = 10.0 ** np.arange(9, -1, -1)[:, None]  # a digit row is a leading zero below its place
# The "0.000" before the digits at exponents -1..-4: slot i shows when d <= _PREFIX_MOST[i].
_PREFIX_TEXT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_MOST = np.array([-1.0, -1.0, -2.0, -3.0, -4.0])[:, None]


def _open_out(out_path):
    """The file out_path opened for writing, or stdout (left open) for None."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w", encoding="utf-8")


def _write_text(text, out_path):
    with _open_out(out_path) as out:
        out.write(text)


def _write_csv(out_path, head, rows, start, stop):
    """Write ``head`` (the header and any irregular first rows), then rows
    start..stop-1, one block at a time: the range is cut at the multiples of
    _CSV_CHUNK_ROWS, and rows(a, b) gives the columns of rows a..b-1.

    Integer columns print as %d, float columns as %.17g (so floats
    round-trip) and bytes columns as their bytes: the bytes of one %-format
    per row.  A block's text is one (slots, rows) matrix of ASCII bytes,
    column-major so that every step runs along all rows at once, with NUL in
    each slot a cell leaves empty (as in the padding of a bytes column); the
    transpose to rows drops the NULs.  The digits are worked out in float64,
    exact for integers below 2**53.
    """
    with _open_out(out_path) as out:
        out.write(head)
        while start < stop:
            end = min(start - start % _CSV_CHUNK_ROWS + _CSV_CHUNK_ROWS, stop)
            chunk, start = rows(start, end), end
            floats = [c for c in chunk if c.dtype.kind == "f"]
            # one pass for all float columns, side by side
            float_cells = iter(np.hsplit(_float_cells(np.concatenate(floats)), len(floats)) if floats else [])
            sep = np.full((1, chunk[0].size), ord(","), dtype=np.uint8)
            parts = []
            for c in chunk:
                cells = (next(float_cells) if c.dtype.kind == "f"
                         else c.view(np.uint8).reshape(c.size, -1).T if c.dtype.kind == "S"
                         else _int_cells(c))
                parts += [cells, sep]
            parts[-1] = np.full_like(sep, ord("\n"))
            out.write(np.concatenate(parts).T.tobytes().translate(None, b"\0").decode("ascii"))


def _digits(v, rows):
    """Write the decimal digits of the integer-valued floats 0 <= v < 10**len(rows),
    zero-padded, as ASCII into rows, most significant first."""
    for row in rows[:0:-1]:
        q = np.floor(v * 0.1)  # exact: v * fl(0.1) never rounds across an integer here
        row[:] = v - 10.0 * q + ord("0")
        v = q
    rows[0] = v + ord("0")


def _int_cells(c):
    """%d of each integer of c (|c| < 2**31), one row per slot, NUL before the leading digit."""
    if max(-int(c.min()), int(c.max())) >= 2 ** 31:
        raise ValueError("CSV integers must lie within +-2**31")
    # by way of int32: numpy's int64 -> float64 cast would page in 128 KB more code
    v = c.astype(np.int32).astype(np.float64)
    a = np.abs(v)
    n = len(str(int(a.max())))
    cells = np.empty((n, c.size), dtype=np.uint8)
    _digits(a, cells)
    cells[:-1] *= (a >= _PLACES[-n:-1]).view(np.uint8)  # leading zeros
    if (v < 0.0).any():
        cells = np.concatenate([np.where(v < 0.0, float(ord("-")), 0.0).astype(np.uint8)[None], cells])
    return cells


def _split(a):
    """Veltkamp split: a == hi + lo with both halves of at most 26 significant bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _carry(high, low):
    """(high, low) with high * 10**8 + low unchanged and 0 <= low < 10**8,
    for integer-valued floats with |low| < 2 * 10**8."""
    carry = np.floor(low * 1e-8)  # exact: fl(1e-8) > 1e-8 keeps multiples of 10**8 whole
    return high + carry, low - carry * 1e8


def _powers_of_ten(k):
    """Rows (hi, lo, hi's two Veltkamp halves) for each of the integer-valued
    floats k, where the double-double hi + lo is 10**k to 106 bits.

    Each distinct k is worked out once, from 10**k as an exact ratio n/d of
    integers: Python rounds int / int correctly, so hi = n/d and lo is the
    exact remainder n/d - hi rounded.
    """
    kmin = k.min()
    index = (k - kmin).astype(np.intp)
    table = np.zeros((4, int(index.max()) + 1))
    for i in np.flatnonzero(np.bincount(index)).tolist():
        e = i + int(kmin)
        n, d = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        hi = n / d
        hn, hd = hi.as_integer_ratio()
        table[:, i] = hi, (n * hd - hn * d) / (d * hd), *_split(hi)
    return np.take(table, index, axis=1)


def _float_cells(x):
    """%.17g of each float of x, one row per slot, NUL in the slots a cell leaves empty.

    The slots are: sign | "0.000" prefix | 17 digits and a point | "e+123"
    tail; a chunk with no sign, prefix, point or tail leaves out those slots.
    For |x| in [1e-200, 1e200] with d = floor(log10|x|), y = |x| * 10**(16-d)
    is taken as p + t: p = fl(|x| * hi) is an integer (it exceeds 2**53),
    and t, Dekker's exact rounding error of that product plus |x| * lo, is off
    from y - p by less than 1e-14.  So D = round(y) is the 17 digits unless t
    lies within 1e-9 of a half-integer; there y is an exact tie, rounded
    half-even, iff 2*|x|*10**(16-d) is an integer, and otherwise undecided.
    Undecided, non-finite, zero and out-of-range cells, and those where d
    misses (floor(y) or D outside [10**16, 10**17), which also catches a
    rounding carry into the next decade), are written by %.17g itself.
    """
    a = np.abs(x, dtype=np.float64)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    # within 1e-12 the estimate is at least an exact power's exponent; misses fall back
    d = np.floor(np.log(a) * (1.0 / math.log(10.0)) + 1e-12)
    k = 16.0 - d
    hi, lo, bh, bl = _powers_of_ten(k)
    p = a * hi
    ah, al = _split(a)
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo
    whole = np.floor(t)
    t -= whole
    # floor(y) = high * 10**8 + low with 0 <= low < 10**8, both exact in float64
    high = np.floor(p * 1e-8)
    high, low = _carry(high, p - high * 1e8 + whole)
    fast &= high >= 1e8
    up = np.floor(t + 0.5)
    near = np.abs(t - 0.5) < 1e-9
    if near.any():
        i = np.flatnonzero(near)
        # for k >= 0, 2*|x|*10**k is an integer iff |x|*2**(k+1) is: 5**k is odd
        tie = (k[i] >= 0.0) & (np.ldexp(a[i], (k[i] + 1.0).astype(np.intp)) % 1.0 == 0.0)
        up[i] = np.fmod(low[i], 2.0)  # half-even
        fast[i[~tie]] = False
    high, low = _carry(high, low + up)
    fast &= high < 1e9
    slow = ~fast
    any_slow = slow.any()
    high[slow] = 1e8
    low[slow] = 0.0
    d[slow] = 0.0

    fixed = (d >= -4.0) & (d < 17.0)
    f = np.where(fixed, np.maximum(d + 1.0, 0.0), 1.0)  # digits before the point
    g = np.empty((17, x.size), dtype=np.uint8)
    _digits(high, g[:9])
    _digits(low, g[9:])
    # bool masks act on the ASCII bytes as uint8 0/1, which keeps to one uint8 multiply loop
    last = ((g != ord("0")).view(np.uint8) * _DIGIT_INDEX).max(axis=0)  # the last nonzero digit
    g *= (_SLOTS[:17] < np.maximum(f, last + 1.0)).view(np.uint8)  # trailing zeros after the point
    point = (f >= 1.0) & (last >= f)
    parts = [g]
    if point.any():
        at = np.where(point, f, 18.0)  # the point's slot
        slots = np.zeros((18, x.size), dtype=np.uint8)
        before = _SLOTS[:17] < at
        np.multiply(g, before.view(np.uint8), out=slots[:17])
        slots[1:] += g * (~before).view(np.uint8)
        slots += (_SLOTS == at).view(np.uint8) * np.uint8(ord("."))
        parts = [slots]
    sign = np.signbit(x)
    if any_slow or sign.any():
        parts.insert(0, np.where(sign, float(ord("-")), 0.0).astype(np.uint8)[None])
    prefix = fixed & (d < 0.0)
    if any_slow or prefix.any():
        parts.insert(-1, (prefix & (d <= _PREFIX_MOST)).view(np.uint8) * _PREFIX_TEXT)
    tail = ~fixed
    if any_slow or tail.any():
        i = np.flatnonzero(tail)
        text = np.zeros((5, i.size), dtype=np.uint8)  # e+123, on the few cells that take it
        text[0] = ord("e")
        text[1] = np.where(d[i] < 0.0, float(ord("-")), float(ord("+")))
        _digits(np.abs(d[i]), text[2:])
        text[2] *= (np.abs(d[i]) >= 100.0).view(np.uint8)
        parts.append(np.zeros((5, x.size), dtype=np.uint8))
        parts[-1][:, i] = text
    cells = np.concatenate(parts)
    for i in np.flatnonzero(slow).tolist():
        text = ("%.17g" % x[i]).encode("ascii")
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _parse_initial(text: str) -> Configuration:
    angles = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not angles:
        raise ValueError("no initial angles given")
    if any(a < 0 or a >= 1 for a in angles):
        raise ValueError("initial angles must be turns in [0, 1)")
    return Configuration.from_turns(angles)


def cmd_sequence(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.initial is not None and not args.numerical:
        raise ValueError("--initial applies only with --numerical")
    if args.numerical:
        initial = _parse_initial("0" if args.initial is None else args.initial)
        if args.n < len(initial):
            raise ValueError(f"--n {args.n} is below the {len(initial)} initial points")
        run = greedy_numerical(initial, args.s, args.n)
        angles = run.points.angles()
        first = angles[0]
        def rows(a, b):
            return np.arange(a, b), angles[a:b], run.extremal_values[a - 1:b - 1]
    else:
        # Row n is (n, x_n, U_n(a_n)): both columns come from the doubling
        # recursion over the bits of n, so a block of rows needs only its terms.
        require(args.n)
        value_terms = _value_terms(args.n, args.s)  # validates s at every n, refuses overflow
        angle_terms = _angle_terms(args.n)
        first = 0.0
        def rows(a, b):
            return np.arange(a, b), _doubling(angle_terms, a, b), _doubling(value_terms, a, b)
    # Row 0 has no value: U_n(a_n) is defined from n = 1 on.
    _write_csv(args.out, "n,angle_turns,extremal_value\n0,%.17g,\n" % first, rows, 1, args.n)
    return 0


def cmd_constants(args) -> int:
    catalog = special.limit_catalog(args.s)
    _write_text(json.dumps(dataclasses.asdict(catalog), indent=2, allow_nan=False) + "\n", args.out)
    return 0


def cmd_theta(args) -> int:
    exponent(args.s, positive=True)  # before anything is written, in both formats
    if args.format == "csv":
        ms = binary.enumerate_theta(args.p, args.max_bits)
        def rows(a, b):
            cells = []
            for m in ms[a:b]:
                exps = binary.decompose(m)
                # M is odd, so 2**e/M is in lowest terms; the vector of M = 1 is (1)
                comps = "|".join(f"{1 << e}/{m}" for e in exps) if m > 1 else "1"
                comps += "|0" * (args.p - len(exps))
                g = binary.g_value(m, args.s) if args.s != 1 else 1.0
                cells.append((m, len(exps), args.p, comps.encode(), g, binary.lambda_value(m)))
            return [np.array(column) for column in zip(*cells)]
        _write_csv(args.out, "M,t,p,components,g_value,lambda_value\n", rows, 0, len(ms))
        return 0
    payload = {
        "p": args.p,
        "max_bits": args.max_bits,
        "s": args.s,
        "count": len(binary.enumerate_theta(args.p, args.max_bits)),
        "lambda_search": dataclasses.asdict(binary.search_lambda(args.max_bits)),
        "g_search": None,
    }
    if args.s != 1:
        payload["g_search"] = dataclasses.asdict(binary.search_g_extremes(args.s, args.max_bits))
    _write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0


def cmd_figure(args) -> int:
    if args.id not in FIGURE_GRIDS:
        raise ValueError(f"unknown figure id {args.id}")
    s_values, n_max = FIGURE_GRIDS[args.id]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in s_values:
        name = f"fig{args.id}.csv" if len(s_values) == 1 else f"fig{args.id}_s{s:g}.csv"
        _write_series(out_dir / name, "extremal", s, n_max)
        print(out_dir / name)
    return 0


def _write_series(out_path, kind, s, n_max):
    first, values = analysis._series_values(kind, s, n_max)
    _write_csv(out_path, "N,value\n", lambda a, b: (np.arange(a, b), values(a, b)), first, n_max + 1)


def cmd_series(args) -> int:
    _write_series(args.out, args.kind, args.s, args.n_max)
    return 0


def cmd_verify(args) -> int:
    grid = {"s_grid": args.s} if args.s else {}  # verify_all owns the default grid
    report = analysis.verify_all(n_max=args.n_max, **grid)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.name}: residual={check.residual:.3e} budget={check.budget:.3e}{detail}")
    print(f"{'all checks passed' if report.all_pass else 'FAILURES present'}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lejacircle",
        description="Greedy Riesz/Leja energy sequences on the unit circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequence", help="generate a greedy sequence as CSV")
    mode = p_seq.add_mutually_exclusive_group()
    mode.add_argument("--structural", action="store_true",
                      help="exact bit-reversal construction (default)")
    mode.add_argument("--numerical", action="store_true",
                      help="direct numerical minimization")
    p_seq.add_argument("--n", type=int, default=2048, help="number of points")
    p_seq.add_argument("--s", type=float, default=0.5, help="Riesz exponent")
    p_seq.add_argument("--initial", type=str, default=None,
                       help="comma-separated initial turn angles (numerical mode, default 0)")
    p_seq.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    p_seq.set_defaults(func=cmd_sequence)

    p_const = sub.add_parser("constants", help="limit-constant catalog as JSON")
    p_const.add_argument("--s", type=float, required=True)
    p_const.add_argument("--out", type=str, default=None)
    p_const.set_defaults(func=cmd_constants)

    p_theta = sub.add_parser("theta", help="digit-direction vectors and searches")
    p_theta.add_argument("--p", type=int, default=16, help="vector length")
    p_theta.add_argument("--max-bits", type=int, default=16)
    p_theta.add_argument("--s", type=float, default=0.5)
    p_theta.add_argument("--format", choices=["csv", "json"], default="json")
    p_theta.add_argument("--out", type=str, default=None)
    p_theta.set_defaults(func=cmd_theta)

    p_fig = sub.add_parser("figure", help="emit plotted series as CSV files")
    p_fig.add_argument("--id", type=int, required=True, help="figure id in {1,2,3,4}")
    p_fig.add_argument("--out-dir", type=str, default="figures")
    p_fig.set_defaults(func=cmd_figure)

    p_ser = sub.add_parser("series", help="emit one normalized series as CSV")
    p_ser.add_argument("--kind", choices=list(analysis.SERIES_KINDS), required=True)
    p_ser.add_argument("--s", type=float, required=True)
    p_ser.add_argument("--n-max", type=int, default=2048)
    p_ser.add_argument("--out", type=str, default=None)
    p_ser.set_defaults(func=cmd_series)

    p_ver = sub.add_parser("verify", help="run the verification harness")
    p_ver.add_argument("--n-max", type=int, default=2048)
    p_ver.add_argument("--s", type=float, action="append", default=None,
                       help="exponent to include (repeatable; default grid 0.5,1,1.5,2)")
    p_ver.add_argument("--json-out", type=str, default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
