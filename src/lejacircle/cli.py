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
as one int64, by double-double arithmetic, and the few cells it cannot decide
(undecided ties, zeros, non-finite and extreme values) are formatted by %.17g
itself.  Files get bytes, with "\n" line ends on every platform; stdout text.
The writer asks a row source for one block of at most _CSV_CHUNK_ROWS rows
at a time: ``sequence --structural``, ``series`` and ``figure`` compute it
from closed forms set up once per command (the doubling recursion's table of
the 12 low bits, whose windows are the chunks, and the midpoint expansion's
coefficients), the greedy sequence slices its arrays and ``theta`` formats the
vectors of its odd M.  Exit codes: 0 success, 1 verification failures, 2
usage/validation errors, 3 compute budget exceeded.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, binary, special
from .budget import exponent, require, size
from .circle import BudgetExceededError, Configuration
from .sequences import _WINDOW, _angle_terms, _doubling, _value_terms, greedy_numerical

# figure id -> (s values, n_max); each file is the series of kind extremal at s
FIGURE_GRIDS = {
    1: ([0.0], 5000),
    2: ([0.001, 0.1, 0.3, 0.5, 0.7, 0.99], 2048),
    3: ([1.0], 2048),
    4: ([1.005, 1.5, 3.5, 5.0], 2048),
}


# Rows rendered per write by _write_csv, one window of the doubling table; bounds its temporaries.
_CSV_CHUNK_ROWS = _WINDOW

# The fast path of _float_cells covers |x| in [1e-200, 1e200], where 10**(16 - d)
# and its double-double stay normal; there its exponent estimate d lies within +-_D_MOST.
_FAST_MIN, _FAST_MAX, _D_MOST = 1e-200, 1e200, 201
# Veltkamp's splitter 2**27 + 1 cuts a double into two halves of 26 bits.
_SPLITTER = 134217729.0
_SLOTS = np.arange(18, dtype=np.uint8)[:, None]  # positions of the digit and point slots
_PLACES = np.array([10 ** k for k in range(9, -1, -1)], np.uint32)[:, None]  # leading-zero bounds
# The "0.000" before the digits at exponents -1..-4: slot i shows when d <= _PREFIX_MOST[i].
_PREFIX_TEXT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_MOST = np.array([-1.0, -1.0, -2.0, -3.0, -4.0])[:, None]


@contextlib.contextmanager
def _output(out_path):
    """A write(bytes): into the file out_path, opened "wb", or as text to stdout for None."""
    if out_path is None:
        yield lambda data: sys.stdout.write(data.decode("utf-8"))
    else:
        with open(out_path, "wb") as out:
            yield out.write


def _write_csv(out_path, head, rows, start, stop):
    """Write ``head`` (the header and any irregular first rows), then rows
    start..stop-1, one block at a time: the range is cut at the multiples of
    _CSV_CHUNK_ROWS, and rows(a, b) gives the columns of rows a..b-1.

    Integer columns print as %d, float columns as %.17g (so floats round-trip) and
    bytes columns as their bytes: the bytes of one %-format per row, with "\\n" line
    ends.  A block's text is one (slots, rows) matrix of ASCII bytes, column-major so
    that every step runs along all rows at once, with NUL in each slot a cell leaves
    empty (as in the padding of a bytes column); the transpose to rows drops the NULs.
    """
    with _output(out_path) as write:
        write(head.encode("utf-8"))
        while start < stop:
            end = min(start - start % _CSV_CHUNK_ROWS + _CSV_CHUNK_ROWS, stop)
            chunk, start = rows(start, end), end
            floats = [c for c in chunk if c.dtype.kind == "f"]
            # one pass for all float columns, side by side
            float_cells = iter(np.hsplit(_float_cells(np.concatenate(floats)), len(floats))
                               if floats else [])
            sep = np.full((1, chunk[0].size), ord(","), dtype=np.uint8)
            parts = []
            for c in chunk:
                cells = (next(float_cells) if c.dtype.kind == "f"
                         else c.view(np.uint8).reshape(c.size, -1).T if c.dtype.kind == "S"
                         else _int_cells(c))
                parts += [cells, sep]
            parts[-1] = np.full_like(sep, ord("\n"))
            write(np.concatenate(parts).T.tobytes().translate(None, b"\0"))


def _digits(v, rows):
    """Write the decimal digits of the integers 0 <= v < 10**len(rows), zero-padded, as
    ASCII into rows, most significant first.  The high digits recurse; the low m, m the largest
    power of two below len(rows), are halved until single digits remain, all groups at once, in
    uint32, then uint8 from two digits (uint16 would page in more of numpy's loops)."""
    if len(rows) == 1:
        rows[0] = v + ord("0")
        return
    m = 1 << (len(rows) - 1).bit_length() - 1
    high = v // 10 ** m
    _digits(high, rows[:-m])
    groups = (v - high * 10 ** m)[None]
    while m > 1:
        m //= 2
        high = groups // 10 ** m
        groups -= high * 10 ** m  # the low halves, in place
        halves = np.empty((2 * len(high), v.size), dtype=np.uint8 if m < 4 else np.uint32)
        halves[0::2], halves[1::2] = high, groups
        groups = halves
    rows[-len(groups):] = groups + ord("0")


def _int_cells(c):
    """%d of each integer of c (|c| < 2**31), one row per slot, NUL before the leading digit."""
    low, high = int(c.min()), int(c.max())
    if max(-low, high) >= 2 ** 31:
        raise ValueError("CSV integers must lie within +-2**31")
    a = np.maximum(c, -c).astype(np.uint32)
    n = len(str(max(-low, high)))
    cells = np.empty((n, c.size), dtype=np.uint8)
    _digits(a, cells)
    cells[:-1] *= (a >= _PLACES[-n:-1]).view(np.uint8)  # leading zeros
    if low < 0:
        cells = np.concatenate([(c < 0).view(np.uint8)[None] * np.uint8(ord("-")), cells])
    return cells


def _split(a):
    """Veltkamp split: a == hi + lo with both halves of at most 26 significant bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten():
    """The read-only rows (hi, lo, hi's two Veltkamp halves), column d + _D_MOST for each
    integer |d| <= _D_MOST, where the double-double hi + lo is 10**(16 - d) to 106 bits;
    built on first use and kept.  Each column is worked out from 10**(16 - d) as an exact
    ratio n/m of integers: Python rounds int / int correctly, so hi = n/m and lo is the
    exact remainder n/m - hi rounded."""
    table = np.empty((4, 2 * _D_MOST + 1))
    for i in range(table.shape[1]):
        e = 16 + _D_MOST - i
        n, m = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        hi = n / m
        hn, hd = hi.as_integer_ratio()
        table[:, i] = hi, (n * hd - hn * m) / (m * hd), *_split(hi)
    table.flags.writeable = False
    return table


def _float_cells(x):
    """%.17g of each float of x, one row per slot, NUL in the slots a cell leaves empty.

    The slots are: sign | "0.000" prefix | 17 digits and a point | "e+123" tail; a chunk
    with no sign, prefix, point or tail leaves out those slots.  For |x| in [1e-200, 1e200]
    with d = floor(log10|x|), y = |x| * 10**(16-d) is the int64 D plus t in [0, 1), to
    within 1e-14: p = fl(|x| * hi) is an integer (it exceeds 2**53), and t is Dekker's
    exact rounding error of that product plus |x| * lo, less its floor.  So the 17 digits
    are D + (t > 0.5) unless t lies within 1e-9 of 0.5; there y is an exact tie, rounded
    half-even on D's low bit, iff 2*|x|*10**(16-d) is an integer, and otherwise undecided.
    Undecided, non-finite, zero and out-of-range cells, and those where d misses (D outside
    [10**16, 10**17) before or after rounding, which also catches a rounding carry into
    the next decade), are written by %.17g itself.
    """
    a = np.abs(x, dtype=np.float64)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    # within 1e-12 the estimate is at least an exact power's exponent; misses fall back
    d = np.floor(np.log(a) * (1.0 / math.log(10.0)) + 1e-12)
    hi, lo, bh, bl = np.take(_powers_of_ten(), (d + _D_MOST).astype(np.intp), axis=1)
    p = a * hi
    ah, al = _split(a)
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo
    whole = np.floor(t)
    t -= whole
    D = p.astype(np.int64) + whole.astype(np.int64)
    del hi, lo, bh, bl, p, ah, al, whole  # free the Dekker step's temporaries before the digits
    fast &= D >= 10 ** 16
    up = np.floor(t + 0.5)
    i = np.flatnonzero(np.abs(t - 0.5) < 1e-9)  # near-ties
    if i.size:
        # for k = 16 - d >= 0, 2*|x|*10**k is an integer iff |x|*2**(k+1) is: 5**k is odd
        tie = (d[i] <= 16.0) & (np.ldexp(a[i], (17.0 - d[i]).astype(np.intp)) % 1.0 == 0.0)
        up[i] = D[i] % 2  # half-even
        fast[i[~tie]] = False
    D += up.astype(np.int64)
    fast &= D < 10 ** 17
    slow = ~fast
    any_slow = slow.any()
    D[slow] = 10 ** 16
    d[slow] = 0.0

    g = np.empty((17, x.size), dtype=np.uint8)
    _digits(D, g)
    fixed = (d >= -4.0) & (d < 17.0)
    f = np.where(fixed, np.maximum(d + 1.0, 0.0), 1.0).astype(np.uint8)  # digits before the point
    # bool masks act on the ASCII bytes as uint8 0/1, which keeps to one uint8 multiply loop
    last = ((g != ord("0")).view(np.uint8) * _SLOTS[:17]).max(axis=0)  # the last nonzero digit
    g *= (_SLOTS[:17] < np.maximum(f, last + 1)).view(np.uint8)  # trailing zeros after the point
    point = (f >= 1) & (last >= f)
    parts = [g]
    if point.any():
        at = np.where(point, f, 18)  # the point's slot
        slots = np.zeros((18, x.size), dtype=np.uint8)
        np.multiply(g, (_SLOTS[:17] < at).view(np.uint8), out=slots[:17])  # the digits before it
        slots[1:] += g - slots[:17]  # and those after it, one slot on
        slots += (_SLOTS == at).view(np.uint8) * np.uint8(ord("."))
        parts = [slots]
    sign = np.signbit(x)
    if any_slow or sign.any():
        parts.insert(0, sign.view(np.uint8)[None] * np.uint8(ord("-")))
    prefix = fixed & (d < 0.0)
    if any_slow or prefix.any():
        parts.insert(-1, (prefix & (d <= _PREFIX_MOST)).view(np.uint8) * _PREFIX_TEXT)
    tail = ~fixed
    if any_slow or tail.any():
        i = np.flatnonzero(tail)
        e = np.abs(d[i]).astype(np.uint32)
        text = np.zeros((5, i.size), dtype=np.uint8)  # e+123, on the few cells that take it
        text[0], text[1] = ord("e"), np.where(d[i] < 0.0, ord("-"), ord("+"))
        _digits(e, text[2:])
        text[2] *= (e >= 100).view(np.uint8)
        parts.append(np.zeros((5, x.size), dtype=np.uint8))
        parts[-1][:, i] = text
    cells = np.concatenate(parts)
    for i in np.flatnonzero(slow).tolist():  # all 28 or more slots are in: room for 24 bytes
        cells[:, i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(len(cells), b"\0"), np.uint8)
    return cells


def _parse_initial(text: str) -> Configuration:
    angles = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not angles:
        raise ValueError("no initial angles given")
    if any(a < 0 or a >= 1 for a in angles):
        raise ValueError("initial angles must be turns in [0, 1)")
    return Configuration.from_turns(angles)


def cmd_sequence(args) -> int:
    require(size(args.n, 1, "--n"))
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
        # Row n is (n, x_n, U_n(a_n)), both columns by the doubling recursion over the bits of n.
        values = _doubling(_value_terms(args.n, args.s))  # validates s at every n, refuses overflow
        angles = _doubling(_angle_terms(args.n))
        first = 0.0
        def rows(a, b):
            return np.arange(a, b), angles(a, b), values(a, b)
    # Row 0 has no value: U_n(a_n) is defined from n = 1 on.
    _write_csv(args.out, "n,angle_turns,extremal_value\n0,%.17g,\n" % first, rows, 1, args.n)
    return 0


def cmd_constants(args) -> int:
    catalog = special.limit_catalog(args.s)
    with _output(args.out) as write:
        write(json.dumps(dataclasses.asdict(catalog), indent=2, allow_nan=False).encode() + b"\n")
    return 0


def cmd_theta(args) -> int:
    exponent(args.s, positive=True)  # before anything is written, in both formats
    if args.format == "csv":
        ms = binary._theta_m(args.p, args.max_bits)
        def rows(a, b):
            cells = []
            for m in ms[a:b].tolist():
                exps = binary.decompose(m)
                # M is odd, so 2**e/M is in lowest terms; the vector of M = 1 is (1)
                comps = "|".join(f"{1 << e}/{m}" for e in exps) if m > 1 else "1"
                comps += "|0" * (args.p - len(exps))
                g = binary.g_value(m, args.s) if args.s != 1 else 1.0
                cells.append((m, len(exps), args.p, comps.encode(), g, binary.lambda_value(m)))
            return [np.array(column) for column in zip(*cells)]
        _write_csv(args.out, "M,t,p,components,g_value,lambda_value\n", rows, 0, len(ms))
        return 0
    p = size(args.p, 1, "p")
    lambda_search = binary.search_lambda(args.max_bits)  # refuses max_bits past the budget
    payload = {
        "p": args.p,
        "max_bits": args.max_bits,
        "s": args.s,
        # len(enumerate_theta(p, b)) without the list: bit 0 and at most p - 1 of the b - 1 above
        "count": sum(math.comb(args.max_bits - 1, k) for k in range(min(p, args.max_bits))),
        "lambda_search": dataclasses.asdict(lambda_search),
        "g_search": None,
    }
    if args.s != 1:
        payload["g_search"] = dataclasses.asdict(binary.search_g_extremes(args.s, args.max_bits))
    with _output(args.out) as write:
        write(json.dumps(payload, indent=2, allow_nan=False).encode() + b"\n")
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
