"""Command-line front end.

Subcommands:

    sequence   generate a structural or numerical greedy run as CSV
    constants  emit the limit-constant catalog for an exponent s as JSON
    theta      enumerate digit-direction vectors and search G/Lambda extremes
    figure     emit the plotted series (ids 1-4) as CSV files
    verify     run the verification harness and report pass/fail
    series     emit one normalized series as CSV

Angles in all input and output are turns in [0, 1).  Floats are printed with
17 significant digits so the values round-trip.  Exit codes: 0 success,
1 verification failures, 2 usage/validation errors, 3 compute budget
exceeded.
"""

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, binary, special
from .circle import BudgetExceededError, Configuration
from .sequences import extremal_values_structural, greedy_numerical, structural_angles

# figure id -> (s values, n_max); each file is analysis.extremal_series(s, n_max)
FIGURE_GRIDS = {
    1: ([0.0], 5000),
    2: ([0.001, 0.1, 0.3, 0.5, 0.7, 0.99], 2048),
    3: ([1.0], 2048),
    4: ([1.005, 1.5, 3.5, 5.0], 2048),
}


# Rows formatted per write by _write_csv and theta's CSV; bounds their string
# temporaries.
_CSV_CHUNK_ROWS = 1 << 14


def _open_out(out_path):
    """The file out_path opened for writing, or stdout (left open) for None."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w", encoding="utf-8")


def _write_text(text, out_path):
    with _open_out(out_path) as out:
        out.write(text)


def _write_csv(out_path, head, index, *columns):
    """Write ``head`` (the header and any irregular first rows), then the rows
    (index[i], columns[0][i], ...) in chunks of _CSV_CHUNK_ROWS rows.

    Index entries print with %d and column entries with %.17g, so floats
    round-trip; each chunk is one %-format of a repeated row template.
    """
    index = np.asarray(index)
    columns = [np.asarray(c) for c in columns]
    width = 1 + len(columns)
    template = "%d" + ",%.17g" * len(columns) + "\n"
    with _open_out(out_path) as out:
        out.write(head)
        for start in range(0, index.size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, index.size)
            flat = [None] * (width * (stop - start))
            for k, col in enumerate([index] + columns):
                flat[k::width] = col[start:stop].tolist()
            out.write(template * (stop - start) % tuple(flat))


def _parse_initial(text: str) -> Configuration:
    angles = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not angles:
        raise ValueError("no initial angles given")
    if any(a < 0 or a >= 1 for a in angles):
        raise ValueError("initial angles must be turns in [0, 1)")
    return Configuration.from_turns(angles)


def cmd_sequence(args) -> int:
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if args.initial is not None and not args.numerical:
        print("error: --initial applies only with --numerical", file=sys.stderr)
        return 2
    if args.numerical:
        initial = _parse_initial("0" if args.initial is None else args.initial)
        if args.n < len(initial):
            print(f"error: --n {args.n} is below the {len(initial)} initial points", file=sys.stderr)
            return 2
        run = greedy_numerical(initial, args.s, args.n)
        angles, values = run.points.angles(), run.extremal_values
    else:
        angles = structural_angles(args.n)
        values = extremal_values_structural(args.n - 1, args.s) if args.n > 1 else []
    # Row 0 has no value: U_n(a_n) is defined from n = 1 on.
    head = "n,angle_turns,extremal_value\n0,%.17g,\n" % angles[0]
    _write_csv(args.out, head, np.arange(1, len(angles)), angles[1:], values)
    return 0


def cmd_constants(args) -> int:
    catalog = special.limit_catalog(args.s)
    _write_text(json.dumps(catalog.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_theta(args) -> int:
    if args.format == "csv":
        ms = binary.enumerate_theta(args.p, args.max_bits)
        with _open_out(args.out) as out:
            out.write("M,t,p,components,g_value,lambda_value\n")
            for start in range(0, len(ms), _CSV_CHUNK_ROWS):
                lines = []
                for m in ms[start:start + _CSV_CHUNK_ROWS]:
                    comps = "|".join(str(c) for c in binary.theta_components(m, args.p))
                    g = binary.g_value(m, args.s) if args.s != 1 else 1.0
                    lines.append(
                        "%d,%d,%d,%s,%.17g,%.17g\n"
                        % (m, binary.tau_b(m), args.p, comps, g, binary.lambda_value(m))
                    )
                out.write("".join(lines))
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
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_figure(args) -> int:
    if args.id not in FIGURE_GRIDS:
        print(f"error: unknown figure id {args.id}", file=sys.stderr)
        return 2
    s_values, n_max = FIGURE_GRIDS[args.id]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in s_values:
        series = analysis.extremal_series(s, n_max)
        name = f"fig{args.id}.csv" if len(s_values) == 1 else f"fig{args.id}_s{s:g}.csv"
        _write_csv(out_dir / name, "N,value\n", series.n, series.values)
        print(out_dir / name)
    return 0


def cmd_series(args) -> int:
    series = analysis.normalized_series(args.kind, args.s, args.n_max)
    _write_csv(args.out, "N,value\n", series.n, series.values)
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
