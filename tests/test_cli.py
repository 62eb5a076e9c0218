"""Command-line interface: subcommands, formats, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejacircle import analysis, cli
from lejacircle.analysis import VerificationReport, normalized_series, star_discrepancy
from lejacircle.binary import (
    GSearchResult,
    LambdaSearchResult,
    enumerate_theta,
    g_value,
    lambda_value,
    tau_b,
)
from lejacircle.circle import Configuration
from lejacircle.cli import _CSV_CHUNK_ROWS, FIGURE_GRIDS, main
from lejacircle.sequences import extremal_values_structural, greedy_numerical, structural_angles
from lejacircle.summation import pairwise_sum


def run_cli(args):
    return main(args)


class TestSequence:
    def test_structural_eight(self, tmp_path, capsys):
        out = tmp_path / "seq.csv"
        assert run_cli(["sequence", "--structural", "--n", "8", "--s", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        angles = [float(r["angle_turns"]) for r in rows]
        assert angles == [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        assert rows[0]["extremal_value"] == ""
        assert float(rows[1]["extremal_value"]) == pytest.approx(0.5)

    def test_structural_log_case(self, tmp_path):
        out, num = tmp_path / "seq.csv", tmp_path / "num.csv"
        assert run_cli(["sequence", "--structural", "--n", "64", "--s", "0", "--out", str(out)]) == 0
        assert run_cli(["sequence", "--numerical", "--n", "64", "--s", "0", "--out", str(num)]) == 0
        rows, num_rows = list(csv.DictReader(out.open())), list(csv.DictReader(num.open()))
        values = [float(r["extremal_value"]) for r in rows[1:]]
        assert values == [-tau_b(n) * math.log(2.0) for n in range(1, 64)]
        assert [r["angle_turns"] for r in rows] == [r["angle_turns"] for r in num_rows]
        numerical = [float(r["extremal_value"]) for r in num_rows[1:]]
        assert numerical == pytest.approx(values, rel=0, abs=1e-9)

    def test_numerical_monotone_from_p1(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli([
            "sequence", "--numerical", "--s", "0.5", "--initial", "0,0.1,0.37",
            "--n", "48", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 48
        vals = [float(r["extremal_value"]) for r in rows[3:]]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_rejects_zero(self, capsys):
        assert run_cli(["sequence", "--n", "0"]) == 2
        assert capsys.readouterr().err == "error: need --n >= 1, got 0\n"

    def test_rejects_bad_initial(self):
        assert run_cli(["sequence", "--numerical", "--initial", "0,1.5", "--n", "4"]) == 2

    def test_rejects_n_below_initial(self, capsys):
        assert run_cli(["sequence", "--numerical", "--n", "1", "--initial", "0,0.5,0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "below the 3 initial points" in captured.err
        assert run_cli(["sequence", "--numerical", "--initial", "0.2,0.2", "--n", "4"]) == 2
        assert run_cli(["sequence", "--numerical", "--initial", "nan", "--n", "4"]) == 2

    def test_initial_requires_numerical(self, tmp_path, capsys):
        assert run_cli(["sequence", "--initial", "0.3", "--n", "8"]) == 2
        assert run_cli(["sequence", "--structural", "--initial", "0", "--n", "8"]) == 2
        assert "--numerical" in capsys.readouterr().err
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert run_cli(["sequence", "--numerical", "--n", "8", "--out", str(default)]) == 0
        assert run_cli(["sequence", "--numerical", "--initial", "0", "--n", "8",
                        "--out", str(explicit)]) == 0
        assert default.read_text() == explicit.read_text()

    def test_budget_exit(self):
        assert run_cli(["sequence", "--structural", "--n", str((1 << 20) + 2)]) == 3

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sequence", "--numerical", "--s", "0.5", "--initial", "0,0.1,0.37",
                "--n", "24"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["1", "2", "4097"])
    @pytest.mark.parametrize("s", ["-3", "inf", "nan"])
    def test_structural_refuses_bad_s_at_every_n(self, capsys, n, s):
        assert run_cli(["sequence", "--structural", "--n", n, "--s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_structural_bounded_memory(self, tmp_path):
        # rows are computed and written one chunk at a time: whole columns of
        # 2**18 floats would take 2 MB each
        out = tmp_path / "seq.csv"
        tracemalloc.start()
        try:
            assert run_cli(["sequence", "--structural", "--n", str(1 << 18), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        with out.open() as f:
            assert sum(1 for _ in f) == (1 << 18) + 1

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "seq.csv"
        run_cli(["sequence", "--structural", "--n", "32", "--s", "1.5", "--out", str(out)])
        for row in csv.DictReader(out.open()):
            if row["extremal_value"]:
                v = float(row["extremal_value"])
                assert f"{v:.17g}" == row["extremal_value"]


def per_line_csv(header, rows):
    """Reference rendering: one f-string per row, floats at 17 significant digits."""
    def cell(x):
        return f"{x:.17g}" if isinstance(x, float) else str(x)
    return "".join(",".join(cell(x) for x in row) + "\n" for row in [header] + rows)


def theta_rows(p, max_bits, s):
    """The rows of theta --format csv, with an exact Fraction oracle for each vector."""
    def vector(m):  # the exact vector of odd M, padded to length p
        ones = [e for e in range(m.bit_length() - 1, -1, -1) if m >> e & 1]
        return [Fraction(1 << e, m) for e in ones] + [Fraction(0)] * (p - len(ones))

    return [[m, tau_b(m), p, "|".join(str(c) for c in vector(m)), g_value(m, s), lambda_value(m)]
            for m in enumerate_theta(p, max_bits)]


class TestCsvGolden:
    """The chunked writer is byte-equal to a per-line rendering."""

    def test_structural_past_one_chunk(self, tmp_path):
        n, s = _CSV_CHUNK_ROWS + 2, 0.5
        out = tmp_path / "seq.csv"
        assert run_cli(["sequence", "--structural", "--n", str(n), "--s", str(s),
                        "--out", str(out)]) == 0
        values = [""] + extremal_values_structural(n - 1, s).tolist()
        rows = [list(r) for r in zip(range(n), structural_angles(n).tolist(), values)]
        assert out.read_text() == per_line_csv(["n", "angle_turns", "extremal_value"], rows)

    def test_numerical(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["sequence", "--numerical", "--s", "0.5", "--initial", "0,0.1,0.37",
                        "--n", "40", "--out", str(out)]) == 0
        run = greedy_numerical(Configuration.from_turns([0.0, 0.1, 0.37]), 0.5, 40)
        values = [""] + run.extremal_values.tolist()
        rows = [list(r) for r in zip(range(40), run.points.angles().tolist(), values)]
        assert out.read_text() == per_line_csv(["n", "angle_turns", "extremal_value"], rows)

    def test_theta_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 5)
        out = tmp_path / "theta.csv"
        assert run_cli(["theta", "--p", "3", "--max-bits", "6", "--format", "csv",
                        "--s", "2", "--out", str(out)]) == 0
        rows = theta_rows(3, 6, 2.0)
        assert len(rows) == 16
        assert out.read_text() == per_line_csv(
            ["M", "t", "p", "components", "g_value", "lambda_value"], rows)

    def test_theta_p16(self, capsys):
        # 512 rows, vectors of up to 10 components padded to 16, at the default s = 0.5
        assert run_cli(["theta", "--p", "16", "--max-bits", "10", "--format", "csv"]) == 0
        assert capsys.readouterr().out == per_line_csv(
            ["M", "t", "p", "components", "g_value", "lambda_value"], theta_rows(16, 10, 0.5))

    @pytest.mark.parametrize("chunk_rows", [1, 5])
    @pytest.mark.parametrize("s", ["0", "1.5"])
    def test_structural_any_chunk(self, tmp_path, monkeypatch, chunk_rows, s):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        out = tmp_path / "seq.csv"
        assert run_cli(["sequence", "--structural", "--n", "37", "--s", s, "--out", str(out)]) == 0
        values = [""] + extremal_values_structural(36, float(s)).tolist()
        rows = [list(r) for r in zip(range(37), structural_angles(37).tolist(), values)]
        assert out.read_text() == per_line_csv(["n", "angle_turns", "extremal_value"], rows)

    def test_structural_chunks_across_table_windows(self, tmp_path, monkeypatch):
        # a writer chunk wider than the doubling table's window reads several windows
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 3 * 4096 + 7)
        n, s = 4 * 4096 + 3, 1.5
        out = tmp_path / "seq.csv"
        assert run_cli(["sequence", "--structural", "--n", str(n), "--s", str(s),
                        "--out", str(out)]) == 0
        values = [""] + extremal_values_structural(n - 1, s).tolist()
        rows = [list(r) for r in zip(range(n), structural_angles(n).tolist(), values)]
        assert out.read_text() == per_line_csv(["n", "angle_turns", "extremal_value"], rows)

    @pytest.mark.parametrize("kind, s", [
        ("R_subcritical", 0.5), ("W_subcritical", 0.5), ("W1_critical", 1.0),
        ("T_critical", 1.0), ("W_supercritical", 3.0), ("W_supercritical", 1.5),
        ("extremal", 0.0), ("extremal", 0.5), ("extremal", 1.0), ("extremal", 3.0),
    ])
    def test_series_past_one_and_two_chunks(self, tmp_path, kind, s):
        # one N block at a time gives the bytes of the whole-array series
        series = normalized_series(kind, s, 2 * _CSV_CHUNK_ROWS + 1)
        rows = [[int(n), float(v)] for n, v in zip(series.n, series.values)]
        for n_max in (_CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1):
            out = tmp_path / f"{n_max}.csv"
            assert run_cli(["series", "--kind", kind, "--s", str(s), "--n-max", str(n_max),
                            "--out", str(out)]) == 0
            want = [r for r in rows if r[0] <= n_max]
            assert out.read_text() == per_line_csv(["N", "value"], want)

    @pytest.mark.parametrize("kind, s", [("W1_critical", "1"), ("R_subcritical", "0.5"), ("extremal", "0")])
    def test_series_any_chunk(self, capsys, monkeypatch, kind, s):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 5)
        assert run_cli(["series", "--kind", kind, "--s", s, "--n-max", "23"]) == 0
        series = normalized_series(kind, float(s), 23)
        rows = [[int(n), float(v)] for n, v in zip(series.n, series.values)]
        assert capsys.readouterr().out == per_line_csv(["N", "value"], rows)

    def test_series_stdout(self, capsys):
        assert run_cli(["series", "--kind", "W_subcritical", "--s", "0.5", "--n-max", "300"]) == 0
        series = normalized_series("W_subcritical", 0.5, 300)
        rows = [[int(n), float(v)] for n, v in zip(series.n, series.values)]
        assert capsys.readouterr().out == per_line_csv(["N", "value"], rows)


def written(chunk_rows, *columns):
    """What _write_csv prints to stdout for the columns under header "h", at chunk_rows rows a chunk."""
    buf = io.StringIO()
    with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows), contextlib.redirect_stdout(buf):
        cli._write_csv(None, "h\n", lambda a, b: [c[a:b] for c in columns], 0, len(columns[0]))
    return buf.getvalue()


def hard_floats():
    """Seeded floats where a 17-digit rendering is hardest to get right."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 1 << 63, 1500, dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)  # both signs
    random_bits = bits.view(np.float64)
    m = rng.integers(1, 61, 1500)
    dyadic = rng.integers(1, 1 << 53, 1500) / 2.0 ** m  # exact k / 2**m, many 17-digit ties
    neighbours = []
    for c in (1e-5, 1e-4, 1e16, 1e17, 1e-200, 1e200):
        up = down = c
        for _ in range(20):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            neighbours += [up, down, -up, -down]
    # doubles just below 10**k whose 17-digit rounding is 10**k itself
    carries = [float(f"1e{k}") for k in range(-307, 309)]
    carries = [v for k, v in zip(range(-307, 309), carries)
               if Fraction(v) < Fraction(10) ** k and f"{v:.17g}" == f"1e{k:+03d}"]
    assert len(carries) >= 10
    powers = [float(f"1e{k}") for k in range(-20, 24)]
    return np.concatenate([random_bits, dyadic, neighbours, carries, powers, np.negative(carries)])


class TestCsvWriter:
    """_write_csv prints exactly the bytes of %d / %.17g per cell, at any chunk size."""

    @pytest.mark.parametrize("chunk_rows", [1, 5, cli._CSV_CHUNK_ROWS])
    def test_hard_floats(self, chunk_rows):
        x = hard_floats()
        if chunk_rows == 1:
            x = x[::8]  # one numpy pass per row: a sample keeps the test fast
        index = np.arange(x.size)
        rows = [[i, v, -v] for i, v in zip(index.tolist(), x.tolist())]
        assert written(chunk_rows, index, x, -x) == per_line_csv(["h"], rows)

    @given(st.lists(st.floats(), min_size=1, max_size=40), st.sampled_from([1, 5, cli._CSV_CHUNK_ROWS]))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values, chunk_rows):
        x = np.array(values)
        rows = [[i, v] for i, v in enumerate(values)]
        assert written(chunk_rows, np.arange(x.size), x) == per_line_csv(["h"], rows)

    @pytest.mark.parametrize("chunk_rows", [1, 5, cli._CSV_CHUNK_ROWS])
    def test_int_columns(self, chunk_rows):
        ints = [0, 7, -5, 10, -10, 10**9, -(2**31 - 1), 2**31 - 1]
        rows = [list(r) for r in zip(ints, [-i for i in ints], [0.5] * 8)]
        got = written(chunk_rows, np.array(ints), -np.array(ints, dtype=np.int32), np.full(8, 0.5))
        assert got == per_line_csv(["h"], rows)
        with pytest.raises(ValueError):
            written(chunk_rows, np.array([2**31]), np.ones(1))

    @pytest.mark.parametrize("chunk_rows", [1, 5, cli._CSV_CHUNK_ROWS])
    def test_bytes_columns(self, chunk_rows):
        # a bytes cell is its own bytes; the NULs that pad the short ones are dropped
        texts = ["", "1", "1/3|2/3", "8/11|2/11|1/11|0|0", "x" * 40, "|", "-0.5", "a b"]
        rows = [[i, text, 0.25 * i, text[::-1]] for i, text in enumerate(texts)]
        got = written(chunk_rows, np.arange(8), np.array([t.encode() for t in texts]),
                      0.25 * np.arange(8), np.array([t[::-1].encode() for t in texts]))
        assert got == per_line_csv(["h"], rows)

    @pytest.mark.parametrize("chunk_rows", [1, 5, cli._CSV_CHUNK_ROWS])
    def test_file_bytes_equal_stdout_text(self, tmp_path, chunk_rows):
        # a file gets the bytes of the block, stdout their text
        x = hard_floats()
        if chunk_rows == 1:
            x = x[::8]
        columns = (np.arange(x.size), x, -x)
        out = tmp_path / "h.csv"
        with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows):
            cli._write_csv(str(out), "h\n", lambda a, b: [c[a:b] for c in columns], 0, x.size)
        assert out.read_bytes() == written(chunk_rows, *columns).encode("ascii")

    @pytest.mark.parametrize("width, dtype", [(1, np.uint32), (2, np.uint8), (3, np.uint32),
                                              (9, np.uint32), (10, np.uint32), (17, np.int64)])
    def test_digits(self, width, dtype):
        top = min(10 ** width, int(np.iinfo(dtype).max) + 1)
        edges = [v for v in (0, 1, 9, 10, 10**8 - 1, 10**8, 10**9 - 1, top - 1) if v < top]
        v = np.concatenate([np.array(edges, dtype=dtype),
                            np.random.default_rng(29).integers(0, top, 2000, dtype=dtype)])
        rows = np.empty((width, v.size), dtype=np.uint8)
        cli._digits(v, rows)
        assert [col.tobytes().decode() for col in rows.T] == [str(i).zfill(width) for i in v.tolist()]

    # exact 17-digit ties k / 2**m, with whether D (the 17 digits rounded down) is odd
    @pytest.mark.parametrize("x, odd", [(131073 / 2**17, False), (131075 / 2**17, True),
                                        (26215 / 2**18, True), (409600001 / 4096, False)])
    def test_half_even_ties(self, x, odd):
        y = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert y - math.floor(y) == Fraction(1, 2) and math.floor(y) % 2 == odd
        assert written(5, np.arange(2), np.array([x, -x])) == per_line_csv(["h"], [[0, x], [1, -x]])

    @pytest.mark.parametrize("x", [1e-176, 1e-14, 1e98, 1e129])
    def test_rounding_carry_into_the_next_decade(self, x):
        # x lies below 10**k, and its 17 digits round up to 10**k
        k = round(math.log10(x))
        assert Fraction(x) < Fraction(10) ** k and f"{x:.17g}" == f"1e{k:+03d}"
        assert written(5, np.arange(2), np.array([x, -x])) == per_line_csv(["h"], [[0, x], [1, -x]])

    def test_float_cells_temporaries(self):
        # one block of two float columns of 4096 rows; its cells take 0.2 MB
        x = np.random.default_rng(23).uniform(-2.5, 2.0, 8192)
        cli._powers_of_ten()  # the table is built once per process, before the trace
        tracemalloc.start()
        try:
            cli._float_cells(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 2 ** 20


class TestCsvEdgeRows:
    def test_structural_one_point(self, capsys):
        assert run_cli(["sequence", "--structural", "--n", "1"]) == 0
        assert capsys.readouterr().out == "n,angle_turns,extremal_value\n0,0,\n"

    def test_series_n_max_one_is_refused(self, capsys):
        assert run_cli(["series", "--kind", "W_subcritical", "--s", "0.5", "--n-max", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "need n_max >= 2" in captured.err

    def test_series_one_row(self, capsys):
        # W1_critical starts at N = 2, so --n-max 2 gives one row
        assert run_cli(["series", "--kind", "W1_critical", "--s", "1", "--n-max", "2"]) == 0
        series = normalized_series("W1_critical", 1.0, 2)
        assert series.n.tolist() == [2]
        assert capsys.readouterr().out == per_line_csv(["N", "value"], [[2, float(series.values[0])]])

    def test_numerical_stdout_equals_file(self, tmp_path):
        args = ["sequence", "--numerical", "--s", "0.5", "--initial", "0,0.1,0.37", "--n", "40"]
        out = tmp_path / "run.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run_cli(args) == 0
        assert buf.getvalue() == out.read_text()


class TestConstants:
    def test_s2(self, capsys):
        assert run_cli(["constants", "--s", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["limsup"] == pytest.approx(0.25, rel=1e-13)

    def test_s1(self, capsys):
        assert run_cli(["constants", "--s", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["first_order"] == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_s0(self, capsys):
        assert run_cli(["constants", "--s", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["i_sigma"] == 0.0

    def test_stable_key_order(self, capsys):
        run_cli(["constants", "--s", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == [
            "s", "regime", "i_sigma", "zeta", "first_order",
            "limsup", "liminf_lower", "liminf_upper",
        ]


class TestTheta:
    def test_csv(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert run_cli(["theta", "--p", "3", "--max-bits", "3", "--format", "csv",
                        "--s", "0.5", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["M"] for r in rows] == ["1", "3", "5", "7"]
        assert rows[1]["components"] == "2/3|1/3|0"

    # the JSON count is a sum of binomials; the list it replaces is the reference
    @pytest.mark.parametrize("p, bits", [(1, 5), (3, 7), (7, 7), (9, 7), (16, 12)] + [
        (p, b) for p in range(1, 8) for b in range(1, 12) if (p, b) not in {(1, 5), (3, 7), (7, 7)}])
    def test_json_count(self, capsys, p, bits):
        assert run_cli(["theta", "--p", str(p), "--max-bits", str(bits)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == len(enumerate_theta(p, bits))

    def test_json_rejects_bad_sizes(self, capsys):
        assert run_cli(["theta", "--p", "0"]) == 2
        assert run_cli(["theta", "--max-bits", "0"]) == 2
        err = capsys.readouterr().err
        assert "need p >= 1, got 0" in err and "need max_bits >= 1, got 0" in err

    def test_json_search(self, capsys):
        assert run_cli(["theta", "--p", "8", "--max-bits", "8", "--s", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g_search"]["inf_found"] <= 0.34
        assert payload["lambda_search"]["inf_found"] <= -1.2

    def test_json_keys_are_record_fields(self, capsys):
        assert run_cli(["theta", "--max-bits", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["p", "max_bits", "s", "count", "lambda_search", "g_search"]
        fields = [f.name for f in dataclasses.fields(LambdaSearchResult)]
        assert list(payload["lambda_search"]) == fields == ["inf_found", "witness_m", "family_inf"]
        fields = [f.name for f in dataclasses.fields(GSearchResult)]
        assert list(payload["g_search"]) == fields == [
            "sup_found", "inf_found", "sup_witness_m", "inf_witness_m", "family_sup", "family_inf",
        ]

    @pytest.mark.parametrize("args", [["--max-bits", "22"],
                                      ["--format", "csv", "--p", "1", "--max-bits", "22"],
                                      ["--max-bits", "1000000000000"],
                                      ["--format", "csv", "--p", "1", "--max-bits", "1000000000000"]])
    def test_budget_exit(self, capsys, args):
        # at once: the budget is checked without building the 2**(max_bits - 1) count
        start = time.perf_counter()
        assert run_cli(["theta", *args]) == 3
        assert time.perf_counter() - start < 5.0
        assert f"odd M count 2**{int(args[-1]) - 1} exceeds the compute budget" in capsys.readouterr().err

    def test_budget_boundary_runs(self, capsys):
        assert run_cli(["theta", "--format", "csv", "--p", "1", "--max-bits", "21"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,1,1,1,1,0"]


# Every subcommand that reads --s, both sequence modes also at n = 1 and series
# for every kind; each is run with every bad exponent below.
_S_COMMANDS = [
    ["sequence", "--structural"],
    ["sequence", "--numerical"],
    ["series", "--kind", "W_supercritical"],
    ["constants"],
    ["verify"],
    ["sequence", "--structural", "--n", "1"],
    ["sequence", "--numerical", "--n", "1"],
    *(["series", "--kind", kind] for kind in analysis.SERIES_KINDS if kind != "W_supercritical"),
]


def _refused_without_output(tmp_path, capsys, args, message):
    """args exits 2 with the one error line, to stdout and with an output path,
    and writes nothing: no stdout and no output file."""
    out = tmp_path / "out"
    for extra in ([], ["--json-out" if args[0] == "verify" else "--out", str(out)]):
        assert run_cli([*args, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [[*cmd, "--s", s] for s in ("inf", "nan", "-1") for cmd in _S_COMMANDS])
def test_infinite_exponent_exits_2(tmp_path, capsys, args):
    # not only inf: every s outside [0, inf) gets the exponent's one message
    s = float(args[-1])
    _refused_without_output(tmp_path, capsys, args, f"Riesz exponent must be finite and >= 0, got {s}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("s", ["inf", "nan", "0", "-1"])
def test_theta_refuses_bad_exponent(tmp_path, capsys, fmt, s):
    args = ["theta", "--s", s, "--max-bits", "4", "--format", fmt]
    _refused_without_output(tmp_path, capsys, args, f"Riesz exponent must be finite and > 0, got {float(s)}")


@pytest.mark.parametrize("call, message", [
    (lambda: star_discrepancy([]), "need at least one sample"),
    (lambda: pairwise_sum(np.zeros((2, 2))), "pairwise_sum expects a 1-d array"),
    (lambda: Configuration.from_turns([[0.1]]), "turn angles must form a 1-d sequence"),
    (["sequence", "--numerical", "--initial", ","], "no initial angles given"),
], ids=["star_discrepancy-empty", "pairwise_sum-2d", "from_turns-2d", "sequence-initial-comma"])
def test_argument_guards(tmp_path, capsys, call, message):
    if isinstance(call, list):  # a command line: exit 2 with the one error line
        _refused_without_output(tmp_path, capsys, call, message)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("s", ["1e-16", "390", "1e308"])
def test_constants_finite_at_extreme_exponents(capsys, s):
    # 2**s - 1 is 0 in floats up to s = 1.6e-16, and (2*pi)**s overflows from s = 387 on
    assert run_cli(["constants", "--s", s]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert catalog["regime"] == ("subcritical" if float(s) < 1 else "supercritical")
    assert all(math.isfinite(v) for v in catalog.values() if isinstance(v, float))


@pytest.mark.parametrize("s, n", [("400", "64"), ("1e308", "8"), ("400", "2048")])
def test_numerical_refuses_overflowing_potential(tmp_path, capsys, s, n):
    # all-inf potentials would tie, and the tie rule would pick the points (at n = 2048
    # a point already taken, which the configuration refused as coincident)
    _refused_without_output(tmp_path, capsys, ["sequence", "--numerical", "--s", s, "--n", n],
                            f"the running potential overflows float64 at s={float(s)}, N={n}")


@pytest.mark.filterwarnings("error")  # the one error line, no RuntimeWarning
@pytest.mark.parametrize("args, message", [
    (["sequence", "--structural", "--s", "400", "--n", "64"],
     "the running potential overflows float64 at s=400.0, N=63"),
    (["series", "--kind", "extremal", "--s", "400", "--n-max", "64"],
     "the running potential overflows float64 at s=400.0, N=64"),
    (["series", "--kind", "W_supercritical", "--s", "1e308", "--n-max", "8"],
     "the midpoint potential overflows float64 at s=1e+308, N=8"),
])
def test_closed_forms_refuse_overflowing_potential(tmp_path, capsys, args, message):
    # the rows would read inf or nan
    _refused_without_output(tmp_path, capsys, args, message)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["W_supercritical", "extremal"])
def test_supercritical_rows_where_n_power_overflows(tmp_path, kind):
    # N**400 overflows from N = 6 on while U_N stays finite: the rows are the
    # quotients, down to about 5e-292, not 0
    out = tmp_path / "s.csv"
    assert run_cli(["series", "--kind", kind, "--s", "400", "--n-max", "8", "--out", str(out)]) == 0
    got = [float(r["value"]) for r in csv.DictReader(out.read_text().splitlines())]
    assert len(got) == 8
    angles = structural_angles(9)
    with mp.workdps(40):
        for n, value in enumerate(got, start=1):
            if kind == "W_supercritical":  # the midpoint chords 2 sin((2k-1) pi/(2N))
                chords = [2 * mp.sin((2 * k - 1) * mp.pi / (2 * n)) for k in range(1, n + 1)]
            else:  # the chords from a_N to the structural points before it
                chords = [abs(2 * mp.sin(mp.pi * (mp.mpf(angles[n]) - mp.mpf(a)))) for a in angles[:n]]
            want = mp.fsum(c ** -400 for c in chords) / mp.mpf(n) ** 400
            assert value == pytest.approx(float(want), rel=1e-12)


class TestFigure:
    def test_fig1_exact_ones(self, tmp_path, capsys):
        assert run_cli(["figure", "--id", "1", "--out-dir", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "fig1.csv").open()))
        assert len(rows) == 5000
        assert rows[1022]["N"] == "1023" and rows[1022]["value"] == "1"
        assert rows[4094]["N"] == "4095" and rows[4094]["value"] == "1"

    def test_fig2_negative(self, tmp_path):
        assert run_cli(["figure", "--id", "2", "--out-dir", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("fig2_*.csv"))
        assert names == [
            "fig2_s0.001.csv", "fig2_s0.1.csv", "fig2_s0.3.csv",
            "fig2_s0.5.csv", "fig2_s0.7.csv", "fig2_s0.99.csv",
        ]
        for name in names:
            vals = [float(r["value"]) for r in csv.DictReader((tmp_path / name).open())]
            assert len(vals) == 2048
            assert all(v < 0.0 for v in vals)

    def test_fig4_positive(self, tmp_path):
        assert run_cli(["figure", "--id", "4", "--out-dir", str(tmp_path)]) == 0
        for s in ("1.005", "1.5", "3.5", "5"):
            vals = [float(r["value"]) for r in csv.DictReader((tmp_path / f"fig4_s{s}.csv").open())]
            assert len(vals) == 2048
            assert all(v > 0.0 for v in vals)

    def test_unknown_id(self):
        assert run_cli(["figure", "--id", "9"]) == 2

    @pytest.mark.parametrize("fig_id", sorted(FIGURE_GRIDS))
    def test_files_are_the_extremal_series(self, tmp_path, capsys, fig_id):
        assert run_cli(["figure", "--id", str(fig_id), "--out-dir", str(tmp_path)]) == 0
        s_values, n_max = FIGURE_GRIDS[fig_id]
        for s in s_values:
            name = f"fig{fig_id}.csv" if len(s_values) == 1 else f"fig{fig_id}_s{s:g}.csv"
            rows = list(csv.DictReader((tmp_path / name).open()))
            expected = normalized_series("extremal", s, n_max).values
            assert [r["N"] for r in rows] == [str(k) for k in range(1, n_max + 1)]
            assert [r["value"] for r in rows] == ["%.17g" % v for v in expected]


class TestSeries:
    def test_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["series", "--kind", "T_critical", "--s", "1", "--n-max", "64",
                        "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["N"] == "1"
        assert len(rows) == 64

    def test_regime_mismatch(self):
        assert run_cli(["series", "--kind", "W_subcritical", "--s", "2", "--n-max", "64"]) == 2

    @pytest.mark.parametrize("fig_id, s", [(1, 0.0), (2, 0.3), (3, 1.0), (4, 3.5)])
    def test_extremal_equals_figure_file(self, tmp_path, capsys, fig_id, s):
        s_values, n_max = FIGURE_GRIDS[fig_id]
        assert run_cli(["figure", "--id", str(fig_id), "--out-dir", str(tmp_path)]) == 0
        name = f"fig{fig_id}.csv" if len(s_values) == 1 else f"fig{fig_id}_s{s:g}.csv"
        out = tmp_path / "series.csv"
        assert run_cli(["series", "--kind", "extremal", "--s", repr(s), "--n-max", str(n_max),
                        "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("kind", ["log_ratio", "second_order_1"])
    def test_old_extremal_kinds_are_rejected(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            run_cli(["series", "--kind", kind, "--s", "1", "--n-max", "64"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestVerify:
    def test_small_pass(self, capsys):
        assert run_cli(["verify", "--n-max", "64", "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_s2_exactness_line(self, capsys):
        run_cli(["verify", "--n-max", "64", "--s", "2"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "supercritical-quarter" in l)
        assert "[PASS]" in line

    def test_budget_exit(self):
        assert run_cli(["verify", "--n-max", str((1 << 20) + 1)]) == 3

    def test_vanishing_exponent_gives_a_report(self, capsys):
        # 2**s - 1 is 0 in floats below s = 1.6e-16; the window bounds take
        # 2**s/(2**s - 1) as 1/(1 - 2**(-s)), which stays finite
        assert run_cli(["verify", "--s", "1e-20", "--n-max", "64"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAILURES present"
        assert len(lines) == 25 and all(l.startswith(("[PASS] ", "[FAIL] ")) for l in lines[:-1])
        assert any(l.startswith("[PASS] subcritical-window[s=1e-20]: ") for l in lines)

    def test_default_grid_is_verify_alls(self, monkeypatch, capsys):
        default = inspect.signature(analysis.verify_all).parameters["s_grid"].default
        with pytest.raises(SystemExit):
            run_cli(["verify", "--help"])
        grid = ",".join(f"{s:g}" for s in default)
        assert f"default grid {grid})" in " ".join(capsys.readouterr().out.split())
        calls = []
        monkeypatch.setattr(analysis, "verify_all", lambda **kw: calls.append(kw) or VerificationReport())
        run_cli(["verify", "--n-max", "64"])
        run_cli(["verify", "--n-max", "64", "--s", "2"])
        assert calls == [{"n_max": 64}, {"n_max": 64, "s_grid": [2.0]}]

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli(["verify", "--n-max", "64", "--s", "2", "--json-out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True
