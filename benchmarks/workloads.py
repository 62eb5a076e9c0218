"""The benchmark's workloads: the CLI tasks each one runs and how each output is checked.

A task is one ``lejacircle.cli.main(argv)`` call.  The seed only generates
inputs (initial turns); the program never sees it.  Every check compares the
output with an independent reference (``reference.py``, ``certify.py``) and
returns an outcome dict with ``ok`` (the output is what the program promises)
and ``detail``.  Greedy tasks also report ``nongreedy_steps`` and
``structural_miss``: the documented greedy defect, counted on every run and
kept apart from ``ok``.
"""

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import certify
import reference

WORKLOADS = ("greedy-generic", "greedy-symmetric", "series", "verify")

# Geometry of the generalized-greedy acceptance fixture, rotated per seed.
GENERIC_SHAPE = (0.0, 0.1, 0.37)
GENERIC_N = 256
GENERIC_S = (0.0, 0.5)
SYMMETRIC_N = 128
SYMMETRIC_S = (0.5, 1.0, 2.0)
# A seed-drawn start on the grid k / 2**20 keeps every rotated distance exact,
# so the greedy stays on the structural track, where all gaps tie at dyadic
# stages, and does the same work for every seed.  A free start may leave the
# track (the greedy defect) and so cut its task's work by up to 60%, which
# made pass times depend on the seed more than on the program.  The documented
# off-track start shows the defect on every run instead.
SYMMETRIC_GRID_BITS = 20
OFF_TRACK_START = 0.3137
# Relative gap to a reference that counts as a miss.
REL_TOL = 1e-9

FIGURES = {
    1: ("log_ratio", [0.0], 5000),
    2: ("second_order_subcritical", [0.001, 0.1, 0.3, 0.5, 0.7, 0.99], 2048),
    3: ("second_order_1", [1.0], 2048),
    4: ("first_order_supercritical", [1.005, 1.5, 3.5, 5.0], 2048),
}


@dataclass
class Task:
    label: str
    argv: list
    check: object
    files: list = field(default_factory=list)


def _fail(detail):
    return {"ok": False, "detail": detail}


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _greedy_check(initial, s, n, structural):
    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        rows = _csv_rows(out["files"]["seq.csv"], "n,angle_turns,extremal_value")
        if [int(r[0]) for r in rows] != list(range(n)):
            return _fail("row indices are not 0..N-1")
        angles = np.array([float(r[1]) for r in rows])
        if np.any(angles < 0.0) or np.any(angles >= 1.0):
            return _fail("angle outside [0, 1)")
        if not np.array_equal(angles[: len(initial)], np.array(initial) % 1.0):
            return _fail("initial turns not reproduced")
        if rows[0][2] != "":
            return _fail("row 0 carries a value")
        values = np.array([float(r[2]) for r in rows[1:]])
        actual = np.array([certify.potential(angles[k:k + 1], angles[:k], s)[0]
                           for k in range(1, n)])
        scale = np.maximum(np.abs(actual), 1.0)
        worst = float(np.max(np.abs(values - actual) / scale))
        if worst > REL_TOL:
            return _fail(f"reported value differs from the potential at its point by {worst:.2e}")
        cert = certify.certify_run(angles, len(initial), s)
        if cert["below_lower_bound"]:
            return _fail(f"{cert['below_lower_bound']} points below the certified minimum")
        outcome = {"ok": True, "nongreedy_steps": cert["nongreedy_steps"], "structural_miss": 0}
        detail = (f"nongreedy={cert['nongreedy_steps']} first={cert['first_nongreedy']} "
                  f"worst_excess={cert['worst_excess']:.2e}")
        if structural:
            ref = reference.structural_values(n - 1, s)[1:]
            gap = float(np.max(np.abs(values - ref) / np.abs(ref)))
            outcome["structural_miss"] = int(gap > REL_TOL)
            detail += f" structural_gap={gap:.2e}"
        outcome["detail"] = detail
        return outcome

    return check


def _greedy_task(initial, s, n, structural):
    text = ",".join(repr(x) for x in initial)
    return Task(
        label=f"sequence --numerical s={s:g} n={n} initial={text}",
        argv=["sequence", "--numerical", "--n", str(n), "--s", repr(s),
              "--initial", text, "--out", "{seq.csv}"],
        check=_greedy_check(initial, s, n, structural),
        files=["seq.csv"],
    )


def _check_structural_sequence(n, s):
    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        text = out["files"]["seq.csv"]
        head, first, rest = text.split("\n", 2)
        if head != "n,angle_turns,extremal_value" or first != "0,0,":
            return _fail("bad header or first row")
        table = np.loadtxt(rest.splitlines(), delimiter=",", ndmin=2)
        if table.shape != (n - 1, 3) or not np.array_equal(table[:, 0], np.arange(1, n)):
            return _fail(f"expected {n - 1} valued rows, got shape {table.shape}")
        if not np.array_equal(table[:, 1], reference.structural_angles(n)[1:]):
            return _fail("angles differ from the bit-reversal sequence")
        ref = reference.structural_values(n - 1, s)[1:]
        gap = float(np.max(np.abs(table[:, 2] - ref) / ref))
        if gap > 1e-12:
            return _fail(f"extremal values differ from the reference by {gap:.2e}")
        return {"ok": True, "detail": f"max rel gap {gap:.2e}"}

    return check


def _series_rows(text):
    rows = _csv_rows(text, "N,value")
    return np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def _gap_outcome(got, ref, tol):
    gap = float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))
    if gap > tol:
        return {"ok": False, "gap": gap, "detail": f"values differ from the reference by {gap:.2e}"}
    return {"ok": True, "gap": gap, "detail": f"max gap {gap:.2e}"}


def _check_w_series(s, n_max):
    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        n, got = _series_rows(out["files"]["series.csv"])
        if not np.array_equal(n, np.arange(1, n_max + 1)):
            return _fail("unexpected N column")
        # An O(N^2) reference for every row costs more than the task itself,
        # so check a fixed sample: all small N, every power of two, and a grid.
        sample = np.array(sorted(set(range(1, 65)) | {1 << k for k in range(n_max.bit_length())}
                                 | set(np.linspace(1, n_max, 128, dtype=int).tolist())))
        i_s = reference.continuous_energy(s)
        ref = np.array([(reference.midpoint_potential(k, s) - k * i_s) / k ** s
                        for k in sample.tolist()])
        return _gap_outcome(got[sample - 1], ref, 1e-9)

    return check


def _figure_reference(kind, s, n_max):
    if kind == "log_ratio":
        n = np.arange(1, n_max + 1)
        return np.array([bin(k).count("1") / math.log2(k + 1) for k in n])
    u = reference.structural_values(n_max, s)[1:]
    nf = np.arange(1, n_max + 1, dtype=np.float64)
    if kind == "second_order_subcritical":
        return (u - nf * reference.continuous_energy(s)) / nf ** s
    if kind == "second_order_1":
        return (u - nf * np.log(nf) / math.pi) / nf
    return u / nf ** s


def _figure_files(fig_id):
    _, s_values, _ = FIGURES[fig_id]
    if len(s_values) == 1:
        return [f"fig{fig_id}.csv"]
    return [f"fig{fig_id}_s{s:g}.csv" for s in s_values]


def _check_figure(fig_id):
    kind, s_values, n_max = FIGURES[fig_id]

    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        worst = 0.0
        for name, s in zip(_figure_files(fig_id), s_values):
            n, got = _series_rows(out["files"][name])
            if not np.array_equal(n, np.arange(1, n_max + 1)):
                return _fail(f"{name}: unexpected N column")
            res = _gap_outcome(got, _figure_reference(kind, s, n_max), 1e-9)
            if not res["ok"]:
                return _fail(f"{name}: {res['detail']}")
            worst = max(worst, res["gap"])
        return {"ok": True, "detail": f"max gap {worst:.2e}"}

    return check


def _check_constants(s, max_bits=16):
    """Check of ``constants --s S`` for S = 0.5 (zeta(1/2) is tabulated) or S = 1."""

    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        got = json.loads(out["stdout"])
        _, g, lam = reference.theta_functionals(max_bits, s)
        fam_g, fam_lam = reference.family_functionals(s)
        if s == 1.0:
            level = (reference.EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi
            lam_ub = min(float(lam.min()), min(fam_lam), -2.0 * math.log(2.0))
            want = {
                "s": s, "regime": "critical", "i_sigma": None, "zeta": None,
                "first_order": 1.0 / math.pi, "limsup": level,
                "liminf_lower": level + (-2.0 / math.e - 2.0 * math.log(2.0)) / math.pi,
                "liminf_upper": level + lam_ub / math.pi,
            }
        else:
            c = reference.second_order_scale(s, reference.ZETA_HALF)
            g_lb = max(float(g.max()), max(fam_g), 1.0 / (2.0 ** s - 1.0))
            want = {
                "s": s, "regime": "subcritical", "i_sigma": reference.continuous_energy(s),
                "zeta": reference.ZETA_HALF, "first_order": reference.continuous_energy(s),
                "limsup": c, "liminf_lower": 2.0 ** s / (2.0 ** s - 1.0) * c,
                "liminf_upper": g_lb * c,
            }
        return _compare_json(got, want)

    return check


def _compare_json(got, want):
    if set(got) != set(want):
        return _fail(f"keys {sorted(got)} != {sorted(want)}")
    for key, w in want.items():
        v = got[key]
        if isinstance(w, float) and isinstance(v, (int, float)):
            if not reference.close(v, w, rel=1e-10):
                return _fail(f"{key}: {v!r} != {w!r}")
        elif v != w:
            return _fail(f"{key}: {v!r} != {w!r}")
    return {"ok": True, "detail": "all fields match"}


def _check_theta(p=16, max_bits=16, s=0.5):
    def check(out):
        if out["exit_code"] != 0:
            return _fail(f"exit code {out['exit_code']}")
        got = json.loads(out["stdout"])
        m, g, lam = reference.theta_functionals(max_bits, s)
        fam_g, fam_lam = reference.family_functionals(s)
        want = {"p": p, "max_bits": max_bits, "s": s, "count": int(m.size)}
        for key, w in want.items():
            if got.get(key) != w:
                return _fail(f"{key}: {got.get(key)!r} != {w!r}")
        lam_s, g_s = got["lambda_search"], got["g_search"]
        pairs = [
            (lam_s["inf_found"], float(lam.min())), (lam_s["family_inf"], min(fam_lam)),
            (g_s["sup_found"], float(g.max())), (g_s["inf_found"], float(g.min())),
            (g_s["family_sup"], max(fam_g)), (g_s["family_inf"], min(fam_g)),
            # each witness attains its extreme
            (float(lam[(lam_s["witness_m"] - 1) // 2]), float(lam.min())),
            (float(g[(g_s["sup_witness_m"] - 1) // 2]), float(g.max())),
            (float(g[(g_s["inf_witness_m"] - 1) // 2]), float(g.min())),
        ]
        for got_v, ref_v in pairs:
            if not reference.close(got_v, ref_v, rel=1e-12):
                return _fail(f"search value {got_v!r} != reference {ref_v!r}")
        return {"ok": True, "detail": f"{m.size} vectors, extremes match"}

    return check


def _check_verify(out):
    lines = out["stdout"].splitlines()
    checks = [line for line in lines if line.startswith(("[PASS]", "[FAIL]"))]
    failed = sum(line.startswith("[FAIL]") for line in checks)
    outcome = {"checks": len(checks), "checks_failed": failed}
    summary = lines[-1] if lines else ""
    if not checks or summary != ("all checks passed" if failed == 0 else "FAILURES present"):
        return {**outcome, "ok": False, "detail": "malformed report"}
    if out["exit_code"] != (0 if failed == 0 else 1):
        return {**outcome, "ok": False, "detail": f"exit code {out['exit_code']}"}
    outcome["ok"] = failed == 0
    outcome["detail"] = f"{len(checks)} checks, {failed} failed"
    return outcome


def build(workload, seed):
    """Task list of a workload for one seed."""
    rng = random.Random(seed)
    if workload == "greedy-generic":
        phi = round(rng.random(), 6)
        initial = [round((phi + x) % 1.0, 9) for x in GENERIC_SHAPE]
        return [_greedy_task(initial, s, GENERIC_N, False) for s in GENERIC_S]
    if workload == "greedy-symmetric":
        starts = [rng.randrange(1 << SYMMETRIC_GRID_BITS) / (1 << SYMMETRIC_GRID_BITS),
                  OFF_TRACK_START]
        return [_greedy_task([x0], s, SYMMETRIC_N, True) for x0 in starts for s in SYMMETRIC_S]
    if workload == "series":
        n_seq = 1 << 20
        tasks = [
            Task("sequence --structural --n 1048576",
                 ["sequence", "--structural", "--n", str(n_seq), "--out", "{seq.csv}"],
                 _check_structural_sequence(n_seq, 0.5), ["seq.csv"]),
            Task("series --kind W_subcritical --s 0.5 --n-max 16384",
                 ["series", "--kind", "W_subcritical", "--s", "0.5", "--n-max", "16384",
                  "--out", "{series.csv}"],
                 _check_w_series(0.5, 16384), ["series.csv"]),
        ]
        for fig_id in FIGURES:
            tasks.append(Task(f"figure --id {fig_id}",
                              ["figure", "--id", str(fig_id), "--out-dir", "{.}"],
                              _check_figure(fig_id), _figure_files(fig_id)))
        tasks.append(Task("constants --s 0.5", ["constants", "--s", "0.5"], _check_constants(0.5)))
        tasks.append(Task("constants --s 1", ["constants", "--s", "1"], _check_constants(1.0)))
        tasks.append(Task("theta", ["theta"], _check_theta()))
        return tasks
    if workload == "verify":
        return [Task("verify", ["verify"], _check_verify)]
    raise ValueError(f"unknown workload {workload!r}")
