"""lejacircle benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
greedy-generic, greedy-symmetric, series, verify.  The seed only generates
inputs.  Each run

1. times ``import lejacircle`` in fresh interpreters before and after the
   workload (``setup_s``, median);
2. runs the workload's tasks through ``lejacircle.cli.main`` in one worker
   process with BLAS pinned to one thread, pass after pass with cold memos,
   for about S seconds (``wall_s`` is one pass: the sum over tasks of each
   task's median time; ``peak_rss_mb`` the worker's peak RSS over its first
   pass);
3. with ``--trace 1``, alternates untraced and traced passes and reports the
   per-layer metrics of tracing.py instead;
4. checks every task's output against an independent reference, and that
   every pass produced byte-identical output.

Times (``setup_s``, ``wall_s``, the per-layer seconds) are in seconds at a
reference machine speed, measured alongside by speed.py; the measured
seconds are printed too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Greedy runs also print
``nongreedy_steps`` (appended points whose running potential exceeds the
certified global minimum by more than 1e-9 relative) and, on
greedy-symmetric, ``structural_misses``; verify prints ``checks_failed``.
These are counts of documented defects, printed on every run and not folded
into ``failed``, which counts crashes, non-zero exits and wrong outputs.

Run the benchmark's own tests with ``PYTHONPATH=src python3 -m pytest benchmarks``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
# Fresh imports timed before and again after the workload, to span its phases.
SETUP_REPEATS = 4
SETUP_CODE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t = time.perf_counter(); "
    "import lejacircle; t = time.perf_counter() - t; import speed; "
    "print(t, t * speed.REFERENCE_S / speed.kernel_seconds())"
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def measure_setup(src, deadline, repeats):
    """(seconds, reference-speed seconds) that fresh interpreters spend importing lejacircle."""
    code = SETUP_CODE.format(src=str(src), here=str(HERE))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=max(deadline - perf_counter(), 1))
        if proc.returncode != 0:
            raise RuntimeError(f"importing lejacircle failed:\n{proc.stderr}")
        samples.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return samples


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def check_outputs(tasks, passes, workdir):
    """Outcome of each task; a task fails in every pass if its checked output fails."""
    outcomes = []
    for i, task in enumerate(tasks):
        tdir = workdir / f"t{i}"
        runs = task_runs(passes, i)
        out = {
            "exit_code": runs[0]["exit_code"],
            "stdout": (tdir / "stdout.txt").read_text(encoding="utf-8"),
            "files": {},
        }
        for name in task.files:
            if (tdir / name).is_file():
                out["files"][name] = (tdir / name).read_text(encoding="utf-8")
        try:
            outcome = task.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            outcome = {"ok": False, "detail": f"unreadable output: {exc!r}"}
        if any(r["sha"] != runs[0]["sha"] or r["exit_code"] != out["exit_code"] for r in runs):
            outcome = {**outcome, "ok": False, "detail": "passes produced different outputs"}
        outcomes.append(outcome)
    return outcomes


def task_runs(passes, i):
    """Records of task i; the last untraced pass may have stopped before it."""
    return [p["tasks"][i] for p in passes if i < len(p["tasks"])]


def pass_seconds(passes, count, key):
    """One pass: the sum over the tasks of each task's median ``key`` time."""
    return sum(statistics.median(r[key] for r in task_runs(passes, i)) for i in range(count))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "lejacircle" / "__init__.py").is_file():
        print(f"error: no lejacircle sources under {src}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    measure_setup(src, deadline, 1)  # writes the bytecode cache on a first run
    setup = measure_setup(src, deadline, SETUP_REPEATS)
    tasks = workloads.build(args.workload, args.seed)
    spec = {
        "root": str(ROOT),
        "workdir": str(workdir),
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": [{"argv": t.argv, "files": t.files} for t in tasks],
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=child_env(), cwd=ROOT, timeout=deadline - perf_counter())
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    setup += measure_setup(src, deadline, SETUP_REPEATS)
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    passes = result["passes"]
    outcomes = check_outputs(tasks, passes, workdir)

    env = {**result["environment"], "commit": git_commit(ROOT)}
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for i, (task, outcome) in enumerate(zip(tasks, outcomes)):
        seconds = statistics.median(r["seconds"] for r in task_runs(passes, i))
        status = "ok" if outcome["ok"] else "FAILED"
        print(f"task {args.workload} #{i} [{status}] {seconds:.3f} s  {task.label}  "
              f"({outcome['detail']})")

    plain = [p for p in passes if p["mode"] == "plain"]
    wall_s = pass_seconds(plain, len(tasks), "norm_s")
    if args.trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in tracing.PER_LAYER if name != "trace_overhead_s"}
        metrics["trace_overhead_s"] = pass_seconds(traced, len(tasks), "norm_s") - wall_s
        units = tracing.PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(s for _, s in setup),
                   "wall_s": wall_s, "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END_UNITS
    whole = [p["norm_s"] for p in plain if len(p["tasks"]) == len(tasks)]
    q1, q3 = quartiles(whole)
    print(f"passes {args.workload} plain={len(whole)}+{len(plain) - len(whole)} partial "
          f"traced={len(passes) - len(plain)} whole-pass quartiles {q1:.4f} .. {q3:.4f} s; "
          f"measured pass {pass_seconds(plain, len(tasks), 'seconds'):.4f} s; "
          f"measured import median {statistics.median(s for s, _ in setup):.4f} s")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {units[name]}")

    counts = {}
    if args.workload.startswith("greedy"):
        counts["nongreedy_steps"] = sum(o.get("nongreedy_steps", 0) for o in outcomes)
    if args.workload == "greedy-symmetric":
        counts["structural_misses"] = sum(o.get("structural_miss", 0) for o in outcomes)
    if args.workload == "verify":
        counts["checks_failed"] = sum(o.get("checks_failed", 0) for o in outcomes)
    for name, value in counts.items():
        print(f"metric {args.workload} {name} {value} count")

    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(len(task_runs(passes, i)) for i, o in enumerate(outcomes) if not o["ok"])
    print(f"tasks {args.workload} attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
