"""Runs one workload's passes in-process and records what they did.

Usage: ``python3 benchmarks/worker.py SPEC.json``.  ``run.py`` writes the spec
(checkout root, work directory, seconds, trace flag and the task list) and
reads ``result.json`` back.  The worker imports ``lejacircle`` from the
checkout's ``src`` only, so its peak RSS is the workload's alone: checking the
outputs happens in the parent process after this one has exited.

Every pass starts with cold memos, as a fresh CLI invocation does.  Untraced
runs go on task by task until the spec's seconds are up: after one whole
pass, a task starts only if half of its median time so far still fits, so the
last pass may stop part way and no measuring time is left idle.  When
tracing, whole untraced and traced passes alternate while the next one is
expected to end in time, with at least one of each.  A speed probe (speed.py)
runs throughout, and each task's time is recorded both as measured and at
reference speed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from speed import SpeedProbe


def _sha(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _run_task(cli, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed task, not a failed benchmark
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def _run_pass(cli, tasks, memos, tracer, index, probe, may_start=None):
    """One pass over the tasks with cold memos; traced when a tracer is given.

    ``may_start(t)``, when given, is asked before each task; the pass ends at
    the first no.
    """
    for memo in memos.values():
        getattr(memo, "cache_clear", lambda: None)()
    if tracer:
        tracer.pass_index = index
        tracer.install()
    records = []
    try:
        for t, (argv, files, stdout_path) in enumerate(tasks):
            if may_start and not may_start(t):
                break
            if tracer:
                tracer.task = t
            start = perf_counter()
            code, out = _run_task(cli, argv)
            seconds, norm = probe.normalized(start, perf_counter())
            stdout_path.write_text(out, encoding="utf-8")
            records.append({
                "exit_code": code,
                "seconds": seconds,
                "norm_s": norm,
                "sha": [_sha(stdout_path)] + [_sha(f) if f.exists() else None for f in files],
            })
    finally:
        if tracer:
            tracer.uninstall()
    raw = sum(r["seconds"] for r in records)
    entry = {"mode": "traced" if tracer else "plain", "raw_s": raw,
             "norm_s": sum(r["norm_s"] for r in records), "tasks": records}
    if tracer:
        info = {name: memo.cache_info() if hasattr(memo, "cache_info") else None
                for name, memo in memos.items()}
        entry["layers"] = tracer.layer_metrics(index, info, entry["norm_s"] / raw if raw else 1.0)
    return entry


def environment():
    """What the workload ran on; BLAS threads are pinned by ``run.py``."""
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import lejacircle
    from lejacircle import circle, cli

    if Path(lejacircle.__file__).resolve().parent != (src / "lejacircle").resolve():
        raise ImportError(f"lejacircle imported from {lejacircle.__file__}, not {src}")
    memos = {name: getattr(circle, name) for name in tracing.MEMOS}
    work = Path(spec["workdir"])
    tasks = []
    for i, task in enumerate(spec["tasks"]):
        tdir = work / f"t{i}"
        tdir.mkdir(parents=True, exist_ok=True)
        argv = [str(tdir) if a == "{.}" else str(tdir / a[1:-1]) if a[:1] == "{" else a
                for a in task["argv"]]
        tasks.append((argv, [tdir / f for f in task["files"]], tdir / "stdout.txt"))

    tracer = tracing.Tracer() if spec["trace"] else None
    passes = []
    start = perf_counter()

    def task_fits(t):
        median = statistics.median(p["tasks"][t]["seconds"] for p in passes)
        return perf_counter() - start + median / 2 <= spec["seconds"]

    with SpeedProbe() as probe:
        passes.append(_run_pass(cli, tasks, memos, None, 0, probe))
        # one pass in a fresh process, whatever the pass count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            while True:
                traced = len(passes) % 2 == 1
                same = [p["raw_s"] for p in passes if (p["mode"] == "traced") == traced]
                expected = statistics.median(same) if same else 0.0
                if len(passes) >= 2 and perf_counter() - start + expected > spec["seconds"]:
                    break
                passes.append(_run_pass(cli, tasks, memos, tracer if traced else None,
                                        len(passes), probe))
        else:
            while task_fits(0):
                passes.append(_run_pass(cli, tasks, memos, None, len(passes), probe, task_fits))
                if len(passes[-1]["tasks"]) < len(tasks):
                    break
    if tracer:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
