"""Byte identity of the CLI outputs: one committed list of invocations and their sha256.

    python tools/golden.py --write   # record every output in tools/golden.json
    python tools/golden.py --check   # rerun the list; exit 1 if any output's bytes changed

Each invocation runs ``python -m lejacircle`` as a fresh process with the
package's ``src`` first on PYTHONPATH, in an empty temporary directory. Its
stdout and every file it writes there are outputs, recorded by sha256 and
size under the name ``<invocation>/stdout`` or ``<invocation>/<file>``, and
the record keeps each invocation's wall time in seconds.

The record starts with a header naming Python, numpy, the SIMD features
numpy dispatches to (the ``found`` list of ``numpy.show_runtime()``), the
machine and the CPU model. numpy's float64 sin, cos and power may round
differently on another CPU or build, and its power follows the dispatched
kernel, so ``--check`` prints the header fields that differ first: a changed
output is then a finding about the environment, not necessarily about the
code. The child processes inherit this process's environment, so
``OPENBLAS_NUM_THREADS=2 python tools/golden.py --check`` checks the outputs
under that BLAS threading.

``run_here`` runs an invocation in the calling process instead, with the
same outputs; the tier-1 suite uses it for the ``FAST`` invocations.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "golden.json"

_NUMERICAL = [
    (f"sequence-numerical-s{s}{tag}", ["sequence", "--numerical", "--n", "256", "--s", s, *extra])
    for s in ("0", "0.5", "1", "2")
    for tag, extra in (("", []), ("-initial", ["--initial", "0,0.1,0.37"]))
]
_SERIES = [
    (f"series-{kind}-s{s}", ["series", "--kind", kind, "--s", s, "--n-max", "2048"])
    for kind, s in (("extremal", "0"), ("extremal", "0.5"), ("extremal", "1"), ("extremal", "2"),
                    ("R_subcritical", "0.5"), ("W_subcritical", "0.5"), ("W1_critical", "1"),
                    ("T_critical", "1"), ("W_supercritical", "1.5"), ("W_supercritical", "3"))
]
# (name, arguments); names are unique and each output is recorded under one
INVOCATIONS = [
    ("sequence-defaults", ["sequence"]),
    ("sequence-structural-2^20", ["sequence", "--structural", "--n", "1048576"]),
    *_NUMERICAL,
    *_SERIES,
    ("series-W_subcritical-s0.5-16384", ["series", "--kind", "W_subcritical", "--s", "0.5",
                                         "--n-max", "16384"]),
    *[(f"figure-{k}", ["figure", "--id", str(k)]) for k in (1, 2, 3, 4)],
    *[(f"constants-s{s}", ["constants", "--s", s]) for s in ("0", "0.5", "1", "2")],
    ("theta-json", ["theta"]),
    ("theta-csv", ["theta", "--format", "csv"]),
    ("verify", ["verify", "--json-out", "report.json"]),
    ("verify-4096", ["verify", "--n-max", "4096", "--json-out", "report.json"]),
]
# The invocations that take about 1 s or less each in one process, about 2 s in all.
FAST = [name for name, _ in INVOCATIONS
        if name not in ("sequence-structural-2^20", "theta-csv", "verify-4096")]


def _simd_found() -> list:
    """The SIMD targets numpy dispatches to on this CPU, as ``numpy.show_runtime()`` lists them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def environment() -> dict:
    """Python, numpy and its dispatched SIMD features, the machine and the CPU model.

    The child processes run this interpreter with the same numpy.
    """
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": _simd_found(), "machine": platform.machine(), "cpu": cpu}


def differing_fields(recorded: dict, now: dict) -> list:
    """The header fields whose recorded and current values differ, sorted."""
    return sorted(key for key in set(recorded) | set(now) if recorded.get(key) != now.get(key))


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _outputs(name: str, stdout: bytes, work: str) -> dict:
    """name/stdout and name/<file> for every file written under work -> {sha256, bytes}."""
    outputs = {f"{name}/stdout": _digest(stdout)}
    for path in sorted(Path(work).rglob("*")):
        if path.is_file():
            outputs[f"{name}/{path.relative_to(work).as_posix()}"] = _digest(path.read_bytes())
    return outputs


def run(name: str, args: list) -> dict:
    """The outputs of one invocation, name -> {sha256, bytes}; a nonzero exit raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "lejacircle", *args], cwd=work, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        return _outputs(name, proc.stdout, work)


def run_here(name: str, args: list) -> dict:
    """``run`` in this process, through ``lejacircle.cli.main``; needs the package importable."""
    from lejacircle.cli import main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        stdout = io.StringIO()
        try:
            os.chdir(work)
            with contextlib.redirect_stdout(stdout):
                code = main(list(args))
        finally:
            os.chdir(home)
        if code != 0:
            raise RuntimeError(f"{name}: exit {code}")
        return _outputs(name, stdout.getvalue().encode("utf-8"), work)


def run_all() -> tuple:
    """The outputs of every invocation, and each invocation's wall time in seconds."""
    outputs, wall = {}, {}
    for name, args in INVOCATIONS:
        start = time.perf_counter()
        outputs.update(run(name, args))
        wall[name] = round(time.perf_counter() - start, 3)
    return outputs, wall


def check() -> int:
    """Rerun the list against the record; print the differences; 1 if any output changed."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    env = environment()
    differing = differing_fields(record["environment"], env)
    if differing:
        print("environment differs from the record; transcendental bits may differ with it")
        for key in differing:
            print(f"  {key}: recorded {record['environment'].get(key)!r}, now {env.get(key)!r}")
    outputs, wall = run_all()
    expected = record["outputs"]
    changed = [name for name in sorted(set(outputs) | set(expected))
               if outputs.get(name) != expected.get(name)]
    for name in changed:
        print(f"changed: {name}: recorded {expected.get(name)}, now {outputs.get(name)}")
    recorded_wall = sum(record.get("wall_s", {}).values())
    print(f"wall time {sum(wall.values()):.1f} s (recorded {recorded_wall:.1f} s)")
    print(f"{len(expected)} outputs recorded, {len(changed)} changed")
    return 1 if changed else 0


def write() -> int:
    outputs, wall = run_all()
    record = {"environment": environment(), "outputs": outputs, "wall_s": wall}
    RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{len(record['outputs'])} outputs written to {RECORD.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record every output in golden.json")
    mode.add_argument("--check", action="store_true", help="exit 1 if any output's bytes changed")
    args = parser.parse_args(argv)
    return write() if args.write else check()


if __name__ == "__main__":
    sys.exit(main())
