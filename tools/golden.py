"""Byte identity of the CLI outputs: one committed list of invocations and their sha256.

    python tools/golden.py --write   # record every output in tools/golden.json
    python tools/golden.py --check   # rerun the list; exit 1 if any output's bytes changed

Each invocation runs ``python -m lejacircle`` as a fresh process with the
package's ``src`` first on PYTHONPATH, in an empty temporary directory. Its
stdout and every file it writes there are outputs, recorded by sha256 and
size under the name ``<invocation>/stdout`` or ``<invocation>/<file>``.

The record starts with a header naming Python, numpy, the machine and the
CPU model. numpy's float64 sin, cos and power may round differently on
another CPU or build, so ``--check`` prints the header first where it
differs: a changed output is then a finding about the environment, not
necessarily about the code. The child processes inherit this process's
environment, so ``OPENBLAS_NUM_THREADS=2 python tools/golden.py --check``
checks the outputs under that BLAS threading.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

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
]


def environment() -> dict:
    """Python, numpy, the machine and the CPU model, as the child processes see them."""
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "cpu": cpu}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(name: str, args: list) -> dict:
    """The outputs of one invocation, name -> {sha256, bytes}; a nonzero exit raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "lejacircle", *args], cwd=work, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        outputs = {f"{name}/stdout": _digest(proc.stdout)}
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                outputs[f"{name}/{path.relative_to(work).as_posix()}"] = _digest(path.read_bytes())
    return outputs


def run_all() -> dict:
    outputs = {}
    for name, args in INVOCATIONS:
        outputs.update(run(name, args))
    return outputs


def check() -> int:
    """Rerun the list against the record; print the differences; 1 if any output changed."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    env = environment()
    if env != record["environment"]:
        print("environment differs from the record; transcendental bits may differ with it")
        for key in sorted(set(env) | set(record["environment"])):
            print(f"  {key}: recorded {record['environment'].get(key)!r}, now {env.get(key)!r}")
    outputs = run_all()
    expected = record["outputs"]
    changed = [name for name in sorted(set(outputs) | set(expected))
               if outputs.get(name) != expected.get(name)]
    for name in changed:
        print(f"changed: {name}: recorded {expected.get(name)}, now {outputs.get(name)}")
    print(f"{len(expected)} outputs recorded, {len(changed)} changed")
    return 1 if changed else 0


def write() -> int:
    record = {"environment": environment(), "outputs": run_all()}
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
