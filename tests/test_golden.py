"""Byte identity of the CLI outputs against the record of tools/golden.py.

The fast set runs as ``golden.run_here`` does; ``verify`` and its
``--json-out`` report are in it.  The 2**20-row structural sequence is
written to a file and compared by sha256 and length.  The theta CSV is left
to ``python tools/golden.py --check``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from lejacircle.cli import main

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _assert_kept(outputs, expected, environment):
    """outputs == expected, key by key.  numpy's sin and power may round otherwise
    on another CPU or build: where the environment header differs from the
    record, changed bytes are an expected failure that names the differing
    fields; equal bytes still pass."""
    changed = sorted(key for key in set(outputs) | set(expected)
                     if outputs.get(key) != expected.get(key))
    differing = golden.differing_fields(environment, golden.environment())
    if changed and differing:
        pytest.xfail(f"environment differs from golden.json in {', '.join(differing)}; "
                     f"{len(changed)} outputs changed, first {changed[0]}")
    assert changed == []


def test_fast_outputs_keep_their_bytes():
    record = json.loads(golden.RECORD.read_text(encoding="utf-8"))
    assert golden.FAST
    outputs = {}
    for name, args in golden.INVOCATIONS:
        if name in golden.FAST:
            outputs.update(golden.run_here(name, args))
    expected = {key: value for key, value in record["outputs"].items()
                if key.split("/", 1)[0] in golden.FAST}
    _assert_kept(outputs, expected, record["environment"])


def test_structural_sequence_2_20_keeps_its_bytes(tmp_path):
    # the one output whose rows cross all 256 windows of the doubling table;
    # written to a file, so the 48 MB of text are never held in memory
    record = json.loads(golden.RECORD.read_text(encoding="utf-8"))
    key = "sequence-structural-2^20/stdout"
    args = dict(golden.INVOCATIONS)[key.split("/")[0]]
    out = tmp_path / "seq.csv"
    assert main([*args, "--out", str(out)]) == 0
    digest = hashlib.sha256()
    with out.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    got = {"sha256": digest.hexdigest(), "bytes": out.stat().st_size}
    out.unlink()
    _assert_kept({key: got}, {key: record["outputs"][key]}, record["environment"])


def test_header_fields_that_differ_are_named():
    recorded = {"python": "3.11.7", "numpy": "2.4.6", "simd": ["X86_V3"], "cpu": "a"}
    now = {"python": "3.11.7", "numpy": "2.4.6", "simd": ["X86_V3", "X86_V4"], "cpu": "b"}
    assert golden.differing_fields(recorded, now) == ["cpu", "simd"]
    assert golden.differing_fields(recorded, dict(recorded)) == []
    header = golden.environment()
    assert {"python", "numpy", "simd", "machine", "cpu"} <= set(header)
    assert isinstance(header["simd"], list)
