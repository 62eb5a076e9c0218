"""Byte identity of the fast CLI outputs against the record of tools/golden.py.

The two slow entries (the 2**20-row sequence and the theta CSV) are left to
``python tools/golden.py --check``; ``verify`` and its ``--json-out`` report
are in the fast set.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_fast_outputs_keep_their_bytes():
    # numpy's sin and power may round otherwise on another CPU or build: where
    # the environment header differs from the record, changed bytes are an
    # expected failure that names the differing fields; equal bytes still pass
    record = json.loads(golden.RECORD.read_text(encoding="utf-8"))
    assert golden.FAST
    outputs = {}
    for name, args in golden.INVOCATIONS:
        if name in golden.FAST:
            outputs.update(golden.run_here(name, args))
    expected = {key: value for key, value in record["outputs"].items()
                if key.split("/", 1)[0] in golden.FAST}
    changed = sorted(key for key in set(outputs) | set(expected)
                     if outputs.get(key) != expected.get(key))
    differing = golden.differing_fields(record["environment"], golden.environment())
    if changed and differing:
        pytest.xfail(f"environment differs from golden.json in {', '.join(differing)}; "
                     f"{len(changed)} outputs changed, first {changed[0]}")
    assert changed == []


def test_header_fields_that_differ_are_named():
    recorded = {"python": "3.11.7", "numpy": "2.4.6", "simd": ["X86_V3"], "cpu": "a"}
    now = {"python": "3.11.7", "numpy": "2.4.6", "simd": ["X86_V3", "X86_V4"], "cpu": "b"}
    assert golden.differing_fields(recorded, now) == ["cpu", "simd"]
    assert golden.differing_fields(recorded, dict(recorded)) == []
    header = golden.environment()
    assert {"python", "numpy", "simd", "machine", "cpu"} <= set(header)
    assert isinstance(header["simd"], list)
