"""Every name a module lists in ``__all__`` exists, so a star import works."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lejacircle


@pytest.mark.parametrize("module", ["analysis", "binary", "sequences", "special"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"lejacircle.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from lejacircle.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_theta_components_exported():
    import lejacircle
    from lejacircle import binary

    assert "theta_components" in binary.__all__
    assert lejacircle.theta_components is binary.theta_components


@pytest.mark.parametrize(
    "module", ["binary", "circle", "special", "sequences", "analysis", "cli", "summation"]
)
def test_submodule_imports_in_fresh_interpreter(module):
    # binary -> circle -> special -> binary is a cycle; each entry point must still import.
    src = str(Path(lejacircle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import lejacircle.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
