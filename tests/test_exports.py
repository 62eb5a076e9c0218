"""Every name a module lists in ``__all__`` exists, so a star import works."""

import importlib

import pytest


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
