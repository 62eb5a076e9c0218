"""Every name a module lists in ``__all__`` exists, so a star import works."""

import ast
import graphlib
import importlib
import os
import re
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


def test_theta_components_is_gone():
    # a vector is its odd M; theta --format csv writes the components from decompose(M)
    from lejacircle import binary

    assert not hasattr(binary, "theta_components") and "theta_components" not in binary.__all__
    assert not hasattr(lejacircle, "theta_components")


@pytest.mark.parametrize("record, name", [
    ("GSearchResult", "best_sup_bound"),
    ("GSearchResult", "best_inf_bound"),
    ("LambdaSearchResult", "best_inf_bound"),
])
def test_search_bound_wrappers_are_gone(record, name):
    # limit_catalog takes the max/min of the record fields and the landmark itself
    from lejacircle import binary

    assert not hasattr(getattr(binary, record), name)


@pytest.mark.parametrize("name", ["kernel_values", "potential", "leja_sup_norm_log"])
def test_deleted_circle_helpers_are_gone(name):
    # prefix_potentials and chord_kernel(chord_lengths(...)) serve their callers
    from lejacircle import circle

    assert not hasattr(circle, name)
    assert not hasattr(lejacircle, name)


def test_gamma_fn_is_gone():
    # the closed forms call math.gamma
    from lejacircle import special

    assert not hasattr(special, "gamma_fn") and "gamma_fn" not in special.__all__
    assert not hasattr(lejacircle, "gamma_fn")


def test_extremal_series_is_gone():
    # the series of the figures is normalized_series("extremal", s, n_max)
    from lejacircle import analysis

    assert not hasattr(analysis, "extremal_series") and "extremal_series" not in analysis.__all__
    assert not hasattr(lejacircle, "extremal_series")


@pytest.mark.parametrize("name", ["_chunks", "_row_ranges"])
def test_csv_block_helpers_are_gone(name):
    # _write_csv cuts its own row range and asks a row source for each block
    from lejacircle import cli

    assert not hasattr(cli, name)


def test_float_carry_is_gone():
    # the CSV writer's 17 digits are one int64, with no float64 carry passes
    from lejacircle import cli

    assert not hasattr(cli, "_carry")


def test_catalog_to_dict_is_gone():
    # lejacircle constants writes dataclasses.asdict(catalog)
    assert not hasattr(lejacircle.ConstantsCatalog, "to_dict")


def _names(node):
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _outside_budget(flag):
    """'module:line what' for each node of the package's modules but budget.py that flag(node) names."""
    package = Path(lejacircle.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "budget":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            what = flag(node)
            if what:
                offenders.append(f"{path.stem}:{node.lineno} {what}")
    return offenders


def test_only_budget_module_guards_the_budget():
    # every size guard is a call to budget.require: no other module compares
    # with MAX_POINTS or raises BudgetExceededError itself
    def flag(node):
        if isinstance(node, ast.Compare) and "MAX_POINTS" in _names(node):
            return "compares with MAX_POINTS"
        if isinstance(node, ast.Raise) and node.exc and "BudgetExceededError" in _names(node.exc):
            return "raises BudgetExceededError"
        return None

    assert _outside_budget(flag) == []


def test_only_budget_module_guards_the_exponent():
    # every check that s is a finite Riesz exponent is a call to budget.exponent:
    # no other module compares with inf or raises the exponent's ValueError itself
    def flag(node):
        if isinstance(node, ast.Compare) and "inf" in _names(node):
            return "compares with inf"
        if isinstance(node, ast.Raise) and node.exc and any(
                isinstance(n, ast.Constant) and "Riesz exponent" in str(n.value) for n in ast.walk(node.exc)):
            return "raises the exponent's ValueError"
        return None

    assert _outside_budget(flag) == []


def test_only_budget_module_guards_sizes():
    # every check that a size is an integer at or above its floor is a call to
    # budget.size: no other module raises a ValueError "need <name> >= <floor>",
    # "<name> must be >= <floor>" or "<name> must be an integer" itself; a relation
    # such as "need p >= tau_b(M)" may have its own message
    floor = re.compile(r"(need \S+|must be) >= ?(-?\d|$)")

    def flag(node):
        if isinstance(node, ast.Raise) and node.exc and "ValueError" in _names(node.exc) and any(
                isinstance(n, ast.Constant) and isinstance(n.value, str)
                and (floor.search(n.value) or "must be an integer" in n.value)
                for n in ast.walk(node.exc)):
            return "raises a size's ValueError"
        return None

    assert _outside_budget(flag) == []


def test_only_chord_kernel_raises_a_chord_to_a_negative_power():
    # circle.chord_kernel is the one map from chord lengths to kernel values: in
    # circle, sequences and analysis no other code takes x ** (-s) of a base that
    # is not a literal, or np.power(x, -s)
    package = Path(lejacircle.__file__).parent

    def negated(node):
        return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)

    offenders = []
    for module in ("circle", "sequences", "analysis"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        kernel = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "chord_kernel"
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in kernel:
                continue
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and negated(node.right)
                    and not isinstance(node.left, ast.Constant)):
                offenders.append(f"{module}:{node.lineno} ** of a negated exponent")
            if (isinstance(node, ast.Call) and "power" in _names(node.func) and len(node.args) > 1
                    and negated(node.args[1])):
                offenders.append(f"{module}:{node.lineno} power of a negated exponent")
    assert offenders == []


def test_package_imports_form_no_cycle():
    # each module's relative imports, read from its source; a cycle
    # would make some import order fail on a partially initialized module
    package = Path(lejacircle.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    deps.update(alias.name for alias in node.names)
                else:
                    deps.add(node.module.split(".")[0])
    assert {"binary", "budget", "circle", "special"} <= set(graph)
    assert graph["budget"] == set()
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


@pytest.mark.parametrize(
    "module", ["binary", "budget", "circle", "special", "sequences", "analysis", "cli", "summation"]
)
def test_submodule_imports_in_fresh_interpreter(module):
    src = str(Path(lejacircle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import lejacircle.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
