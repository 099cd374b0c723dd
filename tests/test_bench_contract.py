"""The benchmark in ``perfbench/`` reaches into the package by name.

Its layer tracer wraps module-level functions and class ``__init__``s, and
its input generators import rule classes and constants. A refactor that
renames or inlines one of them would break ``perfbench/run.py --trace 1``
or the workloads without failing any other test, so the names are checked
here. The benchmark's files are only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_its_owner():
    targets = load_layertrace()._targets()
    assert targets
    for owner, attr, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but not defined there"
        assert callable(vars(owner)[attr])


def package_imports():
    """(module, name) for every ``from offswitch_lab... import name`` in perfbench."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("offswitch_lab"):
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize("module,name", sorted(set(package_imports())))
def test_every_name_the_benchmark_imports_exists(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None
