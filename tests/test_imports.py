"""numpy is imported only where trials are sampled.

``report``, ``scenario``, ``sweep`` and ``verify-witness`` sample nothing, so
they, and ``import offswitch_lab``, must not load numpy: its import is the
larger part of a one-shot command's start-up. Each case runs in a fresh
interpreter, as the console script does.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import offswitch_lab
from offswitch_lab import cli, search
from test_bench_contract import package_imports

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_CLI = "import sys; from offswitch_lab.cli import main; code = main(sys.argv[1:]); print('numpy' in sys.modules); sys.exit(code)"


def numpy_loaded(script: str, *argv: str) -> bool:
    """Run ``script`` with ``argv`` in a fresh interpreter that finds the package
    in ``src``; its last line of output says whether numpy was imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_importing_the_package_does_not_import_numpy():
    assert not numpy_loaded("import sys, offswitch_lab; print('numpy' in sys.modules)")


@pytest.mark.parametrize(
    "argv",
    [
        ("report",),
        ("scenario", "alice-noisy", "--json"),
        ("sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "51"),
    ],
    ids=["report", "scenario", "sweep"],
)
def test_commands_that_sample_nothing_do_not_import_numpy(argv):
    assert not numpy_loaded(RUN_CLI, *argv)


def test_a_scenario_file_with_a_rule_and_an_updater_does_not_import_numpy(tmp_path):
    path = tmp_path / "ruleful.json"
    path.write_text(json.dumps({
        "label": "ruleful",
        "prior": {"kind": "uniform", "lo": -10, "hi": 90},
        "epsilon": 0.02,
        "rule": {"kind": "gamma-maximin", "credal": {"members": [[0.3, 0.7], [0.6, 0.4]]}},
        "updater": {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
    }))
    assert not numpy_loaded(RUN_CLI, "scenario", str(path))


def test_verify_witness_does_not_import_numpy(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert cli.main(["search", "--rule", "faulty:complement:0.5", "--trials", "300", "--out", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())
    assert not numpy_loaded(RUN_CLI, "verify-witness", str(path))


# every module of the package, as a fresh interpreter imports it
MODULES = sorted(
    "offswitch_lab" if path.stem == "__init__" else f"offswitch_lab.{path.stem}"
    for path in (SRC / "offswitch_lab").glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own_and_only_search_loads_numpy(module):
    # a fresh interpreter per module, so an import cycle or a stray numpy import in any one of them shows
    assert numpy_loaded(f"import sys, {module}; print('numpy' in sys.modules)") == (module == "offswitch_lab.search")


def test_the_sampling_commands_do_import_numpy():
    # the cases above would pass vacuously if the check could not see numpy
    assert numpy_loaded(RUN_CLI, "check", "theorem1", "--trials", "10")


def test_every_public_name_resolves():
    for name in offswitch_lab.__all__:
        assert getattr(offswitch_lab, name) is not None, name
    assert offswitch_lab.SearchConfig is offswitch_lab.search.SearchConfig
    assert offswitch_lab.find_information_aversion is search.find_information_aversion
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        offswitch_lab.nonexistent


def readme_library_imports() -> set[str]:
    """The names the README's Library example imports from the package."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "offswitch_lab"
        for alias in node.names
    }


def test_the_public_names_are_the_documented_and_benchmarked_ones():
    # the benchmark imports submodules from the package too; those are not names of __all__
    benchmarked = {
        name
        for module, name in package_imports()
        if module == "offswitch_lab" and importlib.util.find_spec(f"offswitch_lab.{name}") is None
    }
    # perfbench/selftest.py reads offswitch_lab.best_act_eu as an attribute
    assert set(offswitch_lab.__all__) == readme_library_imports() | benchmarked | {"best_act_eu"}


def test_the_package_reads_search_names_from_the_module_on_each_use(monkeypatch):
    # a wrapper put into search (as the benchmark's tracer does) is seen through
    # the package while it is in place, and the original once it is removed
    original = search.find_information_aversion
    monkeypatch.setattr(search, "find_information_aversion", lambda config: "wrapped")
    assert offswitch_lab.find_information_aversion(None) == "wrapped"
    monkeypatch.undo()
    assert offswitch_lab.find_information_aversion is original


def top_level_names(tree: ast.Module):
    """(name, first line, last line) of each public name a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def test_every_public_name_is_used_outside_the_tests():
    # a public name that only the tests mention is a second spelling or dead code
    files = [*sorted((SRC / "offswitch_lab").glob("*.py")), ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in files}
    unused = []
    for path in sorted((SRC / "offswitch_lab").glob("*.py")):
        for name, first, last in top_level_names(ast.parse("\n".join(lines[path]))):
            if name.startswith("_"):
                continue
            word = re.compile(rf"\b{name}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, 1)
                if not (other == path and first <= number <= last)
            ):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
