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
import json
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


REACHED_BY_SEARCH = ("_trial_rng", "_draw_instance", "_concrete_rule", "evaluate_rule", "_reverifies", "replay_witness")


@pytest.fixture
def search_calls(monkeypatch):
    """Calls of each of ``search``'s traced functions, counted from here on."""
    from offswitch_lab import search

    calls = {}
    for owner, attr, _ in load_layertrace()._targets():
        if owner is search:
            calls[attr] = 0

            def counted(*args, _attr=attr, _call=getattr(search, attr), **kwargs):
                calls[_attr] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(search, attr, counted)
    return calls


@pytest.mark.parametrize("rule", ["reu:power:2", "gamma:2", "faulty:complement:0.5", "faulty:custom:0.5"])
def test_a_search_reaches_every_traced_search_layer(search_calls, rule):
    # a refactor that routes around one of these would zero its layer in a
    # traced run (perfbench/run.py --trace 1) without failing anything else
    from offswitch_lab import cli, search

    config = search.SearchConfig(seed=3, trials=300, rule=cli.parse_rule(rule))
    assert search.find_information_aversion(config)
    for name in REACHED_BY_SEARCH:
        assert search_calls[name] > 0, f"a {rule} search never calls search.{name}"


@pytest.mark.parametrize("check", ["verify_good", "verify_theorem1"])
def test_a_check_reaches_the_traced_rng_layer(search_calls, check):
    from offswitch_lab import search

    getattr(search, check)(search.SearchConfig(seed=3, trials=300))
    assert search_calls["_trial_rng"] == 2


def test_a_search_round_trips_each_block_through_one_json_document(search_calls, monkeypatch):
    # the traced search.reverify layer times one block per call; every witness
    # is still encoded and strictly decoded on its own
    from offswitch_lab import cli, search

    json_calls = {"dumps": 0, "loads": 0}
    for name in json_calls:

        def counted(*args, _name=name, _call=getattr(json, name), **kwargs):
            json_calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(json, name, counted)
    config = search.SearchConfig(seed=3, trials=1000, rule=cli.parse_rule("faulty:custom:0.5"))
    witnesses = search.find_information_aversion(config)
    blocks = len({w.trial_index // search.BLOCK_TRIALS for w in witnesses})
    assert blocks > 1
    assert json_calls == {"dumps": blocks, "loads": blocks}
    assert search_calls["_reverifies"] == blocks
    assert search_calls["witness_to_jsonable"] == search_calls["witness_from_jsonable"] == len(witnesses)
