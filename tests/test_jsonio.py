import copy
import json
import reprlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offswitch_lab import cli, jsonio, voi
from offswitch_lab.core import ExpectedUtilityRule

PROBLEM = {
    "states": ["s0", "s1"],
    "prior": [0.3, 0.7],
    "acts": [{"name": "a", "utilities": [1.0, -1.0]}, {"name": "b", "utilities": [-0.5, 0.8]}],
}
CHANNEL = {"signals": ["x", "y"], "likelihood": [[0.9, 0.1], [0.2, 0.8]]}
RULES = [
    {"kind": "eu"},
    {"kind": "reu", "risk": {"kind": "power", "k": 2}},
    {"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5, 0.3], [1, 1]]}},
    {"kind": "reu", "risk": {"kind": "identity"}},
    {"kind": "gamma-maximin", "credal": {"members": [[0.2, 0.8], [0.6, 0.4]]}},
    {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
    {"kind": "faulty", "q": 0.5, "mode": "custom-posterior", "table": {"x": [0.1, 0.9], "y": [0.8, 0.2]}},
]
# witnesses shaped as the search writes them, one per rule kind and mode
WITNESSES = [
    {"trial_index": 7, "voi": -0.25, "problem": PROBLEM, "channel": CHANNEL, "rule": rule} for rule in RULES
]
SCENARIOS = [
    {
        "label": "ruleful",
        "prior": {"kind": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        "epsilon": 0.1,
        "rule": {"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5, 0.3], [1, 1]]}},
        "updater": {"kind": "faulty", "q": 0.5, "mode": "custom-posterior",
                    "table": {"approve": [0.2, 0.8], "reject": [0.9, 0.1]}},
    },
    {
        "label": "credal",
        "prior": {"kind": "uniform", "lo": -10, "hi": 90},
        "epsilon": 0.02,
        "rule": {"kind": "gamma-maximin", "credal": {"members": [[0.2, 0.8], [0.6, 0.4]]}},
        "updater": {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
    },
]
GOLDEN_WITNESSES = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "witnesses.json"
# what a malformed or hostile file can hold where any field belongs
REPLACEMENTS = [None, True, False, "x", [], {}, 10**400, 1e308, -1e308, 1e-300]


def paths(doc, path=()):
    """The path of the document itself and of every field in it, at any depth."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, path + (i,))


def replaced(doc, path, value):
    """A copy of the document with the field at ``path`` replaced by ``value``."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def assert_only_value_errors(run, doc, value):
    for path in paths(doc):
        try:
            run(replaced(doc, path, value))
        except ValueError:
            pass
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} with {reprlib.repr(value)} at {path}: {exc}")


@settings(deadline=None)
@given(st.sampled_from(REPLACEMENTS))
def test_a_field_replaced_by_any_value_fails_only_with_value_error(value):
    # each draw replaces every field of every document in turn, so the few
    # draws this space has cover every (field, value) pair
    for witness in WITNESSES:
        assert_only_value_errors(lambda obj: voi.replay_witness(jsonio.witness_from_jsonable(obj)), witness, value)
    for scenario in SCENARIOS:
        assert_only_value_errors(lambda obj: cli._scenario_payload(jsonio.decode_scenario(obj)), scenario, value)


def size_edits(witness) -> list[str]:
    """The size edits that apply to a witness: its channel's, and its rule data's."""
    edits = ["row-added", "row-dropped"]
    if "credal" in witness["rule"]:
        edits += ["members-longer", "members-shorter"]
    if "table" in witness["rule"]:
        edits += ["vector-longer", "vector-shorter", "signal-added", "signal-removed"]
    return edits


def size_edited(witness, edit: str, i: int):
    """A copy of the witness with one size edit; ``i`` picks the row, vector or signal.

    A longer vector gains an entry of 0 and a shorter one merges its last two
    entries, so each still sums to 1; every credal member is edited alike, so
    the members still agree on their length.
    """
    out = copy.deepcopy(witness)
    rows, rule = out["channel"]["likelihood"], out["rule"]
    vectors = rule["credal"]["members"] if "credal" in rule else list(rule.get("table", {}).values())
    if edit == "row-added":
        rows.append(list(rows[i % len(rows)]))
    elif edit == "row-dropped":
        del rows[i % len(rows)]
    elif edit.endswith("-longer"):
        for vec in vectors if edit == "members-longer" else [vectors[i % len(vectors)]]:
            vec.append(0.0)
    elif edit.endswith("-shorter"):
        for vec in vectors if edit == "members-shorter" else [vectors[i % len(vectors)]]:
            vec[-2:] = [vec[-2] + vec[-1]]
    elif edit == "signal-added":
        rule["table"]["extra"] = list(vectors[i % len(vectors)])
    else:
        del rule["table"][list(rule["table"])[i % len(vectors)]]
    return out


# the rule-kind witnesses above and the first golden witnesses, at 3 states
SIZE_CASES = [
    (witness, edit)
    for witness in WITNESSES + json.loads(GOLDEN_WITNESSES.read_text(encoding="utf-8"))[:8]
    for edit in size_edits(witness)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIZE_CASES), st.integers(0, 7))
def test_a_witness_that_decodes_after_a_size_edit_replays(case, i):
    # sizes that disagree across the problem, channel and rule data are refused
    # at decode, so a decoded witness never fails partway through its replay
    try:
        decoded = jsonio.witness_from_jsonable(size_edited(*case, i))
    except ValueError:
        return
    voi.replay_witness(decoded)


def test_the_documents_are_valid_as_they_stand():
    for witness in WITNESSES:
        voi.replay_witness(jsonio.witness_from_jsonable(witness))
    for scenario in SCENARIOS:
        cli._scenario_payload(jsonio.decode_scenario(scenario))


@pytest.mark.parametrize("mode", [[], {}, ["stay-at-prior"]], ids=["list", "object", "list-of-a-mode"])
def test_a_faulty_mode_that_is_not_a_string_is_a_value_error_naming_the_field(mode):
    # a list or object used to raise TypeError (unhashable type) out of the decoder
    with pytest.raises(ValueError, match="faulty updater mode must be a JSON string"):
        jsonio.decode_rule({"kind": "faulty", "q": 0.5, "mode": mode})


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"kind": "faulty", "q": 10**400, "mode": "stay-at-prior"}, "faulty updater q"),
        ({"kind": "reu", "risk": {"kind": "power", "k": -(10**400)}}, "power risk k"),
        ({"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5, 10**400], [1, 1]]}}, "table risk knot"),
        ({"kind": "gamma-maximin", "credal": {"members": [[10**400, 0]]}}, "credal member"),
    ],
    ids=["number", "negative-number", "list-entry", "nested-list-entry"],
)
def test_an_integer_too_large_for_a_float_is_a_value_error_naming_the_field(obj, field):
    with pytest.raises(ValueError, match=f"^{field} is an integer too large for a float$"):
        jsonio.decode_rule(obj)


def test_a_negative_trial_index_is_a_value_error_naming_the_field():
    with pytest.raises(ValueError, match="^witness trial_index must be non-negative, got -1$"):
        jsonio.witness_from_jsonable(dict(WITNESSES[0], trial_index=-1))
    assert jsonio.witness_from_jsonable(dict(WITNESSES[0], trial_index=0)).trial_index == 0


def test_the_expected_utility_rule_round_trips_as_eu():
    assert jsonio.encode_rule(ExpectedUtilityRule()) == {"kind": "eu"}
    assert jsonio.decode_rule({"kind": "eu"}) == ExpectedUtilityRule()
