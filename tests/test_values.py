"""The package's value types: frozen slotted dataclasses built by validating constructors.

Every dataclass in the package is ``frozen=True, slots=True``: no field can
be set after construction and no attribute added, as an instance has no
``__dict__``. ``Act``, ``DecisionProblem``, ``SignalChannel``,
``CustomPosterior`` and ``Faulty`` have their own ``__init__``, which checks
and converts each argument and sets each field once; these tests pin its
messages and the order of its checks, and that pickling, copying,
``dataclasses.replace`` and ``asdict`` still work.
"""

import copy
import dataclasses
import inspect
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from offswitch_lab import core, distributions, jsonio, offswitch, search, voi
from offswitch_lab.core import (
    Act,
    ComplementConditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    PowerRisk,
    RiskWeightedRule,
    SignalChannel,
    StayAtPrior,
    TableRisk,
)
from offswitch_lab.distributions import Discrete, Uniform

MODULES = (core, voi, jsonio, distributions, offswitch, search)
GOLDEN_WITNESSES = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "witnesses.json"
NAN = float("nan")


def package_dataclasses() -> list[type]:
    return [
        cls
        for module in MODULES
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    ]


PROBLEM = DecisionProblem(("s0", "s1"), (0.3, 0.7), (Act("a", (1.0, -1.0)), Act("b", (-0.5, 0.8))))
CHANNEL = SignalChannel(("x", "y"), ((0.9, 0.1), (0.2, 0.8)))
CUSTOM = Faulty(0.5, CustomPosterior({"x": (0.1, 0.9), "y": (0.8, 0.2)}))
TABLE = TableRisk(((0.0, 0.0), (0.5, 0.3), (1.0, 1.0)))
CREDAL = CredalSet(((0.2, 0.8), (0.6, 0.4)))
REPORT = voi.evaluate_rule(PROBLEM, CHANNEL, CUSTOM)
DISCRETE = Discrete(((-1.0, 0.5), (2.0, 0.5)))
GAME_UPDATER = Faulty(0.25, CustomPosterior({"approve": (0.2, 0.8), "reject": (0.9, 0.1)}))
VIOLATION = search.CheckViolation(3, "negative value of learning", -1e-9)


def one_of_each() -> list:
    """One instance of every package dataclass."""
    columns = np.arange(6.0).reshape(2, 3)
    return [
        PROBLEM.acts[0],
        PROBLEM,
        CHANNEL,
        CREDAL,
        PowerRisk(2.0),
        TABLE,
        StayAtPrior(),
        ComplementConditionalization(),
        CUSTOM.kind,
        CUSTOM,
        ExpectedUtilityRule(),
        RiskWeightedRule(TABLE),
        GammaMaximinRule(CREDAL),
        REPORT,
        REPORT.per_signal[0],
        jsonio.Witness(PROBLEM, CHANNEL, CUSTOM, REPORT.voi, 7),
        DISCRETE,
        Uniform(-1.0, 2.0),
        offswitch.OffSwitchScenario(DISCRETE, 0.1, "game", RiskWeightedRule(PowerRisk(2.0)), GAME_UPDATER),
        offswitch.best_option(DISCRETE, 0.1),
        offswitch.theorem1_check(DISCRETE),
        search.CredalSearch(3),
        search.FaultySearch(0.5, search.MISUPDATE_CUSTOM),
        search.SearchConfig(seed=1, trials=10, rule=search.FaultySearch(0.5)),
        VIOLATION,
        search.CheckReport(10, (VIOLATION,)),
        search._Block(0, columns[:1], columns[None], columns[None], columns[None]),
    ]


def same(a, b) -> bool:
    """Equal fields, arrays compared by value (a ``_Block``'s arrays have no ``==``)."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(*([getattr(v, f.name) for f in dataclasses.fields(v)] for v in (a, b)))
    )


def test_every_package_dataclass_is_frozen_and_slotted():
    classes = package_dataclasses()
    assert len(classes) == 27
    assert sorted(map(type, one_of_each()), key=id) == sorted(classes, key=id)
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__


@pytest.mark.parametrize("value", one_of_each(), ids=lambda value: type(value).__name__)
def test_no_field_can_be_set_and_no_attribute_added(value):
    assert not hasattr(value, "__dict__")
    for field in dataclasses.fields(value)[:1]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field.name)
    # the frozen __setattr__ that CPython generates names the class as it was
    # before slots were added, so some versions raise TypeError from its
    # super() call here; either way nothing is set
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.extra = 1
    # past the frozen __setattr__ there is no __dict__ to put it in
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1)


@pytest.mark.parametrize("value", one_of_each(), ids=lambda value: type(value).__name__)
def test_pickle_and_deepcopy_give_an_equal_value(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert same(twin, value)


def test_the_golden_witnesses_survive_pickle_and_deepcopy():
    entries = json.loads(GOLDEN_WITNESSES.read_text(encoding="utf-8"))
    assert len(entries) == 63
    for entry in entries:
        witness = jsonio.witness_from_jsonable(entry)
        for twin in (pickle.loads(pickle.dumps(witness)), copy.deepcopy(witness)):
            assert twin == witness
            assert jsonio.witness_to_jsonable(twin) == entry
            assert voi.replay_witness(twin) == voi.replay_witness(witness)


def test_replace_on_a_scenario_validates_like_the_constructor():
    scenario = offswitch.OffSwitchScenario(Uniform(-10, 90), 0.1, "game", updater=GAME_UPDATER)
    assert dataclasses.replace(scenario, epsilon=0) == offswitch.OffSwitchScenario(
        Uniform(-10, 90), 0.0, "game", updater=GAME_UPDATER
    )
    assert type(dataclasses.replace(scenario, epsilon=0).epsilon) is float
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\], got 1.5$"):
        dataclasses.replace(scenario, epsilon=1.5)
    assert scenario.epsilon == 0.1


def test_a_probability_of_minus_0_is_stored_and_written_as_0():
    # -0.0 lies in [0, 1]; it is kept as 0.0, so no "-0" reaches a table or a file
    faulty = Faulty(-0.0, StayAtPrior())
    scenario = offswitch.OffSwitchScenario(Uniform(-10, 90), -0.0, "game")
    for value in (faulty.q, scenario.epsilon, dataclasses.replace(CUSTOM, q=-0.0).q, core.unit_interval(-0.0, "x")):
        assert repr(value) == "0.0"
    assert json.dumps(jsonio.encode_rule(faulty)) == '{"kind": "faulty", "q": 0.0, "mode": "stay-at-prior"}'


def test_replace_goes_through_the_validating_constructors():
    assert dataclasses.replace(PROBLEM.acts[0], utilities=[2, 3]) == Act("a", (2.0, 3.0))
    assert dataclasses.replace(CHANNEL, signals=["u", "v"]).signals == ("u", "v")
    assert dataclasses.replace(CUSTOM, q=1).q == 1.0
    with pytest.raises(ValueError, match=r"^misupdate probability must lie in \[0, 1\], got 2.0$"):
        dataclasses.replace(CUSTOM, q=2)
    with pytest.raises(ValueError, match="^prior sums to 0.5"):
        dataclasses.replace(PROBLEM, prior=(0.25, 0.25))


def test_asdict_of_a_voi_report_is_unchanged():
    rows = tuple(
        {"signal": row.signal, "marginal": row.marginal, "act_index": row.act_index, "value": row.value}
        for row in REPORT.per_signal
    )
    expected = {
        "value_now": REPORT.value_now,
        "value_learning": REPORT.value_learning,
        "voi": REPORT.voi,
        "rule": "faulty",
        "per_signal": rows,
    }
    assert dataclasses.asdict(REPORT) == expected
    assert list(dataclasses.asdict(REPORT)) == list(expected)
    assert [row["signal"] for row in rows] == ["x", "y"]


def test_the_set_once_constructors_take_the_generated_signature():
    for cls, names in [
        (Act, ["self", "name", "utilities"]),
        (DecisionProblem, ["self", "states", "prior", "acts"]),
        (SignalChannel, ["self", "signals", "likelihood"]),
        (CustomPosterior, ["self", "table"]),
        (Faulty, ["self", "q", "kind"]),
    ]:
        assert "__init__" in vars(cls) and "__post_init__" not in vars(cls)
        assert list(inspect.signature(cls.__init__).parameters) == names
        assert [f.name for f in dataclasses.fields(cls)] == names[1:]
    assert Act(name="a", utilities=[1]) == Act("a", (1.0,))
    assert Faulty(kind=StayAtPrior(), q=0) == Faulty(0.0, StayAtPrior())


KINDS = "StayAtPrior, ComplementConditionalization, CustomPosterior"


@pytest.mark.parametrize(
    "make, error, message",
    [
        # each input fails every check after the one named, so the first check wins
        (lambda: Act("a", ("x",)), ValueError, "could not convert string to float: 'x'"),
        (lambda: Act("a", ()), ValueError, "act 'a' needs at least one utility"),
        (lambda: Act(7, (NAN,)), ValueError, "act 7 has non-finite utilities"),
        (lambda: DecisionProblem((), (0.5,), ()), ValueError, "decision problem needs at least one state"),
        (lambda: DecisionProblem(("a",), (0.5, NAN), ()), ValueError,
         "prior has negative or non-finite entries: (0.5, nan)"),
        (lambda: DecisionProblem(("a", "b"), (1.0,), ()), ValueError, "prior has 1 entries for 2 states"),
        (lambda: DecisionProblem(("a",), (1.0,), ()), ValueError, "decision problem needs at least one act"),
        (lambda: DecisionProblem(("a", "b"), (0.5, 0.5), (Act("x", (1.0,)), Act("y", (1.0, 2.0, 3.0)))),
         ValueError, "act 'x' utilities has 1 entries for 2 states"),
        (lambda: SignalChannel((), ()), ValueError, "channel needs at least one signal"),
        (lambda: SignalChannel(("x", "x"), ()), ValueError, "channel has repeated signal names: ['x']"),
        (lambda: SignalChannel(("x",), ()), ValueError, "channel needs at least one state row"),
        (lambda: SignalChannel(("x", "y"), ((0.5, NAN, 0.5), (NAN,))), ValueError,
         "likelihood row 0 has 3 entries for 2 signals"),
        (lambda: SignalChannel(("x", "y"), ((0.5, 0.5), (0.5, NAN))), ValueError,
         "likelihood row 1 has negative or non-finite entries: (0.5, nan)"),
        (lambda: CustomPosterior({}), ValueError, "custom posterior table must not be empty"),
        (lambda: CustomPosterior((("s", (0.5, 0.25)), ("s", ()))), ValueError,
         "custom posterior for 's' sums to 0.75, expected 1 within 1e-12"),
        (lambda: CustomPosterior({"t": (1.0,), "s": ("x",)}), ValueError, "could not convert string to float: 'x'"),
        (lambda: CustomPosterior((("s", (1.0,)), ("t", (1.0,)), ("s", (1.0,)))), ValueError,
         "custom posterior table has repeated signal names: ['s']"),
        (lambda: CustomPosterior(7), TypeError, "'int' object is not iterable"),
        (lambda: Faulty(1.5, None), ValueError, "misupdate probability must lie in [0, 1], got 1.5"),
        (lambda: Faulty(NAN, None), ValueError, "misupdate probability must lie in [0, 1], got nan"),
        (lambda: Faulty(0.5, None), ValueError, f"misupdate kind must be an instance of {KINDS}, got None"),
        (lambda: Faulty(0.5, StayAtPrior), ValueError,
         f"misupdate kind must be an instance of {KINDS}, got <class 'offswitch_lab.core.StayAtPrior'>"),
    ],
)
def test_the_set_once_constructors_keep_their_messages_and_check_order(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
