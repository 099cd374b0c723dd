"""JSON encodings for the domain types.

Encoders produce plain dicts/lists ready for ``json.dumps``; decoders are
strict and reject unknown fields so scenario files fail loudly instead of
silently ignoring a typo. Numbers must be JSON numbers: a bool, a string or
a ``NaN``/``Infinity`` literal is rejected, not coerced. Names and labels
must be JSON strings. Decoder errors are ValueError with a message that
names the offending field.

A search witness (``Witness``) is one JSON object holding its trial index,
voi, problem, channel and rule; ``witness_to_jsonable`` and
``witness_from_jsonable`` are its codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    MISUPDATE_MODES,
    Act,
    Conditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    DecisionRule,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    IdentityRisk,
    PowerRisk,
    RiskFunction,
    RiskWeightedRule,
    SignalChannel,
    TableRisk,
    Updater,
    check_length,
)
from .distributions import Discrete, Uniform, UtilityDistribution
from .offswitch import OffSwitchScenario

RULE_KINDS = ("eu", "reu", "gamma-maximin")
UPDATER_KINDS = ("conditionalization", "faulty")
_NUMBER_TYPES = frozenset((int, float))
_STRING_TYPES = frozenset((str,))
_INT_TYPES = frozenset((int,))


def number(value, field: str, types=_NUMBER_TYPES):
    """``value`` itself when it is a finite JSON number of one of ``types``.

    ``bool`` is a subclass of ``int`` but not a number here, numeric strings
    are not converted, and the ``NaN`` and ``Infinity`` literals that
    ``json.loads`` accepts are not JSON numbers: each raises ValueError
    naming the field. The comparison, unlike ``math.isfinite``, cannot
    overflow on a huge integer.
    """
    if type(value) not in types or not -math.inf < value < math.inf:
        raise ValueError(f"{field} must be a JSON number, got {value!r}")
    return value


def _list(values, field: str) -> list:
    """``values`` itself when it is a JSON list; a string or a number is not split or iterated."""
    if type(values) is not list:
        raise ValueError(f"{field} must be a JSON list, got {values!r}")
    return values


def _numbers(values, field: str) -> tuple:
    """A JSON list of finite JSON numbers as a tuple."""
    # one test of the list type, one pass over the types and one over
    # finiteness in C; witness decoding is on the replay hot path (a huge
    # integer here raises OverflowError, an input error just as float() of it
    # would be)
    if not (
        type(values) is list and _NUMBER_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))
    ):
        for value in _list(values, field):
            number(value, field)
    return tuple(values)


def _string(value, field: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{field} must be a JSON string, got {value!r}")
    return value


def _strings(values, field: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a bare string is not split into letters."""
    if type(values) is not list or not _STRING_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{field} must be a JSON list of strings, got {values!r}")
    return tuple(values)


def check_fields(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], what: str) -> None:
    """ValueError unless ``obj`` is an object with all required fields and no unknown ones."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    # the usual case: exactly the required keys, which are distinct
    if len(obj) == len(required) and all(map(obj.__contains__, required)):
        return
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValueError(f"{what} is missing fields: {sorted(missing)}")


def _kind(obj, what: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{what} must be an object with a 'kind' field")
    return obj["kind"]


def encode_distribution(d: UtilityDistribution) -> dict:
    if isinstance(d, Uniform):
        return {"kind": "uniform", "lo": d.lo, "hi": d.hi}
    return {"kind": "discrete", "atoms": [[v, w] for v, w in d.atoms]}


def decode_distribution(obj) -> UtilityDistribution:
    kind = _kind(obj, "prior")
    if kind == "uniform":
        check_fields(obj, ("kind", "lo", "hi"), (), "uniform prior")
        return Uniform(number(obj["lo"], "uniform prior lo"), number(obj["hi"], "uniform prior hi"))
    if kind == "discrete":
        check_fields(obj, ("kind", "atoms"), (), "discrete prior")
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not all(
            isinstance(a, list) and len(a) == 2 for a in atoms
        ):
            raise ValueError("discrete prior atoms must be a list of [value, weight] pairs")
        return Discrete(tuple(_numbers(atom, "discrete prior atom") for atom in atoms))
    raise ValueError(f"prior kind must be 'uniform' or 'discrete', got {kind!r}")


def encode_problem(problem: DecisionProblem) -> dict:
    return {
        "states": list(problem.states),
        "prior": list(problem.prior),
        "acts": [{"name": a.name, "utilities": list(a.utilities)} for a in problem.acts],
    }


def decode_problem(obj) -> DecisionProblem:
    check_fields(obj, ("states", "prior", "acts"), (), "decision problem")
    acts = []
    for entry in _list(obj["acts"], "decision problem acts"):
        check_fields(entry, ("name", "utilities"), (), "act")
        acts.append(Act(_string(entry["name"], "act name"), _numbers(entry["utilities"], "act utilities")))
    prior = _numbers(obj["prior"], "decision problem prior")
    return DecisionProblem(_strings(obj["states"], "decision problem states"), prior, tuple(acts))


def encode_channel(channel: SignalChannel) -> dict:
    return {
        "signals": list(channel.signals),
        "likelihood": [list(row) for row in channel.likelihood],
    }


def decode_channel(obj) -> SignalChannel:
    check_fields(obj, ("signals", "likelihood"), (), "signal channel")
    rows = tuple([_numbers(row, "channel likelihood") for row in _list(obj["likelihood"], "channel likelihood")])
    return SignalChannel(_strings(obj["signals"], "signal channel signals"), rows)


def encode_risk(risk: RiskFunction) -> dict:
    if isinstance(risk, IdentityRisk):
        return {"kind": "identity"}
    if isinstance(risk, PowerRisk):
        return {"kind": "power", "k": risk.k}
    return {"kind": "table", "knots": [[p, r] for p, r in risk.knots]}


def decode_risk(obj) -> RiskFunction:
    kind = _kind(obj, "risk function")
    if kind == "identity":
        check_fields(obj, ("kind",), (), "identity risk")
        return IdentityRisk()
    if kind == "power":
        check_fields(obj, ("kind", "k"), (), "power risk")
        return PowerRisk(number(obj["k"], "power risk k"))
    if kind == "table":
        check_fields(obj, ("kind", "knots"), (), "table risk")
        return TableRisk(tuple(_numbers(knot, "table risk knot") for knot in _list(obj["knots"], "table risk knots")))
    raise ValueError(f"risk kind must be 'identity', 'power' or 'table', got {kind!r}")


def encode_credal(credal: CredalSet) -> dict:
    return {"members": [list(m) for m in credal.members]}


def decode_credal(obj) -> CredalSet:
    check_fields(obj, ("members",), (), "credal set")
    return CredalSet(tuple(_numbers(m, "credal member") for m in _list(obj["members"], "credal set members")))


def encode_rule(rule: DecisionRule | Updater) -> dict:
    if isinstance(rule, RiskWeightedRule):
        return {"kind": "reu", "risk": encode_risk(rule.risk)}
    if isinstance(rule, GammaMaximinRule):
        return {"kind": "gamma-maximin", "credal": encode_credal(rule.credal)}
    if isinstance(rule, Faulty):
        mode = next(name for name, cls in MISUPDATE_MODES.items() if isinstance(rule.kind, cls))
        out = {"kind": "faulty", "q": rule.q, "mode": mode}
        if isinstance(rule.kind, CustomPosterior):
            out["table"] = {signal: list(vec) for signal, vec in rule.kind.table}
        return out
    if isinstance(rule, Conditionalization):
        return {"kind": "conditionalization"}
    return {"kind": "eu"}


def decode_rule(obj, kinds: tuple[str, ...] = RULE_KINDS + UPDATER_KINDS, what: str = "rule"):
    """Decode any of the five rule and updater kinds that ``kinds`` allows."""
    kind = _kind(obj, what)
    if kind not in kinds:
        raise ValueError(f"{what} kind must be one of {', '.join(map(repr, kinds))}, got {kind!r}")
    if kind == "reu":
        check_fields(obj, ("kind", "risk"), (), "reu rule")
        return RiskWeightedRule(decode_risk(obj["risk"]))
    if kind == "gamma-maximin":
        check_fields(obj, ("kind", "credal"), (), "gamma-maximin rule")
        return GammaMaximinRule(decode_credal(obj["credal"]))
    if kind != "faulty":
        check_fields(obj, ("kind",), (), f"{kind} {what}")
        return ExpectedUtilityRule() if kind == "eu" else Conditionalization()
    check_fields(obj, ("kind", "q", "mode"), ("table",), "faulty updater")
    q = number(obj["q"], "faulty updater q")
    mode = obj["mode"]
    if mode not in MISUPDATE_MODES:
        raise ValueError(
            f"updater mode must be one of {', '.join(map(repr, MISUPDATE_MODES))}, got {mode!r}"
        )
    if MISUPDATE_MODES[mode] is not CustomPosterior:
        if "table" in obj:
            raise ValueError(f"{mode} updater takes no 'table' field; only custom-posterior has one")
        return Faulty(q, MISUPDATE_MODES[mode]())
    if "table" not in obj:
        raise ValueError("custom-posterior updater needs a 'table' field")
    if not isinstance(obj["table"], dict):
        raise ValueError(f"custom-posterior table must be a JSON object, got {type(obj['table']).__name__}")
    table = {
        signal: _numbers(vec, f"custom posterior for {signal!r}")
        for signal, vec in obj["table"].items()
    }
    return Faulty(q, CustomPosterior(table))


def decode_scenario(obj) -> OffSwitchScenario:
    check_fields(obj, ("label", "prior", "epsilon"), ("rule", "updater"), "scenario")
    return OffSwitchScenario(
        prior=decode_distribution(obj["prior"]),
        epsilon=number(obj["epsilon"], "scenario epsilon"),
        label=_string(obj["label"], "scenario label"),
        rule=decode_rule(obj["rule"], RULE_KINDS, "rule") if "rule" in obj else None,
        updater=decode_rule(obj["updater"], UPDATER_KINDS, "updater") if "updater" in obj else None,
    )


@dataclass(frozen=True)
class Witness:
    """One concrete instance on which the rule under test rejects free information."""

    problem: DecisionProblem
    channel: SignalChannel
    rule: DecisionRule | Updater
    voi: float
    trial_index: int


def witness_to_jsonable(witness: Witness) -> dict:
    return {
        "trial_index": witness.trial_index,
        "voi": witness.voi,
        "problem": encode_problem(witness.problem),
        "channel": encode_channel(witness.channel),
        "rule": encode_rule(witness.rule),
    }


def witness_from_jsonable(obj) -> Witness:
    check_fields(obj, ("trial_index", "voi", "problem", "channel", "rule"), (), "witness")
    problem = decode_problem(obj["problem"])
    channel = decode_channel(obj["channel"])
    rule = decode_rule(obj["rule"])
    if isinstance(rule, Faulty) and isinstance(rule.kind, CustomPosterior):
        # checked here, so a bad table is an input error rather than a failure partway through replay
        for signal in channel.signals:
            what = f"custom posterior for {signal!r}"
            check_length(rule.kind.posterior_for(signal), len(problem.states), what)
        unknown = sorted({signal for signal, _ in rule.kind.table} - set(channel.signals))
        if unknown:
            raise ValueError(f"custom posterior table has entries for signals not in the channel: {unknown}")
    return Witness(
        problem=problem,
        channel=channel,
        rule=rule,
        voi=float(number(obj["voi"], "witness voi")),
        trial_index=number(obj["trial_index"], "witness trial_index", _INT_TYPES),
    )
