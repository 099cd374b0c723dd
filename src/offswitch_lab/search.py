"""Seeded randomized generation, theorem property runs, and counterexample search.

Every trial derives its own generator from the master seed and the trial
index, so results are fully determined by (seed, trial_index) and identical
under any execution order or worker count. The per-trial stream is numpy's
PCG64 seeded through ``SeedSequence(seed, spawn_key=(trial_index,))``.

Witnesses of information aversion are re-verified before emission: the
candidate is serialized, decoded again and re-evaluated through the voi
module, and must reproduce its voi within 1e-10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .core import (
    MISUPDATE_MODES,
    Act,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    DecisionRule,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    RiskWeightedRule,
    SignalChannel,
    Updater,
    check_length,
    is_identity_risk,
    unit_interval,
)
from .distributions import Discrete
from .errors import RuleCannotBeAverse
from .offswitch import theorem1_check
from .voi import value_of_learning_eu, value_of_learning_faulty, value_of_learning_rule

REVERIFY_TOL = 1e-10
UTILITY_RANGE = (-10.0, 10.0)  # act utilities and prior atoms are drawn uniformly from it

MISUPDATE_STAY, MISUPDATE_COMPLEMENT, MISUPDATE_CUSTOM = MISUPDATE_MODES  # its keys, in order

# Rules without per-trial data are searched as they are.
EuSearch = ExpectedUtilityRule
ReuSearch = RiskWeightedRule


@dataclass(frozen=True)
class CredalSearch:
    """Gamma-maximin with a fresh credal set of ``members`` priors per trial."""

    members: int = 2

    def __post_init__(self) -> None:
        if self.members < 1:
            raise ValueError("credal search needs at least one member")


@dataclass(frozen=True)
class FaultySearch:
    """Updater that misfires with probability q; the table for the custom mode
    is sampled per trial."""

    q: float
    kind: str = MISUPDATE_COMPLEMENT

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", unit_interval(self.q, "misupdate probability"))
        if self.kind not in MISUPDATE_MODES:
            raise ValueError(f"unknown misupdate kind {self.kind!r}")


SearchRule = ExpectedUtilityRule | RiskWeightedRule | CredalSearch | FaultySearch


@dataclass(frozen=True)
class SearchConfig:
    """Everything a randomized run needs to be reproducible."""

    seed: int
    trials: int
    state_count: int = 3
    act_count: int = 3
    signal_count: int = 2
    rule: SearchRule = ExpectedUtilityRule()
    aversion_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if min(self.state_count, self.act_count, self.signal_count) < 1:
            raise ValueError("state, act and signal counts must be at least 1")
        if not self.aversion_tolerance > 0.0:
            raise ValueError("aversion tolerance must be positive")


@dataclass(frozen=True)
class Witness:
    """One concrete instance on which the rule under test rejects free information."""

    problem: DecisionProblem
    channel: SignalChannel
    rule: DecisionRule | Updater
    voi: float
    trial_index: int


@dataclass(frozen=True)
class CheckViolation:
    trial_index: int
    detail: str
    value: float


@dataclass(frozen=True)
class CheckReport:
    trials: int
    violations: tuple[CheckViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def _draw_instance(config: SearchConfig, rng: np.random.Generator) -> tuple[DecisionProblem, SignalChannel]:
    prior = rng.dirichlet(np.ones(config.state_count))
    utilities = rng.uniform(*UTILITY_RANGE, size=(config.act_count, config.state_count))
    rows = rng.dirichlet(np.ones(config.signal_count), size=config.state_count)
    problem = DecisionProblem(
        states=tuple(f"state{i}" for i in range(config.state_count)),
        prior=tuple(prior),
        acts=tuple(Act(f"act{k}", tuple(utilities[k])) for k in range(config.act_count)),
    )
    channel = SignalChannel(
        signals=tuple(f"signal{j}" for j in range(config.signal_count)),
        likelihood=tuple(tuple(row) for row in rows),
    )
    return problem, channel


def random_instance(config: SearchConfig, trial_index: int) -> tuple[DecisionProblem, SignalChannel]:
    """Sample one (problem, channel) pair, fully determined by (seed, trial_index).

    Priors and channel rows come from the flat Dirichlet (symmetric simplex)
    distribution; utilities are uniform in ``UTILITY_RANGE``.
    """
    return _draw_instance(config, _trial_rng(config.seed, trial_index))


def random_discrete_prior(config: SearchConfig, trial_index: int) -> Discrete:
    """Sample a discrete utility prior with 1 to 4 atoms.

    Values are uniform in ``UTILITY_RANGE`` and weights come from
    the flat Dirichlet, so one-sided supports occur regularly in the stream.
    """
    rng = _trial_rng(config.seed, trial_index)
    count = int(rng.integers(1, 5))
    values = rng.uniform(*UTILITY_RANGE, size=count)
    weights = rng.dirichlet(np.ones(count))
    atoms = tuple((float(v), float(w)) for v, w in zip(values, weights) if w > 0.0)
    return Discrete(atoms)


def verify_good(config: SearchConfig) -> CheckReport:
    """Run the learn-then-choose inequality on random instances; expect no violations."""
    if not isinstance(config.rule, ExpectedUtilityRule):
        raise ValueError("the learning inequality is only guaranteed under plain expected utility")
    violations = []
    for i in range(config.trials):
        problem, channel = random_instance(config, i)
        report = value_of_learning_eu(problem, problem.prior, channel)
        if report.voi < -1e-12:
            violations.append(CheckViolation(i, "negative value of learning", report.voi))
    return CheckReport(config.trials, tuple(violations))


def verify_theorem1(config: SearchConfig) -> CheckReport:
    """Run the deference inequality on random discrete priors; expect no violations."""
    violations = []
    for i in range(config.trials):
        prior = random_discrete_prior(config, i)
        result = theorem1_check(prior)
        if not result.nonneg:
            violations.append(CheckViolation(i, "negative deference advantage", result.delta))
        elif result.strict_expected and not result.strict_observed:
            violations.append(CheckViolation(i, "strictness clause failed", result.delta))
    return CheckReport(config.trials, tuple(violations))


def _reject_if_never_averse(rule: SearchRule) -> None:
    if isinstance(rule, ExpectedUtilityRule):
        raise RuleCannotBeAverse(
            "expected utility with conditionalization never rejects free information "
            "(Good's theorem); an empty search would be misleading"
        )
    if isinstance(rule, RiskWeightedRule) and is_identity_risk(rule.risk):
        raise RuleCannotBeAverse(
            "an identity risk function reduces risk-weighted utility to expected utility, "
            "which never rejects free information"
        )
    if isinstance(rule, CredalSearch) and rule.members < 2:
        raise RuleCannotBeAverse(
            "a singleton credal set reduces gamma-maximin to expected utility, "
            "which never rejects free information"
        )
    if isinstance(rule, FaultySearch) and (rule.kind == MISUPDATE_STAY or rule.q == 0.0):
        raise RuleCannotBeAverse(
            "staying at the prior (or never misfiring) only blends the learning value "
            "toward the choose-now value; it cannot make learning strictly bad"
        )


def _concrete_rule(
    search_rule: SearchRule,
    rng: np.random.Generator,
    config: SearchConfig,
    channel: SignalChannel,
) -> DecisionRule | Updater:
    """Materialize per-trial rule data; draws happen after the instance draws."""
    if isinstance(search_rule, CredalSearch):
        members = rng.dirichlet(np.ones(config.state_count), size=search_rule.members)
        return GammaMaximinRule(CredalSet(tuple(tuple(m) for m in members)))
    if isinstance(search_rule, FaultySearch):
        mode = MISUPDATE_MODES[search_rule.kind]
        if mode is CustomPosterior:
            table = {
                signal: tuple(rng.dirichlet(np.ones(config.state_count)))
                for signal in channel.signals
            }
            return Faulty(search_rule.q, CustomPosterior(table))
        return Faulty(search_rule.q, mode())
    return search_rule


def evaluate_rule(
    problem: DecisionProblem,
    channel: SignalChannel,
    rule: DecisionRule | Updater,
):
    """The voi report of any rule or updater at the problem's prior; search,
    witness replay and the scenario command all evaluate through here."""
    if isinstance(rule, Faulty):
        return value_of_learning_faulty(problem, problem.prior, channel, rule)
    if isinstance(rule, (RiskWeightedRule, GammaMaximinRule)):
        return value_of_learning_rule(problem, problem.prior, channel, rule)
    return value_of_learning_eu(problem, problem.prior, channel)


def witness_to_jsonable(witness: Witness) -> dict:
    return {
        "trial_index": witness.trial_index,
        "voi": witness.voi,
        "problem": jsonio.encode_problem(witness.problem),
        "channel": jsonio.encode_channel(witness.channel),
        "rule": jsonio.encode_rule(witness.rule),
    }


def witness_from_jsonable(obj) -> Witness:
    jsonio.check_fields(obj, ("trial_index", "voi", "problem", "channel", "rule"), (), "witness")
    problem = jsonio.decode_problem(obj["problem"])
    channel = jsonio.decode_channel(obj["channel"])
    rule = jsonio.decode_rule(obj["rule"])
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
        voi=float(jsonio.number(obj["voi"], "witness voi")),
        trial_index=jsonio.number(obj["trial_index"], "witness trial_index", {int}),
    )


def replay_witness(witness: Witness) -> float:
    """Re-evaluate a witness from its own embedded data; returns the fresh voi."""
    return evaluate_rule(witness.problem, witness.channel, witness.rule).voi


def reproduces(replayed: float, stored: float) -> bool:
    """True when a replayed voi is within REVERIFY_TOL of the stored one; a NaN never is."""
    return abs(replayed - stored) <= REVERIFY_TOL


def _reverifies(witness: Witness) -> bool:
    round_tripped = witness_from_jsonable(json.loads(json.dumps(witness_to_jsonable(witness))))
    return reproduces(replay_witness(round_tripped), witness.voi)


def find_information_aversion(config: SearchConfig) -> list[Witness]:
    """Collect every trial on which the configured rule strictly rejects information.

    Returns the verified witnesses sorted by voi ascending (worst first).
    Rules that provably cannot be averse are rejected with
    ``RuleCannotBeAverse`` rather than silently returning nothing.
    """
    _reject_if_never_averse(config.rule)
    witnesses = []
    for i in range(config.trials):
        rng = _trial_rng(config.seed, i)
        problem, channel = _draw_instance(config, rng)
        rule = _concrete_rule(config.rule, rng, config, channel)
        report = evaluate_rule(problem, channel, rule)
        if report.voi < -config.aversion_tolerance:
            witness = Witness(problem, channel, rule, report.voi, i)
            if not _reverifies(witness):
                raise AssertionError(
                    f"witness at trial {i} did not reproduce its voi on re-evaluation"
                )
            witnesses.append(witness)
    witnesses.sort(key=lambda w: (w.voi, w.trial_index))
    return witnesses
