"""Value-of-information accounting.

``value_of_learning_eu`` is the classic learn-then-choose computation for an
expected-utility agent, whose gap over choosing now is never negative.
The other entry points evaluate the same learn-then-choose prospect by the
lights of agents for which that guarantee breaks: risk-weighted maximizers,
credal (imprecise) maximin agents, and agents that anticipate failing to
conditionalize.

Evaluation conventions, fixed once here:

- Risk weighting is applied once, globally, to the joint (state, signal)
  prospect induced by the signal-contingent plan, not stage by stage. A
  stage-wise evaluation would collapse to the expected-utility answer and
  hide the phenomenon being studied.
- The credal learning value is the worst case across credal members of the
  whole contingent plan. The plan picks, per signal, the maximin act at the
  member-wise conditioned credal set; each member then scores the plan with
  its own marginals and posteriors.
- A faulty updater only mis-chooses acts. Payoffs are always scored under
  the true Bayesian posterior, because the evidence itself is veridical;
  only the agent's handling of it may fail.
- A complement misfire on a signal whose complement has zero marginal
  probability misupdates to the belief itself: the signal is then certain,
  so its posterior is the belief, and the misfire agrees with a correct
  update up to rounding.
- The complement's likelihood is the sum of the other signals' likelihoods,
  added in column order, never 1 minus the observed signal's, so a
  complement has no mass exactly when the other signals have none.
- A misfire that picks the posterior-best act changes nothing: that signal's
  value is the act's value, not a blend of it with itself, which could move
  its last bit.
- Signals with zero marginal probability are skipped and contribute zero.

``evaluate_rule`` is the one switch over rules and updaters; any other object
is a ValueError. Search, witness replay and the scenario command evaluate through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING

from .core import (
    CredalSet,
    DecisionProblem,
    DecisionRule,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    RiskWeightedRule,
    SignalChannel,
    _act_values,
    _argmax,
    _maximin,
    _misupdate,
    bayes_step,
    check_length,
    conditionalize,
    gamma_maximin,
    left_sum,
    risk_weighted_value,
)

if TYPE_CHECKING:
    from .jsonio import Witness

REVERIFY_TOL = 1e-10  # a replayed witness must reproduce its stored voi within this


@dataclass(frozen=True, slots=True)
class SignalOutcome:
    """Per-signal row of a VOI report: what arrives, how likely, what gets done."""

    signal: str
    marginal: float
    act_index: int
    value: float


@dataclass(frozen=True, slots=True)
class VoiReport:
    """Outcome of a choose-now versus learn-then-choose comparison.

    ``voi`` is always ``value_learning - value_now``. For the globally
    evaluated risk-weighted rule the per-signal values are diagnostic (the
    total is not their marginal-weighted sum); for every other rule it is.
    """

    value_now: float
    value_learning: float
    voi: float
    rule: str
    per_signal: tuple[SignalOutcome, ...]


def _checked_belief(problem: DecisionProblem, belief, channel: SignalChannel) -> tuple[float, ...]:
    check_length(channel.likelihood, len(problem.states), "channel likelihood")
    return check_length(belief, len(problem.states), "belief")


def _learn_by_eu_choice(problem, belief, channel, updater: Faulty | None) -> VoiReport:
    """The one learn-then-choose loop of the expected-utility and faulty learning values.

    The caller has checked the belief (``_checked_belief``); the posterior and
    the misupdated belief have its length by construction. Each act is scored
    once at each posterior, and the misfired act's value is read from those scores.
    """
    q = 0.0 if updater is None else updater.q
    _, now = _argmax(_act_values(problem, belief))
    rows = []
    total = 0.0
    for j, signal in enumerate(channel.signals):
        marg, post = bayes_step(belief, channel, j)
        if post is None:
            continue
        values = _act_values(problem, post)
        idx, val = _argmax(values)
        if q > 0.0:
            wrong_index, _ = _argmax(_act_values(problem, _misupdate(belief, channel, j, updater.kind)))
            if wrong_index != idx:  # a misfire to the posterior-best act changes nothing
                val = (1.0 - q) * val + q * values[wrong_index]
        rows.append(SignalOutcome(signal, marg, idx, val))
        total += marg * val
    return VoiReport(now, total, total - now, "eu" if updater is None else "faulty", tuple(rows))


def value_of_learning_eu(problem: DecisionProblem, belief, channel: SignalChannel) -> VoiReport:
    """Learn-then-choose value for an expected-utility conditionalizer.

    Averages, over signals, the best posterior expected utility. The
    resulting voi is non-negative up to float noise for every valid input.
    """
    return _learn_by_eu_choice(problem, _checked_belief(problem, belief, channel), channel, None)


def _learning_reu(problem, belief, channel, risk) -> VoiReport:
    rows = []
    joint: list[tuple[float, float]] = []
    for j, signal in enumerate(channel.signals):
        masses = [b * row[j] for b, row in zip(belief, channel.likelihood)]
        marg, post = conditionalize(masses)
        if post is None:
            continue
        best_index, best_value = _argmax([risk_weighted_value(zip(act.utilities, post), risk) for act in problem.acts])
        rows.append(SignalOutcome(signal, marg, best_index, best_value))
        # risk_weighted_value drops the atoms with zero mass
        joint += zip(problem.acts[best_index].utilities, masses)
    learning = risk_weighted_value(joint, risk)
    now = max([risk_weighted_value(zip(act.utilities, belief), risk) for act in problem.acts])
    return VoiReport(now, learning, learning - now, "reu", tuple(rows))


def _learning_gamma(problem, channel, credal: CredalSet) -> VoiReport:
    now = gamma_maximin(problem, credal)[1]
    # steps[m][j]: member m's marginal and posterior on signal j
    steps = [[bayes_step(member, channel, j) for j in range(len(channel.signals))] for member in credal.members]

    # Plan: per signal, the maximin act at the member-wise conditioned credal set.
    plan: dict[int, int] = {}  # in signal order
    for j in range(len(channel.signals)):
        post_members = [member_steps[j][1] for member_steps in steps if member_steps[j][1] is not None]
        if post_members:
            plan[j] = _maximin(problem, post_members)[0]

    # Each member scores the whole plan with its own marginals and posteriors;
    # the learning value is the worst of those scores.
    worst_value = float("inf")
    worst_rows: tuple[SignalOutcome, ...] = ()
    for member_steps in steps:
        member_total = 0.0
        member_rows = []
        for j, act_index in plan.items():
            marg, post = member_steps[j]
            if post is None:
                continue
            val = left_sum(map(mul, post, problem.acts[act_index].utilities))
            member_rows.append(SignalOutcome(channel.signals[j], marg, act_index, val))
            member_total += marg * val
        if member_total < worst_value:
            worst_value = member_total
            worst_rows = tuple(member_rows)
    return VoiReport(now, worst_value, worst_value - now, "gamma-maximin", worst_rows)


def value_of_learning_rule(
    problem: DecisionProblem, belief, channel: SignalChannel, rule: DecisionRule
) -> VoiReport:
    """Learn-then-choose value as evaluated by the given decision rule.

    Reduces to ``value_of_learning_eu`` for the expected-utility rule and
    for a risk-weighted rule with the identity risk function; a singleton
    credal set reduces the same way. Non-trivial rule data can make the
    reported voi strictly negative, which is the point of computing it.
    """
    belief = _checked_belief(problem, belief, channel)
    if isinstance(rule, RiskWeightedRule):
        return _learning_reu(problem, belief, channel, rule.risk)
    if isinstance(rule, GammaMaximinRule):
        return _learning_gamma(problem, channel, rule.credal)
    if isinstance(rule, ExpectedUtilityRule):
        return _learn_by_eu_choice(problem, belief, channel, None)
    raise ValueError(f"rule must be an ExpectedUtilityRule, RiskWeightedRule or GammaMaximinRule, got {rule!r}")


def value_of_learning_faulty(
    problem: DecisionProblem, belief, channel: SignalChannel, updater: Faulty
) -> VoiReport:
    """Learn-then-choose value for an agent that may fail to conditionalize.

    With probability 1 - q the agent updates correctly and picks the
    posterior-best act; with probability q it forms the misupdated belief
    and picks the act that looks best there. Either way the act is scored
    under the true posterior. Per-signal rows report the correctly-updated
    act choice and the blended conditional value, so the learning value is
    their marginal-weighted sum.
    """
    if not isinstance(updater, Faulty):
        raise ValueError("faulty learning value needs a Faulty updater")
    return _learn_by_eu_choice(problem, _checked_belief(problem, belief, channel), channel, updater)


def evaluate_rule(
    problem: DecisionProblem,
    channel: SignalChannel,
    rule: DecisionRule | Faulty,
) -> VoiReport:
    """The voi report of any rule or updater at the problem's prior; ValueError
    naming any other object."""
    if isinstance(rule, Faulty):
        return value_of_learning_faulty(problem, problem.prior, channel, rule)
    return value_of_learning_rule(problem, problem.prior, channel, rule)


def replay_witness(witness: Witness) -> float:
    """Re-evaluate a witness from its own embedded data; returns the fresh voi."""
    return evaluate_rule(witness.problem, witness.channel, witness.rule).voi


def witness_fault(witness: Witness, replayed: float) -> str | None:
    """Why a witness whose replay gave ``replayed`` is no witness, or None when
    it is one: the replay must be within REVERIFY_TOL of the stored voi (a NaN
    never is) and below 0. The one verdict of the search and of verify-witness."""
    if not abs(replayed - witness.voi) <= REVERIFY_TOL:
        return f"stored voi {witness.voi!r} but re-evaluation gives {replayed!r}"
    if not replayed < 0.0:
        return f"voi {replayed!r} is not below 0, so it is not a witness"
    return None
