"""Finite decision problems, signal channels, and the decision rules on top.

State spaces here are small (a handful of states), so probability vectors
are plain tuples of floats rather than arrays. Every operation is a pure
function over immutable values; nothing mutates after construction.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

PROB_TOL = 1e-12
CHECK_TOL = 1e-12  # how far below 0 the property checks let a voi or deference advantage round

# Python 3.12 made sum() of floats compensated. The scalar kernels add left to right
# from int 0, as sum() did before and the numpy screens do, so witnesses replay exactly.
left_sum = sum if sys.version_info < (3, 12) else lambda values: reduce(add, values, 0)


def as_probability_vector(vec, what: str = "probability vector", *args) -> tuple[float, ...]:
    """Coerce to a tuple of floats and validate non-negativity and unit sum.

    A vector that fails is named ``what % args``, formatted only then, or
    ``what`` as it is when there are no ``args``."""
    out = tuple(map(float, vec))
    # a NaN or an infinity among the entries makes the sum test false
    if out and min(out) >= 0.0 and abs(left_sum(out) - 1.0) <= PROB_TOL:
        return out
    if args:
        what %= args
    if not out:
        raise ValueError(f"{what} must be non-empty")
    # min(out) is negative or NaN whenever an entry is negative; -0.0 passes
    if not (min(out) >= 0.0 and all(map(math.isfinite, out))):
        raise ValueError(f"{what} has negative or non-finite entries: {out!r}")
    # the sum is the one test left to fail
    raise ValueError(f"{what} sums to {left_sum(out)!r}, expected 1 within {PROB_TOL}")


def check_length(vec, n: int, what: str, per: str = "states") -> tuple:
    """The vector as a tuple; ValueError unless it has ``n`` entries, one per ``per``."""
    vec = tuple(vec)
    if len(vec) != n:
        raise ValueError(f"{what} has {len(vec)} entries for {n} {per}")
    return vec


def as_pair(values, what: str) -> tuple[float, float]:
    """``values`` as two floats; ValueError naming ``what`` unless it has exactly two entries."""
    out = tuple(map(float, values))
    if len(out) != 2:
        raise ValueError(f"{what} must be a pair of numbers, got {list(out)}")
    return out


def unit_interval(x, what: str) -> float:
    """``x`` as a float; ValueError unless it lies in [0, 1]. A -0.0 comes back
    as 0.0, so it is printed and written as 0."""
    x = float(x) + 0.0
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {x!r}")
    return x


def _reject_repeated_signals(names, what: str) -> None:
    """ValueError naming every signal name that occurs more than once."""
    if len(set(names)) < len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"{what} has repeated signal names: {repeated}")


@dataclass(frozen=True, slots=True, init=False)
class Act:
    """A named act: one utility per state, in state order."""

    name: str
    utilities: tuple[float, ...]

    def __init__(self, name: str, utilities) -> None:
        utilities = tuple(map(float, utilities))
        if not utilities:
            raise ValueError(f"act {name!r} needs at least one utility")
        if not all(map(math.isfinite, utilities)):
            raise ValueError(f"act {name!r} has non-finite utilities")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "utilities", utilities)


@dataclass(frozen=True, slots=True, init=False)
class DecisionProblem:
    """A finite state space, a prior over it, and a finite menu of acts."""

    states: tuple[str, ...]
    prior: tuple[float, ...]
    acts: tuple[Act, ...]

    def __init__(self, states, prior, acts) -> None:
        states = tuple(map(str, states))
        if not states:
            raise ValueError("decision problem needs at least one state")
        prior = check_length(as_probability_vector(prior, "prior"), len(states), "prior")
        acts = tuple(acts)
        if not acts:
            raise ValueError("decision problem needs at least one act")
        for act in acts:
            if len(act.utilities) != len(states):  # the message is formatted only for a mismatch
                check_length(act.utilities, len(states), f"act {act.name!r} utilities")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "acts", acts)


@dataclass(frozen=True, slots=True, init=False)
class SignalChannel:
    """Row-stochastic likelihood table P(signal | state), one row per state.

    A channel whose rows each put probability 1 on a single signal encodes
    learning a partition cell; anything else is a noisy (garbled) signal.
    """

    signals: tuple[str, ...]
    likelihood: tuple[tuple[float, ...], ...]

    def __init__(self, signals, likelihood) -> None:
        signals = tuple(map(str, signals))
        if not signals:
            raise ValueError("channel needs at least one signal")
        # signals are looked up by name (the complement's column, a custom posterior)
        _reject_repeated_signals(signals, "channel")
        rows = tuple(likelihood)
        if not rows:
            raise ValueError("channel needs at least one state row")
        checked = []
        for i, row in enumerate(rows):
            if len(row := tuple(row)) != len(signals):  # a wrong length is reported first
                check_length(row, len(signals), f"likelihood row {i}", "signals")
            checked.append(as_probability_vector(row, "likelihood row %d", i))
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "likelihood", tuple(checked))

    def signal_index(self, signal: str) -> int:
        try:
            return self.signals.index(signal)
        except ValueError:
            raise ValueError(f"unknown signal {signal!r}, channel has {self.signals}") from None


@dataclass(frozen=True, slots=True)
class CredalSet:
    """A non-empty finite set of priors over a shared state space."""

    members: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("credal set needs at least one member")
        checked = tuple(as_probability_vector(m, "credal member %d", i) for i, m in enumerate(members))
        n = len(checked[0])
        if any(len(m) != n for m in checked):
            raise ValueError("credal members disagree on state count")
        object.__setattr__(self, "members", checked)


@dataclass(frozen=True, slots=True)
class PowerRisk:
    """r(p) = p ** k with k > 0; k > 1 underweights good tails (worst-case caution),
    and k = 1 is the identity, which recovers plain expected utility."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", float(self.k))
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"power risk exponent must be positive, got {self.k!r}")

    def weight(self, p: float) -> float:
        return p**self.k


@dataclass(frozen=True, slots=True)
class TableRisk:
    """Piecewise-linear risk curve through (p, r(p)) knots.

    Knots must start at (0, 0), end at (1, 1), have strictly increasing p
    and non-decreasing r.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple(as_pair(knot, "table risk knot") for knot in self.knots)
        if len(knots) < 2 or knots[0] != (0.0, 0.0) or knots[-1] != (1.0, 1.0):
            raise ValueError("table risk knots must run from (0, 0) to (1, 1)")
        for (p0, r0), (p1, r1) in zip(knots, knots[1:]):
            if not p1 > p0:
                raise ValueError("table risk knot probabilities must be strictly increasing")
            if not r1 >= r0:  # written so that a NaN value fails too
                raise ValueError("table risk values must be non-decreasing")
        object.__setattr__(self, "knots", knots)

    def weight(self, p: float) -> float:
        if p <= 0.0:
            return 0.0
        if p >= 1.0:
            return 1.0
        for (p0, r0), (p1, r1) in zip(self.knots, self.knots[1:]):
            if p <= p1:
                return r0 + (r1 - r0) * (p - p0) / (p1 - p0)
        return 1.0


RiskFunction = PowerRisk | TableRisk


def is_identity_risk(risk: RiskFunction) -> bool:
    """True when the risk function is the identity map, however it is spelled."""
    if isinstance(risk, PowerRisk):
        return risk.k == 1.0
    return all(p == r for p, r in risk.knots)


@dataclass(frozen=True, slots=True)
class StayAtPrior:
    """Misupdate that leaves the belief unchanged."""


@dataclass(frozen=True, slots=True)
class ComplementConditionalization:
    """Misupdate that conditionalizes on the complement of the observed signal;
    a complement with no mass leaves the belief as it is.

    The complement's likelihood in a state is the sum of the other signals'
    likelihoods there, added in column order, never 1 minus the observed one:
    a subtraction would leave a complement of rounding residue where the
    other signals have no mass. A misfire whose act is the posterior-best act
    changes nothing, so the learning value then takes that act's value as it is.
    """


@dataclass(frozen=True, slots=True, init=False)
class CustomPosterior:
    """Misupdate to a fixed per-signal posterior, ignoring the true Bayes update."""

    table: tuple[tuple[str, tuple[float, ...]], ...]

    def __init__(self, table) -> None:
        items = sorted(table.items()) if isinstance(table, Mapping) else list(table)
        if not items:
            raise ValueError("custom posterior table must not be empty")
        canon = [(str(signal), as_probability_vector(vec, "custom posterior for %r", signal)) for signal, vec in items]
        # a signal is looked up by its first entry, so a repeat would go unread; in a
        # JSON table the command line refuses it as a repeated key, before this check
        _reject_repeated_signals([signal for signal, _ in canon], "custom posterior table")
        object.__setattr__(self, "table", tuple(canon))

    def posterior_for(self, signal: str) -> tuple[float, ...]:
        for name, vec in self.table:
            if name == signal:
                return vec
        raise ValueError(f"custom posterior table has no entry for signal {signal!r}")


MisupdateKind = StayAtPrior | ComplementConditionalization | CustomPosterior

# The one place the misupdate mode names are spelled; scenario files, witness
# JSON and the search configuration all use these names.
MISUPDATE_MODES = {
    "stay-at-prior": StayAtPrior,
    "complement-conditionalization": ComplementConditionalization,
    "custom-posterior": CustomPosterior,
}


@dataclass(frozen=True, slots=True, init=False)
class Faulty:
    """Updater that conditionalizes with probability 1 - q and misupdates with probability q."""

    q: float
    kind: MisupdateKind

    def __init__(self, q: float, kind: MisupdateKind) -> None:
        q = unit_interval(q, "misupdate probability")
        if not isinstance(kind, MisupdateKind):
            names = ", ".join(mode.__name__ for mode in MisupdateKind.__args__)
            raise ValueError(f"misupdate kind must be an instance of {names}, got {kind!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True, slots=True)
class ExpectedUtilityRule:
    """Maximize expected utility at the current belief."""


@dataclass(frozen=True, slots=True)
class RiskWeightedRule:
    """Maximize rank-dependent (risk-weighted) expected utility."""

    risk: RiskFunction

    def __post_init__(self) -> None:
        if not isinstance(self.risk, RiskFunction):  # None fails it too
            names = ", ".join(kind.__name__ for kind in RiskFunction.__args__)
            raise ValueError(f"risk must be an instance of {names}, got {self.risk!r}")


@dataclass(frozen=True, slots=True)
class GammaMaximinRule:
    """Maximize the worst-case expected utility across a credal set."""

    credal: CredalSet

    def __post_init__(self) -> None:
        if not isinstance(self.credal, CredalSet):  # None fails it too
            raise ValueError(f"credal must be an instance of CredalSet, got {self.credal!r}")


DecisionRule = ExpectedUtilityRule | RiskWeightedRule | GammaMaximinRule


def check_fits(rule, signals, state_count: int) -> None:
    """ValueError unless the rule's data fits a game of ``state_count`` states
    observed through ``signals``; the one check of a rule's data against a game.

    A credal set's members need one entry per state. A custom posterior table
    needs one vector of one entry per state for each signal, and no entry for
    any other signal. Every other rule carries no data to check, and an object
    that is neither None, a decision rule nor a ``Faulty`` is refused.
    """
    if isinstance(rule, GammaMaximinRule):
        # the credal set makes its members agree on their length
        check_length(rule.credal.members[0], state_count, "credal member")
    elif isinstance(rule, Faulty) and isinstance(rule.kind, CustomPosterior):
        for signal in signals:
            if len(vec := rule.kind.posterior_for(signal)) != state_count:
                check_length(vec, state_count, f"custom posterior for {signal!r}")
        # every signal has an entry and the table's names are distinct, so it has
        # an entry for another signal exactly when it has more entries
        if len(rule.kind.table) > len(set(signals)):
            unknown = sorted({signal for signal, _ in rule.kind.table} - set(signals))
            raise ValueError(f"custom posterior table has entries for signals not in the channel: {unknown}")
    elif rule is not None and not isinstance(rule, DecisionRule | Faulty):
        raise ValueError(f"rule must be a decision rule or a Faulty updater, got {rule!r}")


def _argmax(values) -> tuple[int, float]:
    """Index and value of the largest entry; ties go to the lowest index, and
    a NaN never wins."""
    best_index = 0
    best_value = -math.inf
    for i, value in enumerate(values):
        if value > best_value:
            best_index, best_value = i, value
    return best_index, best_value


def _act_values(problem: DecisionProblem, belief) -> list[float]:
    """Every act's expected utility at a belief already checked to have one entry per state."""
    return [left_sum(map(mul, belief, act.utilities)) for act in problem.acts]


def best_act_eu(problem: DecisionProblem, belief) -> tuple[int, float]:
    """Act with maximal expected utility; ties go to the lowest index."""
    belief = check_length(belief, len(problem.states), "belief")
    return _argmax(_act_values(problem, belief))


def conditionalize(joint) -> tuple[float, tuple[float, ...] | None]:
    """The total of a list of joint masses, one per state, and the posterior
    they give, each mass divided by that total; the one place the scalar path
    conditionalizes. The posterior is None when the total is not positive."""
    marg = left_sum(joint)
    if marg <= 0.0:
        return marg, None
    return marg, tuple([p / marg for p in joint])


def bayes_step(belief, channel: SignalChannel, j: int) -> tuple[float, tuple[float, ...] | None]:
    """P(signal j) under the belief and the Bayesian posterior on it.

    The posterior is None when the marginal is not positive. The belief must
    already have one entry per channel row.
    """
    return conditionalize([b * row[j] for b, row in zip(belief, channel.likelihood)])


def risk_weighted_value(prospect, risk: RiskFunction) -> float:
    """Rank-dependent value of a finite prospect of (utility, probability) atoms.

    Sort the outcomes ascending as u_1 <= ... <= u_n with probabilities
    p_1 ... p_n and return

        u_1 + sum_{i >= 2} r(p_i + ... + p_n) * (u_i - u_{i-1}),

    i.e. the guaranteed floor plus each utility increment weighted by the
    risk-transformed probability of doing at least that well. Zero-probability
    atoms are dropped; they cannot change the value.

    The walk runs down from the best outcome, so each tail is the sum of the
    masses at or above its outcome: never below 0, and a thin tail keeps its
    relative accuracy. Masses may sum past 1 within ``PROB_TOL``, so a tail past
    1 is clamped to 1.
    """
    pairs = sorted([pair for pair in prospect if pair[1] > 0.0])
    if not pairs:
        raise ValueError("prospect needs at least one positive-probability atom")
    (u, tail), value = pairs[-1], 0.0
    for u_prev, p in reversed(pairs[:-1]):
        value += risk.weight(1.0 if tail > 1.0 else tail) * (u - u_prev)
        u, tail = u_prev, tail + p
    return u + value


def gamma_maximin(problem: DecisionProblem, credal: CredalSet) -> tuple[int, float]:
    """Act maximizing the worst-case expected utility over the credal set.

    Ties go to the lowest index. A singleton credal set reduces to
    ``best_act_eu`` at that member.
    """
    if credal is None:
        raise ValueError("gamma-maximin needs a credal set")
    for member in credal.members:
        check_length(member, len(problem.states), "credal member")
    return _maximin(problem, credal.members)


def _maximin(problem: DecisionProblem, members) -> tuple[int, float]:
    """``gamma_maximin`` over members already checked to have one entry per state."""
    return _argmax([min([left_sum(map(mul, member, act.utilities)) for member in members]) for act in problem.acts])


def misupdate(belief, channel: SignalChannel, signal: str, kind: MisupdateKind) -> tuple[float, ...]:
    """Belief produced by a failed conditionalization on the observed signal.

    A complement with zero marginal probability gives the belief unchanged:
    the observed signal is then certain, so in exact arithmetic its posterior
    is the belief, and staying there agrees with a correct update."""
    belief = check_length(belief, len(channel.likelihood), "belief")
    return _misupdate(belief, channel, channel.signal_index(signal), kind)


def _misupdate(belief, channel: SignalChannel, j: int, kind: MisupdateKind) -> tuple[float, ...]:
    """``misupdate`` on signal ``j`` of a belief already checked to have one entry per channel row."""
    if isinstance(kind, StayAtPrior):
        return belief
    if isinstance(kind, ComplementConditionalization):
        # the complement's likelihood is the other signals' sum, added in column order;
        # with no mass the signal is certain, so its posterior is the belief
        _, post = conditionalize([b * left_sum(row[:j] + row[j + 1 :]) for b, row in zip(belief, channel.likelihood)])
        return belief if post is None else post
    posterior = kind.posterior_for(channel.signals[j])
    if len(posterior) != len(belief):
        check_length(posterior, len(belief), f"custom posterior for {channel.signals[j]!r}")
    return posterior
