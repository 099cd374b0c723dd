"""Finite decision problems, signal channels, and the decision rules on top.

State spaces here are small (a handful of states), so probability vectors
are plain tuples of floats rather than arrays. Every operation is a pure
function over immutable values; nothing mutates after construction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import mul

from .errors import DimensionMismatch, MissingRuleData, ZeroMarginal

PROB_TOL = 1e-12
CHECK_TOL = 1e-12  # how far below 0 the property checks let a voi or deference advantage round


def as_probability_vector(vec, what: str = "probability vector") -> tuple[float, ...]:
    """Coerce to a tuple of floats and validate non-negativity and unit sum."""
    out = tuple(map(float, vec))
    if not out:
        raise ValueError(f"{what} must be non-empty")
    # min(out) is negative or NaN whenever an entry is negative; -0.0 passes
    if not (min(out) >= 0.0 and all(map(math.isfinite, out))):
        raise ValueError(f"{what} has negative or non-finite entries: {out!r}")
    total = sum(out)
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{what} sums to {total!r}, expected 1 within {PROB_TOL}")
    return out


def check_length(vec, n: int, what: str, per: str = "states") -> tuple:
    """The vector as a tuple; DimensionMismatch unless it has ``n`` entries, one per ``per``."""
    vec = tuple(vec)
    if len(vec) != n:
        raise DimensionMismatch(f"{what} has {len(vec)} entries for {n} {per}")
    return vec


def unit_interval(x, what: str) -> float:
    """``x`` as a float; ValueError unless it lies in [0, 1]."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {x!r}")
    return x


def _reject_repeated_signals(names, what: str) -> None:
    """ValueError naming every signal name that occurs more than once."""
    if len(set(names)) < len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"{what} has repeated signal names: {repeated}")


@dataclass(frozen=True)
class Act:
    """A named act: one utility per state, in state order."""

    name: str
    utilities: tuple[float, ...]

    def __post_init__(self) -> None:
        utilities = tuple(map(float, self.utilities))
        if not utilities:
            raise ValueError(f"act {self.name!r} needs at least one utility")
        if not all(map(math.isfinite, utilities)):
            raise ValueError(f"act {self.name!r} has non-finite utilities")
        object.__setattr__(self, "utilities", utilities)


@dataclass(frozen=True)
class DecisionProblem:
    """A finite state space, a prior over it, and a finite menu of acts."""

    states: tuple[str, ...]
    prior: tuple[float, ...]
    acts: tuple[Act, ...]

    def __post_init__(self) -> None:
        states = tuple(map(str, self.states))
        if not states:
            raise ValueError("decision problem needs at least one state")
        prior = check_length(as_probability_vector(self.prior, "prior"), len(states), "prior")
        acts = tuple(self.acts)
        if not acts:
            raise ValueError("decision problem needs at least one act")
        for act in acts:
            check_length(act.utilities, len(states), f"act {act.name!r} utilities")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "acts", acts)


@dataclass(frozen=True)
class SignalChannel:
    """Row-stochastic likelihood table P(signal | state), one row per state.

    A channel whose rows each put probability 1 on a single signal encodes
    learning a partition cell; anything else is a noisy (garbled) signal.
    """

    signals: tuple[str, ...]
    likelihood: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        signals = tuple(map(str, self.signals))
        if not signals:
            raise ValueError("channel needs at least one signal")
        # signals are looked up by name (the complement's column, a custom posterior)
        _reject_repeated_signals(signals, "channel")
        rows = tuple(self.likelihood)
        if not rows:
            raise ValueError("channel needs at least one state row")
        checked = []
        for i, row in enumerate(rows):
            what = f"likelihood row {i}"
            checked.append(as_probability_vector(check_length(row, len(signals), what, "signals"), what))
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "likelihood", tuple(checked))

    def signal_index(self, signal: str) -> int:
        try:
            return self.signals.index(signal)
        except ValueError:
            raise ValueError(f"unknown signal {signal!r}, channel has {self.signals}") from None


@dataclass(frozen=True)
class CredalSet:
    """A non-empty finite set of priors over a shared state space."""

    members: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("credal set needs at least one member")
        checked = tuple(as_probability_vector(m, f"credal member {i}") for i, m in enumerate(members))
        n = len(checked[0])
        if any(len(m) != n for m in checked):
            raise DimensionMismatch("credal members disagree on state count")
        object.__setattr__(self, "members", checked)


@dataclass(frozen=True)
class IdentityRisk:
    """r(p) = p; recovers plain expected utility."""

    def weight(self, p: float) -> float:
        return p


@dataclass(frozen=True)
class PowerRisk:
    """r(p) = p ** k with k > 0; k > 1 underweights good tails (worst-case caution)."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", float(self.k))
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"power risk exponent must be positive, got {self.k!r}")

    def weight(self, p: float) -> float:
        return p**self.k


@dataclass(frozen=True)
class TableRisk:
    """Piecewise-linear risk curve through (p, r(p)) knots.

    Knots must start at (0, 0), end at (1, 1), have strictly increasing p
    and non-decreasing r.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple((float(p), float(r)) for p, r in self.knots)
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


RiskFunction = IdentityRisk | PowerRisk | TableRisk


def is_identity_risk(risk: RiskFunction) -> bool:
    """True when the risk function is the identity map, however it is spelled."""
    if isinstance(risk, IdentityRisk):
        return True
    if isinstance(risk, PowerRisk):
        return risk.k == 1.0
    return all(p == r for p, r in risk.knots)


@dataclass(frozen=True)
class Conditionalization:
    """Certain Bayesian updating."""


@dataclass(frozen=True)
class StayAtPrior:
    """Misupdate that leaves the belief unchanged."""


@dataclass(frozen=True)
class ComplementConditionalization:
    """Misupdate that conditionalizes on the complement of the observed signal."""


@dataclass(frozen=True)
class CustomPosterior:
    """Misupdate to a fixed per-signal posterior, ignoring the true Bayes update."""

    table: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        raw = self.table
        items = sorted(raw.items()) if isinstance(raw, Mapping) else list(raw)
        if not items:
            raise ValueError("custom posterior table must not be empty")
        canon = tuple(
            (str(signal), as_probability_vector(vec, f"custom posterior for {signal!r}"))
            for signal, vec in items
        )
        # a signal is looked up by its first entry, and a JSON object keeps its last
        _reject_repeated_signals([signal for signal, _ in canon], "custom posterior table")
        object.__setattr__(self, "table", canon)

    def posterior_for(self, signal: str) -> tuple[float, ...]:
        for name, vec in self.table:
            if name == signal:
                return vec
        raise MissingRuleData(f"custom posterior table has no entry for signal {signal!r}")


MisupdateKind = StayAtPrior | ComplementConditionalization | CustomPosterior

# The one place the misupdate mode names are spelled; scenario files, witness
# JSON and the search configuration all use these names.
MISUPDATE_MODES = {
    "stay-at-prior": StayAtPrior,
    "complement-conditionalization": ComplementConditionalization,
    "custom-posterior": CustomPosterior,
}


@dataclass(frozen=True)
class Faulty:
    """Updater that conditionalizes with probability 1 - q and misupdates with probability q."""

    q: float
    kind: MisupdateKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", unit_interval(self.q, "misupdate probability"))
        kinds = tuple(MISUPDATE_MODES.values())
        if not isinstance(self.kind, kinds):
            names = ", ".join(kind.__name__ for kind in kinds)
            raise ValueError(f"misupdate kind must be an instance of {names}, got {self.kind!r}")


Updater = Conditionalization | Faulty


@dataclass(frozen=True)
class ExpectedUtilityRule:
    """Maximize expected utility at the current belief."""


@dataclass(frozen=True)
class RiskWeightedRule:
    """Maximize rank-dependent (risk-weighted) expected utility."""

    risk: RiskFunction

    def __post_init__(self) -> None:
        if self.risk is None:
            raise MissingRuleData("risk-weighted rule needs a risk function")
        if not isinstance(self.risk, RiskFunction):
            names = ", ".join(kind.__name__ for kind in RiskFunction.__args__)
            raise ValueError(f"risk must be an instance of {names}, got {self.risk!r}")


@dataclass(frozen=True)
class GammaMaximinRule:
    """Maximize the worst-case expected utility across a credal set."""

    credal: CredalSet

    def __post_init__(self) -> None:
        if self.credal is None:
            raise MissingRuleData("gamma-maximin rule needs a credal set")
        if not isinstance(self.credal, CredalSet):
            raise ValueError(f"credal must be an instance of CredalSet, got {self.credal!r}")


DecisionRule = ExpectedUtilityRule | RiskWeightedRule | GammaMaximinRule


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
    return [sum(map(mul, belief, act.utilities)) for act in problem.acts]


def best_act_eu(problem: DecisionProblem, belief) -> tuple[int, float]:
    """Act with maximal expected utility; ties go to the lowest index."""
    belief = check_length(belief, len(problem.states), "belief")
    return _argmax(_act_values(problem, belief))


def bayes_step(belief, channel: SignalChannel, j: int) -> tuple[float, tuple[float, ...] | None]:
    """P(signal j) under the belief and the Bayesian posterior on it.

    The posterior is None when the marginal is not positive. The belief must
    already have one entry per channel row.
    """
    joint = [b * row[j] for b, row in zip(belief, channel.likelihood)]
    marg = sum(joint)
    if marg <= 0.0:
        return marg, None
    return marg, tuple([p / marg for p in joint])


def risk_weighted_value(prospect, risk: RiskFunction) -> float:
    """Rank-dependent value of a finite prospect of (utility, probability) atoms.

    Sort the outcomes ascending as u_1 <= ... <= u_n with probabilities
    p_1 ... p_n and return

        u_1 + sum_{i >= 2} r(p_i + ... + p_n) * (u_i - u_{i-1}),

    i.e. the guaranteed floor plus each utility increment weighted by the
    risk-transformed probability of doing at least that well. Zero-probability
    atoms are dropped; they cannot change the value.
    """
    pairs = sorted([(float(u), float(p)) for u, p in prospect if p > 0.0])
    if not pairs:
        raise ValueError("prospect needs at least one positive-probability atom")
    value = pairs[0][0]
    tail = sum([p for _, p in pairs])
    for (u_prev, p_prev), (u, _) in zip(pairs, pairs[1:]):
        tail -= p_prev
        if tail < 0.0:  # the subtraction can round below 0 on a thin top tail
            tail = 0.0
        value += risk.weight(tail) * (u - u_prev)
    return value


def gamma_maximin(problem: DecisionProblem, credal: CredalSet) -> tuple[int, float]:
    """Act maximizing the worst-case expected utility over the credal set.

    Ties go to the lowest index. A singleton credal set reduces to
    ``best_act_eu`` at that member.
    """
    if credal is None:
        raise MissingRuleData("gamma-maximin needs a credal set")
    for member in credal.members:
        check_length(member, len(problem.states), "credal member")
    return _maximin(problem, credal.members)


def _maximin(problem: DecisionProblem, members) -> tuple[int, float]:
    """``gamma_maximin`` over members already checked to have one entry per state."""
    return _argmax([min([sum(map(mul, member, act.utilities)) for member in members]) for act in problem.acts])


def misupdate(belief, channel: SignalChannel, signal: str, kind: MisupdateKind) -> tuple[float, ...]:
    """Belief produced by a failed conditionalization on the observed signal."""
    return _misupdate(check_length(belief, len(channel.likelihood), "belief"), channel, signal, kind)


def _misupdate(belief, channel: SignalChannel, signal: str, kind: MisupdateKind) -> tuple[float, ...]:
    """``misupdate`` of a belief already checked to have one entry per channel row."""
    if isinstance(kind, StayAtPrior):
        return belief
    if isinstance(kind, ComplementConditionalization):
        j = channel.signal_index(signal)
        comp = [b * (1.0 - row[j]) for b, row in zip(belief, channel.likelihood)]
        marg = sum(comp)
        if marg <= 0.0:
            raise ZeroMarginal(f"complement of signal {signal!r} has zero marginal probability")
        return tuple([x / marg for x in comp])
    return check_length(kind.posterior_for(signal), len(belief), f"custom posterior for {signal!r}")
