"""The off-switch game.

A robot holding a prior over the human's utility for a proposed action can
act, switch itself off (payoff zero), or defer: propose the action and
implement the human's approve/reject response. The human approves exactly
when her utility for the action is >= 0, but her signal reaches the robot
through a channel that flips it with probability epsilon.

Deferring means implementing whatever the (possibly garbled) signal says.
Learning means observing the same signal and then choosing freely. The two
coincide at epsilon = 0 and come apart as soon as signals can mislead, which
is why both values are computed side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Act, DecisionProblem, DecisionRule, SignalChannel, Updater, unit_interval
from .distributions import UtilityDistribution, expected_positive_part, mean, prob_gt, zero_split
from .voi import value_of_learning_eu

PREFER = "prefer"
DISPREFER = "disprefer"
APPROVE = "approve"
REJECT = "reject"


@dataclass(frozen=True)
class OffSwitchScenario:
    """A prior over the human's utility, a signal-garbling probability, and an
    optional rule and updater to evaluate on the game's two-state embedding."""

    prior: UtilityDistribution
    epsilon: float
    label: str
    rule: DecisionRule | None = None
    updater: Updater | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", unit_interval(self.epsilon, "epsilon"))


@dataclass(frozen=True)
class OffSwitchReport:
    """All the numbers of one game: option values, advantage, choice, crossover.

    ``delta`` is the noiseless deference advantage of the prior (it does not
    move with epsilon); ``best`` compares the epsilon-specific defer value
    against acting and doing nothing, preferring defer, then act, at ties.
    """

    eu_act: float
    eu_nothing: float
    eu_defer: float
    eu_learn: float
    delta: float
    best: str
    threshold_epsilon: float | None


@dataclass(frozen=True)
class TwoStateGame:
    """Two-state embedding of a game: prefer/disprefer states, approve/reject signals.

    ``degenerate`` names the states whose conditional mean did not exist
    (empty cell); their utility entries are zero placeholders.
    """

    problem: DecisionProblem
    channel: SignalChannel
    degenerate: frozenset[str]


def reduce_to_two_state(prior: UtilityDistribution, epsilon: float) -> TwoStateGame:
    """Collapse the game to latent states prefer (U >= 0) and disprefer (U < 0).

    The act's payoff in each state is the conditional mean utility there;
    the channel flips the matching approve/reject signal with probability
    epsilon. One-sided priors produce a zero-probability state whose payoff
    entry is a flagged zero placeholder rather than an error, so sweeps over
    arbitrary priors never abort.
    """
    epsilon = unit_interval(epsilon, "epsilon")
    p_good, p_bad, m_good, m_bad = zero_split(prior)
    degenerate = frozenset(
        name for name, p in ((PREFER, p_good), (DISPREFER, p_bad)) if p <= 0.0
    )
    problem = DecisionProblem(
        states=(PREFER, DISPREFER),
        prior=(p_good, p_bad),
        acts=(Act("act", (m_good, m_bad)), Act("nothing", (0.0, 0.0))),
    )
    channel = SignalChannel(
        signals=(APPROVE, REJECT),
        likelihood=((1.0 - epsilon, epsilon), (epsilon, 1.0 - epsilon)),
    )
    return TwoStateGame(problem, channel, degenerate)


def delta(prior: UtilityDistribution) -> float:
    """Deference advantage: E[max(U, 0)] minus the best immediate option."""
    return expected_positive_part(prior) - max(mean(prior), 0.0)


@dataclass(frozen=True)
class Theorem1Check:
    delta: float
    nonneg: bool
    strict_expected: bool
    strict_observed: bool


def theorem1_check(prior: UtilityDistribution) -> Theorem1Check:
    """Check that deferring never loses, and wins strictly on two-sided priors.

    ``strict_expected`` records whether the prior puts mass on both U > 0
    and U < 0; whenever it does, ``strict_observed`` must hold as well.
    """
    d = delta(prior)
    return Theorem1Check(
        delta=d,
        nonneg=d >= -1e-12,
        strict_expected=prob_gt(prior, 0.0) > 0.0 and zero_split(prior)[1] > 0.0,
        strict_observed=d > 1e-12,
    )


def noisy_defer_value(prior: UtilityDistribution, epsilon: float) -> float:
    """Expected utility of deferring when the signal flips with probability epsilon.

    Approve triggers the act, reject pays zero, so only two joint cells pay:
    a preferring human heard correctly, and a dispreferring human heard
    wrongly.
    """
    epsilon = unit_interval(epsilon, "epsilon")
    p_good, p_bad, m_good, m_bad = zero_split(prior)
    return p_good * (1.0 - epsilon) * m_good + p_bad * epsilon * m_bad


def noisy_learn_value(prior: UtilityDistribution, epsilon: float) -> float:
    """Expected utility of observing the signal and then choosing freely.

    Evaluated on the two-state embedding with the act/nothing menu. Never
    below the defer value, and never below the best immediate option.
    """
    game = reduce_to_two_state(prior, epsilon)
    return value_of_learning_eu(game.problem, game.problem.prior, game.channel).value_learning


def defer_threshold(prior: UtilityDistribution) -> float | None:
    """Smallest epsilon at which deferring stops beating the best immediate option.

    The defer value is affine in epsilon, so the crossover has the closed
    form delta / (P(U>=0) E[U | U>=0] - P(U<0) E[U | U<0]). Returns None
    when the denominator is not positive (the all-mass-at-zero prior, where
    deference never loses); clamping there would fabricate a crossover the
    game does not have.
    """
    p_good, p_bad, m_good, m_bad = zero_split(prior)
    denom = p_good * m_good - p_bad * m_bad
    if denom <= 0.0:
        return None
    # the advantage is non-negative up to rounding; never report a negative crossover
    return max(0.0, delta(prior)) / denom


def best_option(prior: UtilityDistribution, epsilon: float) -> OffSwitchReport:
    """Full report for one game: option values, advantage, best choice, crossover."""
    eu_act = mean(prior)
    eu_defer = noisy_defer_value(prior, epsilon)
    eu_learn = noisy_learn_value(prior, epsilon)
    top = max(eu_defer, eu_act, 0.0)
    if eu_defer == top:
        best = "defer"
    elif eu_act == top:
        best = "act"
    else:
        best = "nothing"
    return OffSwitchReport(
        eu_act=eu_act,
        eu_nothing=0.0,
        eu_defer=eu_defer,
        eu_learn=eu_learn,
        delta=delta(prior),
        best=best,
        threshold_epsilon=defer_threshold(prior),
    )
