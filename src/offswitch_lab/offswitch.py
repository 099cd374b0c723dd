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

from .core import CHECK_TOL, Act, DecisionProblem, DecisionRule, Faulty, SignalChannel, check_fits, conditionalize, unit_interval
from .distributions import UtilityDistribution, mean, zero_split

PREFER = "prefer"
DISPREFER = "disprefer"
APPROVE = "approve"
REJECT = "reject"


@dataclass(frozen=True, slots=True)
class OffSwitchScenario:
    """A prior over the human's utility, a signal-garbling probability, and an
    optional rule and updater to evaluate on the game's two-state embedding.

    Construction refuses a rule or updater whose data does not fit that
    embedding (``core.check_fits``): a credal member needs 2 entries, and a
    custom posterior table one vector of 2 entries for each of ``approve`` and
    ``reject`` and for no other signal. So every built scenario evaluates.
    """

    prior: UtilityDistribution
    epsilon: float
    label: str
    rule: DecisionRule | None = None
    updater: DecisionRule | Faulty | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", unit_interval(self.epsilon, "epsilon"))
        # the rule's and updater's data are checked against the game's fixed channel before any evaluation
        for rule in (self.rule, self.updater):
            check_fits(rule, (APPROVE, REJECT), 2)


@dataclass(frozen=True, slots=True)
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


def reduce_to_two_state(prior: UtilityDistribution, epsilon: float) -> tuple[DecisionProblem, SignalChannel]:
    """Collapse the game to latent states prefer (U >= 0) and disprefer (U < 0).

    Returns the two-state problem, with acts ``act`` and ``nothing``, and the
    approve/reject channel. The act's payoff in each state is the conditional
    mean utility there; the channel flips the matching approve/reject signal
    with probability epsilon. One-sided priors produce a zero-probability
    state whose payoff entry is a zero placeholder rather than an error, so
    the rule and updater analysis of any built ``OffSwitchScenario``, whose
    rule data construction has checked against this game, never aborts.
    """
    epsilon = unit_interval(epsilon, "epsilon")
    p_good, p_bad, m_good, m_bad = zero_split(prior)
    problem = DecisionProblem(
        states=(PREFER, DISPREFER),
        prior=(p_good, p_bad),
        acts=(Act("act", (m_good, m_bad)), Act("nothing", (0.0, 0.0))),
    )
    channel = SignalChannel(
        signals=(APPROVE, REJECT),
        likelihood=((1.0 - epsilon, epsilon), (epsilon, 1.0 - epsilon)),
    )
    return problem, channel


def _advantage(split, eu_act: float) -> float:
    # E[max(U, 0)] is the prefer cell's mass times its mean; an empty cell gives 0 * 0
    return split[0] * split[2] - max(eu_act, 0.0)


@dataclass(frozen=True, slots=True)
class Theorem1Check:
    delta: float
    nonneg: bool
    strict_expected: bool
    strict_observed: bool


def theorem1_check(prior: UtilityDistribution) -> Theorem1Check:
    """Check that deferring never loses, and wins strictly on two-sided priors.

    ``strict_expected`` reads the zero split: the prior has mass below 0 and
    its mean at or above 0 is positive, so it has mass above 0 too (an atom at
    0, or a positive side whose products underflow to 0, does not count).
    Whenever it holds, ``strict_observed`` must hold as well. That asks for a
    delta above the absolute ``CHECK_TOL``, so a two-sided prior whose smaller
    side adds less than 1e-12 fails it, and ``check theorem1`` would count a
    violation: ``Discrete(((1e-13, 0.5), (-1.0, 0.5)))`` (delta 5e-14),
    ``Discrete(((1.0, 0.5), (-1e-13, 0.5)))`` and ``Uniform(-1e6, 1e-7)``. No
    drawn trial comes near this.
    """
    split = zero_split(prior)
    d = _advantage(split, mean(prior))
    return Theorem1Check(
        delta=d,
        nonneg=d >= -CHECK_TOL,
        strict_expected=split[1] > 0.0 and split[2] > 0.0,
        strict_observed=d > CHECK_TOL,
    )


def defer_threshold(prior: UtilityDistribution) -> float | None:
    """Smallest epsilon at which deferring stops beating the best immediate option.

    The defer value is affine in epsilon, so the crossover has the closed
    form delta / (P(U>=0) E[U | U>=0] - P(U<0) E[U | U<0]). Returns None
    when the denominator is not positive (the all-mass-at-zero prior, where
    deference never loses); clamping there would fabricate a crossover the
    game does not have.
    """
    return best_option(prior, 0.0).threshold_epsilon


def best_option(prior: UtilityDistribution, epsilon: float) -> OffSwitchReport:
    """Full report for one game: option values, advantage, best choice, crossover."""
    epsilon = unit_interval(epsilon, "epsilon")
    split = p_good, p_bad, m_good, m_bad = zero_split(prior)
    eu_act = mean(prior)
    eu_defer = p_good * (1.0 - epsilon) * m_good + p_bad * epsilon * m_bad
    # the float operations of voi.value_of_learning_eu on the two-state embedding, bit
    # for bit: per signal, the posterior mean of acting against nothing's 0.0 (ties act)
    eu_learn = 0.0
    for l_good, l_bad in ((1.0 - epsilon, epsilon), (epsilon, 1.0 - epsilon)):
        marg, post = conditionalize([p_good * l_good, p_bad * l_bad])
        if post is not None:
            eu_learn += marg * max(post[0] * m_good + post[1] * m_bad, 0.0)
    advantage = _advantage(split, eu_act)
    denom = p_good * m_good - p_bad * m_bad
    # the advantage is non-negative up to rounding; never report a negative crossover
    threshold = None if denom <= 0.0 else max(0.0, advantage) / denom
    options = {"defer": eu_defer, "act": eu_act, "nothing": 0.0}
    return OffSwitchReport(
        eu_act=eu_act,
        eu_nothing=0.0,
        eu_defer=eu_defer,
        eu_learn=eu_learn,
        delta=advantage,
        best=max(options, key=options.get),  # the first of equal values wins
        threshold_epsilon=threshold,
    )
