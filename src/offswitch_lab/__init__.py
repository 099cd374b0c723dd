"""Off-switch game calculations and value-of-information counterexample search.

A library plus CLI for the one-shot game in which a robot can act, switch
itself off, or defer to a human whose approve/reject signal may be garbled,
together with the learn-then-choose comparisons that explain when deference
is and is not worth it: plain expected utility (where free information is
never bad), risk-weighted utility, credal maximin, and updaters that may
fail to conditionalize (where it can be).

The names of the seeded search and the property checks come from
``offswitch_lab.search``, the only module that imports numpy. It is
imported on first use of one of them, so that importing the package, or
running a command that samples nothing, does not load numpy.
"""

from importlib import import_module

from .core import (
    Act,
    ComplementConditionalization,
    Conditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    DecisionRule,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    IdentityRisk,
    MisupdateKind,
    PowerRisk,
    RiskFunction,
    RiskWeightedRule,
    SignalChannel,
    StayAtPrior,
    TableRisk,
    Updater,
    best_act_eu,
    expected_utility,
    gamma_maximin,
    is_identity_risk,
    misupdate,
    posterior,
    risk_weighted_eu,
    risk_weighted_value,
    signal_marginal,
)
from .distributions import (
    Discrete,
    Uniform,
    UtilityDistribution,
    cond_mean_ge,
    expected_positive_part,
    mean,
    prob_ge,
    sample,
    sample_array,
)
from .errors import (
    ConditioningOnNull,
    DimensionMismatch,
    MissingRuleData,
    RuleCannotBeAverse,
    ZeroMarginal,
)
from .offswitch import (
    OffSwitchReport,
    OffSwitchScenario,
    Theorem1Check,
    TwoStateGame,
    best_option,
    defer_threshold,
    delta,
    noisy_defer_value,
    noisy_learn_value,
    reduce_to_two_state,
    theorem1_check,
)
from .jsonio import Witness, witness_from_jsonable, witness_to_jsonable
from .voi import (
    SignalOutcome,
    VoiReport,
    replay_witness,
    value_of_learning_eu,
    value_of_learning_faulty,
    value_of_learning_rule,
)


def __getattr__(name: str):
    # Every name of __all__ not imported above is search's. It is read from the
    # module on each use, not bound here, as a binding made while something
    # had wrapped one of search's functions would outlive the wrapping.
    if name in __all__:
        return getattr(import_module(".search", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Act",
    "CheckReport",
    "CheckViolation",
    "ComplementConditionalization",
    "Conditionalization",
    "ConditioningOnNull",
    "CredalSearch",
    "CredalSet",
    "CustomPosterior",
    "DecisionProblem",
    "DecisionRule",
    "DimensionMismatch",
    "Discrete",
    "EuSearch",
    "ExpectedUtilityRule",
    "Faulty",
    "FaultySearch",
    "GammaMaximinRule",
    "IdentityRisk",
    "MissingRuleData",
    "MisupdateKind",
    "OffSwitchReport",
    "OffSwitchScenario",
    "PowerRisk",
    "ReuSearch",
    "RiskFunction",
    "RiskWeightedRule",
    "RuleCannotBeAverse",
    "SearchConfig",
    "SearchRule",
    "SignalChannel",
    "SignalOutcome",
    "StayAtPrior",
    "TableRisk",
    "Theorem1Check",
    "TwoStateGame",
    "Uniform",
    "Updater",
    "UtilityDistribution",
    "VoiReport",
    "Witness",
    "ZeroMarginal",
    "best_act_eu",
    "best_option",
    "cond_mean_ge",
    "defer_threshold",
    "delta",
    "expected_positive_part",
    "expected_utility",
    "find_information_aversion",
    "gamma_maximin",
    "is_identity_risk",
    "mean",
    "misupdate",
    "noisy_defer_value",
    "noisy_learn_value",
    "posterior",
    "prob_ge",
    "random_discrete_prior",
    "random_instance",
    "reduce_to_two_state",
    "replay_witness",
    "risk_weighted_eu",
    "risk_weighted_value",
    "sample",
    "sample_array",
    "signal_marginal",
    "theorem1_check",
    "value_of_learning_eu",
    "value_of_learning_faulty",
    "value_of_learning_rule",
    "verify_good",
    "verify_theorem1",
    "witness_from_jsonable",
    "witness_to_jsonable",
]
