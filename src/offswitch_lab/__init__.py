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

The package's own names are exactly ``__all__``: those the README's library
example uses and those the benchmark in ``perfbench/`` reads from the
package. Everything else is imported from its module (``core``, ``voi``,
``offswitch``, ``jsonio``, ``search``, ...).
"""

from importlib import import_module

from .core import (
    ComplementConditionalization,
    Faulty,
    GammaMaximinRule,
    PowerRisk,
    RiskWeightedRule,
    best_act_eu,  # bound eagerly: perfbench/selftest.py checks that the tracer wraps this binding
)
from .distributions import Uniform
from .offswitch import OffSwitchScenario, best_option, defer_threshold


def __getattr__(name: str):
    # Every name of __all__ not imported above is search's. It is read from the
    # module on each use, not bound here, as a binding made while something
    # had wrapped one of search's functions would outlive the wrapping.
    if name in __all__:
        return getattr(import_module(".search", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CheckViolation",
    "ComplementConditionalization",
    "CredalSearch",
    "Faulty",
    "FaultySearch",
    "GammaMaximinRule",
    "OffSwitchScenario",
    "PowerRisk",
    "ReuSearch",
    "RiskWeightedRule",
    "SearchConfig",
    "Uniform",
    "best_act_eu",
    "best_option",
    "defer_threshold",
    "find_information_aversion",
]
