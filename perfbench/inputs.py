"""Seeded inputs of the four workloads, and nothing else.

This module is all a set-up probe imports besides the package, so that
``setup_s`` measures interpreter start, package import and input generation
rather than the benchmark's own machinery. It imports only the standard
library at module level. The workload seed drives a private
``random.Random``; the package receives only the generated ``SearchConfig``s
and command lines.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Sizes of one cycle. Changing any of them changes the benchmark.
# Trials per find_information_aversion call: the size of every search call in
# the repo's acceptance tests. The CLI default (--trials 100000) takes about
# 25 s per call on a 2-vCPU Xeon VM, too long for several cycles in one run.
SEARCH_BLOCK = 10_000
CHECK_BLOCK = 10_000  # trials per property per check cycle: the CLI default of `check --trials`
SAMPLED_TRIALS = 10  # trial indices per fixed-rule config re-derived by the oracle
CHECK_REPLAYS = 20  # reference witnesses replayed per check cycle
CLI_SEARCH_TRIALS = 300  # trials of the small one-shot search command
# Times each witness set is read back and replayed per cycle, timed as the
# median: search-sparse's and check's read-backs last 2-150 ms, where a
# shared host's second-to-second noise swamps a single timing; search-dense's
# last about 0.5 s.
READBACK_REPEATS = {"search-sparse": 5, "search-dense": 1, "check": 5}

SPARSE = (("reu:power:2", 3, 3, 2), ("reu:power:2", 2, 2, 2), ("gamma:2", 3, 3, 2), ("gamma:2", 2, 2, 2))
DENSE = (("faulty:complement:0.5", 3, 3, 2), ("faulty:custom:0.5", 3, 3, 2))
# rules without per-trial rule data, so random_instance alone rebuilds a trial
FIXED_RULES = ("reu:power:2", "faulty:complement:0.5")
CLI_SEARCH_RULE = "faulty:complement:0.5"
CLI_WITNESS_FILE = "perfbench/out/cli-witnesses.json"


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


@dataclass(frozen=True)
class SearchItem:
    label: str
    config: object
    sample: tuple[int, ...]


@dataclass(frozen=True)
class CheckItem:
    good: object
    theorem1: object
    replay_offset: int  # first reference witness replayed, modulo the reference count


def _search_rule(label: str):
    from offswitch_lab import CredalSearch, FaultySearch, PowerRisk, ReuSearch
    from offswitch_lab.search import MISUPDATE_COMPLEMENT, MISUPDATE_CUSTOM

    return {
        "reu:power:2": ReuSearch(PowerRisk(2)),
        "gamma:2": CredalSearch(2),
        "faulty:complement:0.5": FaultySearch(0.5, MISUPDATE_COMPLEMENT),
        "faulty:custom:0.5": FaultySearch(0.5, MISUPDATE_CUSTOM),
    }[label]


def _search_item(rng: random.Random, label: str, rule, trials: int, seed_bits: int = 63, **sizes) -> SearchItem:
    from offswitch_lab import SearchConfig

    config = SearchConfig(seed=rng.getrandbits(seed_bits), trials=trials, rule=rule, **sizes)
    sample = tuple(sorted(rng.sample(range(trials), SAMPLED_TRIALS)))
    return SearchItem(label, config, sample if label in FIXED_RULES else ())


def search_cycles(workload: str, seed: int):
    rng = _stream(workload, seed)
    specs = SPARSE if workload == "search-sparse" else DENSE
    rules = {spec[0]: _search_rule(spec[0]) for spec in specs}
    while True:
        yield [
            _search_item(rng, label, rules[label], SEARCH_BLOCK, state_count=states, act_count=acts,
                         signal_count=signals)
            for label, states, acts, signals in specs
        ]


def check_cycles(seed: int):
    from offswitch_lab import SearchConfig

    rng = _stream("check", seed)
    while True:
        good = SearchConfig(seed=rng.getrandbits(63), trials=CHECK_BLOCK)
        theorem1 = SearchConfig(seed=rng.getrandbits(63), trials=CHECK_BLOCK)
        yield CheckItem(good, theorem1, rng.getrandbits(32))


def cli_cycles(seed: int):
    """Per cycle, (kind, argv, SearchItem or None); the search item is the
    config the command line should amount to, with its sampled trials."""
    rng = _stream("cli-oneshot", seed)
    rule = _search_rule(CLI_SEARCH_RULE)
    while True:
        # library defaults for sizes and tolerance: the CLI's defaults must match them
        item = _search_item(rng, CLI_SEARCH_RULE, rule, CLI_SEARCH_TRIALS, seed_bits=32)
        yield [
            ("report", ["report"], None),
            ("scenario", ["scenario", "alice-noisy", "--json"], None),
            ("sweep", ["sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "51"], None),
            ("search", ["search", "--rule", CLI_SEARCH_RULE, "--trials", str(CLI_SEARCH_TRIALS),
                        "--seed", str(item.config.seed), "--out", CLI_WITNESS_FILE], item),
            ("verify-witness", ["verify-witness", CLI_WITNESS_FILE], None),
        ]


def make_inputs(workload: str, seed: int):
    """Import what the workload imports and build its input stream."""
    if workload == "cli-oneshot":
        import offswitch_lab.cli  # noqa: F401  (what every command pays for)

        cycles = cli_cycles(seed)
    elif workload == "check":
        cycles = check_cycles(seed)
    else:
        cycles = search_cycles(workload, seed)
    return itertools.chain([next(cycles)], cycles)
