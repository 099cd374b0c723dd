"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN ... PASS/FAIL` line (visible with
``pytest -s``). The randomized criteria use fixed seeds; because every trial
derives its generator from (seed, trial_index), a witness found within the
first 10^4 trials of a stream is by construction within the first 10^5
trials of that same stream.
"""

import json
import math

import numpy as np
import pytest

from offswitch_lab import cli
from offswitch_lab.core import (
    CredalSet,
    ExpectedUtilityRule,
    Faulty,
    PowerRisk,
    RiskWeightedRule,
    StayAtPrior,
    best_act_eu,
    gamma_maximin,
)
from offswitch_lab.distributions import Discrete, Uniform, mean, sample_array
from offswitch_lab.offswitch import best_option, defer_threshold
from offswitch_lab.search import (
    CredalSearch,
    FaultySearch,
    ReuSearch,
    SearchConfig,
    find_information_aversion,
    random_discrete_prior,
    random_instance,
    verify_good,
    verify_theorem1,
)
from offswitch_lab.voi import (
    replay_witness,
    value_of_learning_eu,
    value_of_learning_faulty,
    value_of_learning_rule,
)
from oracles import bisect_defer_threshold, faulty_voi, gamma_voi, reu_voi

TOL = 1e-9


def accept(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d} {name}: {status}")
    assert not failures, f"criterion {number} {name}: " + "; ".join(failures)


def test_criterion_01_alice_basic_reproduction():
    report = best_option(Uniform(-40, 60), 0.0)
    failures = []
    if abs(report.eu_act - 10.0) > TOL:
        failures.append(f"eu_act {report.eu_act}")
    if abs(report.eu_defer - 18.0) > TOL:
        failures.append(f"eu_defer {report.eu_defer}")
    if abs(report.delta - 8.0) > TOL:
        failures.append(f"delta {report.delta}")
    if report.best != "defer":
        failures.append(f"best {report.best}")
    accept(1, "alice-basic reproduction", failures)


def test_criterion_02_alice_confident_reproduction():
    report = best_option(Uniform(-10, 90), 0.0)
    failures = []
    if abs(report.eu_act - 40.0) > TOL:
        failures.append(f"eu_act {report.eu_act}")
    if abs(report.eu_defer - 40.5) > TOL:
        failures.append(f"eu_defer {report.eu_defer}")
    if abs(report.delta - 0.5) > TOL:
        failures.append(f"delta {report.delta}")
    accept(2, "alice-confident reproduction", failures)


def test_criterion_03_noisy_game_reproduction():
    report = best_option(Uniform(-10, 90), 0.02)
    failures = []
    if abs(report.eu_defer - 39.68) > TOL:
        failures.append(f"eu_defer {report.eu_defer}")
    if abs(report.eu_learn - 40.0) > TOL:
        failures.append(f"eu_learn {report.eu_learn}")
    if report.best != "act":
        failures.append(f"best {report.best}")
    accept(3, "noisy-game reproduction at eps=0.02", failures)


def test_criterion_04_defer_threshold():
    closed = defer_threshold(Uniform(-10, 90))
    solved = bisect_defer_threshold(Uniform(-10, 90))
    failures = []
    if closed is None or abs(closed - 0.5 / 41.0) > TOL:
        failures.append(f"closed form {closed}")
    if closed is None or solved is None or abs(closed - solved) > TOL:
        failures.append(f"bisection disagrees: {solved}")
    if closed is None or not (0.012 < closed < 0.0125):
        failures.append("not around 1.2%")
    accept(4, "defer threshold 0.5/41", failures)


def test_criterion_05_theorem1_property_suite():
    report = verify_theorem1(SearchConfig(seed=1009, trials=10_000))
    failures = [
        f"trial {v.trial_index}: {v.detail} ({v.value})" for v in report.violations[:5]
    ]
    if report.trials != 10_000:
        failures.append("wrong trial count")
    accept(5, "deference inequality on 10^4 random discrete priors", failures)


def test_criterion_06_goods_theorem_property_suite():
    report = verify_good(SearchConfig(seed=1013, trials=10_000))
    failures = [
        f"trial {v.trial_index}: voi {v.value}" for v in report.violations[:5]
    ]
    accept(6, "non-negative voi on 10^4 random instances", failures)


def test_criterion_07_learning_dominates_deference_wedge():
    config = SearchConfig(seed=1019, trials=1)
    rng = np.random.default_rng(1019)
    failures = []
    for i in range(1000):
        if i % 2 == 0:
            prior = random_discrete_prior(config, i)
        else:
            lo = float(rng.uniform(-60, 59))
            prior = Uniform(lo, lo + float(rng.uniform(0.5, 80)))
        eps = float(rng.uniform(0.0, 1.0))
        report = best_option(prior, eps)
        learn = report.eu_learn
        if learn < report.eu_defer - 1e-12:
            failures.append(f"pair {i}: learn < defer")
        if learn < max(mean(prior), 0.0) - 1e-12:
            failures.append(f"pair {i}: learn < choose-now")
    accept(7, "learning dominates deference on 10^3 pairs", failures)


def test_criterion_08a_reu_witness_exists():
    config = SearchConfig(
        seed=2027, trials=10_000, state_count=2, act_count=2, signal_count=2,
        rule=ReuSearch(PowerRisk(2)),
    )
    witnesses = find_information_aversion(config)
    failures = []
    if not witnesses:
        failures.append("no witness found")
    for w in witnesses[:10]:
        if abs(replay_witness(w) - w.voi) > 1e-10 or w.voi >= -1e-6:
            failures.append(f"trial {w.trial_index} fails re-verification")
        if reu_voi(w.problem, w.channel, w.rule.risk) >= 0:
            failures.append(f"trial {w.trial_index} fails the independent oracle")
    accept(8, "risk-weighted witness exists (power 2)", failures)


def test_criterion_08b_gamma_witness_exists():
    config = SearchConfig(seed=2029, trials=10_000, rule=CredalSearch(2))
    witnesses = find_information_aversion(config)
    failures = []
    if not witnesses:
        failures.append("no witness found")
    for w in witnesses[:10]:
        if abs(replay_witness(w) - w.voi) > 1e-10 or w.voi >= -1e-6:
            failures.append(f"trial {w.trial_index} fails re-verification")
        if len(w.rule.credal.members) != 2:
            failures.append("not a 2-member credal set")
        if gamma_voi(w.problem, w.channel, w.rule.credal) >= 0:
            failures.append(f"trial {w.trial_index} fails the independent oracle")
    accept(8, "credal maximin witness exists (2 members)", failures)


def test_criterion_08c_faulty_witness_exists():
    config = SearchConfig(
        seed=2039, trials=10_000, rule=FaultySearch(0.5, "complement-conditionalization")
    )
    witnesses = find_information_aversion(config)
    failures = []
    if not witnesses:
        failures.append("no witness found")
    for w in witnesses[:10]:
        if abs(replay_witness(w) - w.voi) > 1e-10 or w.voi >= -1e-6:
            failures.append(f"trial {w.trial_index} fails re-verification")
        if faulty_voi(w.problem, w.channel, w.rule) >= 0:
            failures.append(f"trial {w.trial_index} fails the independent oracle")
    accept(8, "faulty-updater witness exists (q=0.5, complement)", failures)


def test_criterion_09_impossibility_guards():
    failures = []
    with pytest.raises(ValueError, match="expected utility with conditionalization never rejects"):
        find_information_aversion(SearchConfig(seed=1, trials=10, rule=ExpectedUtilityRule()))
    with pytest.raises(ValueError, match="staying at the prior"):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=FaultySearch(0.5, "stay-at-prior"))
        )
    sweep_config = SearchConfig(seed=3041, trials=10_000)
    q_rng = np.random.default_rng(3041)
    for i in range(sweep_config.trials):
        problem, channel = random_instance(sweep_config, i)
        q = float(q_rng.uniform(0.0, 1.0))
        report = value_of_learning_faulty(
            problem, problem.prior, channel, Faulty(q, StayAtPrior())
        )
        if report.voi < -1e-12:
            failures.append(f"trial {i}: stay-at-prior aversion {report.voi}")
    accept(9, "impossible-rule guards and stay-at-prior sweep", failures)


def test_criterion_10_reductions_match_plain_expected_utility():
    config = SearchConfig(seed=4057, trials=1)
    failures = []
    for i in range(1000):
        problem, channel = random_instance(config, i)
        eu = value_of_learning_eu(problem, problem.prior, channel)
        reu = value_of_learning_rule(
            problem, problem.prior, channel, RiskWeightedRule(PowerRisk(1.0))
        )
        if abs(reu.value_learning - eu.value_learning) > 1e-10:
            failures.append(f"trial {i}: identity-risk learning value differs")
        if abs(reu.value_now - eu.value_now) > 1e-10:
            failures.append(f"trial {i}: identity-risk now value differs")
        singleton = gamma_maximin(problem, CredalSet((problem.prior,)))
        if singleton != best_act_eu(problem, problem.prior):
            failures.append(f"trial {i}: singleton credal set differs")
    accept(10, "identity and singleton reductions", failures)


def test_criterion_11_monte_carlo_cross_check():
    draws = sample_array(Uniform(-40, 60), np.random.default_rng(5077), 1_000_000)
    clipped = np.maximum(draws, 0.0)
    se = clipped.std(ddof=1) / math.sqrt(len(clipped))
    gap = abs(float(clipped.mean()) - 18.0)
    failures = [] if gap <= 3 * se else [f"gap {gap} > 3 se {3 * se}"]
    accept(11, "monte-carlo positive part near 18", failures)


def test_criterion_12_report_command_passes(capsys):
    code = cli.main(["report"])
    out = capsys.readouterr().out
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if "FAIL" in out:
        failures.append("report contains failing rows")
    with capsys.disabled():
        accept(12, "report command all rows pass", failures)
