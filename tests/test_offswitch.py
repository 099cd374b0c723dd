import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from offswitch_lab import offswitch
from offswitch_lab.core import ComplementConditionalization, CredalSet, CustomPosterior, Faulty, GammaMaximinRule
from offswitch_lab.distributions import Discrete, Uniform, cond_mean_ge, expected_positive_part, mean
from offswitch_lab.offswitch import (
    OffSwitchScenario,
    best_option,
    defer_threshold,
    reduce_to_two_state,
    theorem1_check,
)
from offswitch_lab.search import CredalSearch
from oracles import bisect_defer_threshold, embedded_report, plan_value_eu


def random_prior(rng):
    if rng.random() < 0.5:
        count = int(rng.integers(1, 6))
        values = rng.uniform(-60, 60, size=count)
        weights = rng.dirichlet(np.ones(count))
        return Discrete(tuple((float(v), float(w)) for v, w in zip(values, weights) if w > 0))
    lo = float(rng.uniform(-60, 59))
    return Uniform(lo, lo + float(rng.uniform(0.5, 80)))


def test_reduce_confident_prior_matches_tree_payoffs():
    problem, channel = reduce_to_two_state(Uniform(-10, 90), 0.37)
    assert problem.prior == pytest.approx((0.9, 0.1), abs=1e-12)
    assert problem.acts[0].utilities == pytest.approx((45.0, -5.0), abs=1e-12)
    assert problem.acts[1].utilities == (0.0, 0.0)
    assert channel.likelihood == ((1 - 0.37, 0.37), (0.37, 1 - 0.37))


def test_scenario_checks_a_custom_posterior_table_against_the_games_signals():
    fits = {"approve": (0.2, 0.8), "reject": (0.9, 0.1)}
    scenario = OffSwitchScenario(Uniform(-10, 90), 0.1, "fits", updater=Faulty(0.5, CustomPosterior(fits)))
    assert dataclasses.replace(scenario, epsilon=0.3).epsilon == 0.3
    misfits = [
        ({**fits, "aprove": (0.5, 0.5)}, "signals not in the channel: ['aprove']"),
        ({"approve": (0.2, 0.8)}, "no entry for signal 'reject'"),
        ({**fits, "reject": (0.9, 0.05, 0.05)}, "custom posterior for 'reject' has 3 entries for 2 states"),
    ]
    for table, message in misfits:
        updater = Faulty(0.5, CustomPosterior(table))
        with pytest.raises(ValueError, match=re.escape(message)):
            OffSwitchScenario(Uniform(-10, 90), 0.1, "misfits", updater=updater)
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(scenario, updater=updater)
    # a table-free misupdate has nothing to check
    OffSwitchScenario(Uniform(-10, 90), 0.1, "complement", updater=Faulty(0.5, ComplementConditionalization()))


def test_scenario_checks_a_credal_set_against_the_games_two_states():
    c3 = GammaMaximinRule(CredalSet(((0.2, 0.3, 0.5), (0.6, 0.2, 0.2))))
    for blocks in ({"rule": c3}, {"updater": c3}):
        with pytest.raises(ValueError, match=r"^credal member has 3 entries for 2 states$"):
            OffSwitchScenario(Uniform(-10, 90), 0.02, "c3", **blocks)
    c2 = GammaMaximinRule(CredalSet(((0.2, 0.8), (0.6, 0.4))))
    OffSwitchScenario(Uniform(-10, 90), 0.02, "c2", rule=c2, updater=c2)


@pytest.mark.parametrize("block", ["rule", "updater"])
@pytest.mark.parametrize("thing", ["eu", CredalSearch()], ids=["string", "search-rule"])
def test_scenario_refuses_what_is_neither_a_rule_nor_an_updater(block, thing):
    # refused at construction, so that every built scenario evaluates
    with pytest.raises(ValueError, match=re.escape(f"got {thing!r}") + "$"):
        OffSwitchScenario(Uniform(-10, 90), 0.02, "x", **{block: thing})


def test_reduce_basic_prior_noiseless_partition():
    problem, channel = reduce_to_two_state(Uniform(-40, 60), 0.0)
    assert problem.prior == pytest.approx((0.6, 0.4), abs=1e-12)
    # disprefer-cell mean checked against the negated-distribution identity:
    # E[U | U < 0] = -E[-U | -U >= 0] and -U ~ Uniform(-60, 40)
    oracle_bad = -cond_mean_ge(Uniform(-60, 40), 0.0)
    assert problem.acts[0].utilities[0] == pytest.approx(30.0, abs=1e-12)
    assert problem.acts[0].utilities[1] == pytest.approx(oracle_bad, abs=1e-12)
    assert problem.acts[0].utilities[1] == pytest.approx(-20.0, abs=1e-12)
    assert channel.likelihood == ((1.0, 0.0), (0.0, 1.0))


def test_reduce_all_positive_prior_zeroes_the_empty_cell():
    problem, channel = reduce_to_two_state(Uniform(1, 3), 0.1)
    assert problem.prior == (1.0, 0.0)
    assert problem.acts[0].utilities[1] == 0.0


def test_delta_examples():
    assert best_option(Uniform(-40, 60), 0.0).delta == pytest.approx(8.0, abs=1e-12)
    assert best_option(Uniform(-10, 90), 0.0).delta == pytest.approx(0.5, abs=1e-12)
    assert best_option(Uniform(1, 3), 0.0).delta == 0.0


def test_theorem1_check_two_sided_prior():
    result = theorem1_check(Uniform(-40, 60))
    assert result.delta == pytest.approx(8.0, abs=1e-12)
    assert result.nonneg and result.strict_expected and result.strict_observed


def test_theorem1_check_point_mass():
    result = theorem1_check(Discrete(((5.0, 1.0),)))
    assert result.delta == 0.0
    assert result.nonneg
    assert not result.strict_expected
    assert not result.strict_observed


def test_theorem1_check_atom_at_zero_is_not_strict():
    result = theorem1_check(Discrete(((0.0, 0.5), (-1.0, 0.5))))
    assert not result.strict_expected
    assert result.nonneg


def test_theorem1_check_positive_side_that_underflows_is_not_strict():
    # 1e-300 at weight 1e-30 adds 0.0 to the positive mean, so no strict win is owed
    result = theorem1_check(Discrete(((1e-300, 1e-30), (-1.0, 1.0))))
    assert (result.delta, result.nonneg, result.strict_expected, result.strict_observed) == (0.0, True, False, False)


# no product of a value of at least 1e-100 and a weight of at least 1e-7 underflows
SIDED_VALUES = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@st.composite
def sided_priors(draw):
    if draw(st.booleans()):
        values = draw(st.lists(SIDED_VALUES, min_size=1, max_size=5, unique=True))
        raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(values), max_size=len(values)))
        return Discrete(tuple((v, w / sum(raw)) for v, w in zip(values, raw)))
    lo, hi = draw(SIDED_VALUES), draw(SIDED_VALUES)
    assume(lo < hi)
    return Uniform(lo, hi)


@given(sided_priors())
def test_theorem1_check_expects_a_strict_win_exactly_when_the_prior_has_mass_on_both_sides(prior):
    if isinstance(prior, Uniform):
        both = prior.lo < 0.0 < prior.hi
    else:
        both = any(v > 0.0 and w > 0.0 for v, w in prior.atoms) and any(v < 0.0 and w > 0.0 for v, w in prior.atoms)
    assert theorem1_check(prior).strict_expected == both


def test_theorem1_random_uniform_priors():
    rng = np.random.default_rng(910)
    for _ in range(1000):
        lo = float(rng.uniform(-60, 59))
        prior = Uniform(lo, lo + float(rng.uniform(0.5, 80)))
        result = theorem1_check(prior)
        assert result.nonneg
        assert not (result.strict_expected and not result.strict_observed)


def test_noisy_defer_examples():
    assert best_option(Uniform(-10, 90), 0.0).eu_defer == pytest.approx(40.5, abs=1e-12)
    assert best_option(Uniform(-10, 90), 0.02).eu_defer == pytest.approx(39.68, abs=1e-9)
    assert best_option(Uniform(-40, 60), 0.0).eu_defer == pytest.approx(18.0, abs=1e-12)


def test_noisy_defer_matches_posterior_arithmetic():
    # oracle route: build the two-state game and evaluate the defer plan
    # (approve -> act, reject -> nothing) by explicit joint enumeration
    prior = Uniform(-10, 90)
    for eps in (0.0, 0.02, 0.3, 0.5, 1.0):
        problem, channel = reduce_to_two_state(prior, eps)
        plan = {0: 0, 1: 1}
        assert best_option(prior, eps).eu_defer == pytest.approx(
            plan_value_eu(problem, channel, plan), abs=1e-12
        )


def test_noisy_defer_uninformative_point_is_half_mean():
    for prior in (Uniform(-40, 60), Uniform(-10, 90), Discrete(((-2.0, 0.25), (6.0, 0.75)))):
        assert best_option(prior, 0.5).eu_defer == pytest.approx(mean(prior) / 2.0, abs=1e-12)


def test_noisy_defer_affine_and_nonincreasing_in_epsilon():
    rng = np.random.default_rng(911)
    for _ in range(200):
        prior = random_prior(rng)
        v0, v_half, v1 = (best_option(prior, e).eu_defer for e in (0.0, 0.5, 1.0))
        assert v_half == pytest.approx(0.5 * (v0 + v1), abs=1e-10)
        assert v0 >= v_half - 1e-12 >= v1 - 2e-12
        assert v0 == pytest.approx(expected_positive_part(prior), abs=1e-12)


def test_noisy_learn_examples():
    assert best_option(Uniform(-10, 90), 0.02).eu_learn == pytest.approx(40.0, abs=1e-9)
    assert best_option(Uniform(-40, 60), 0.0).eu_learn == pytest.approx(18.0, abs=1e-12)


def test_noisy_learn_noiseless_limit_equals_positive_part():
    rng = np.random.default_rng(912)
    for _ in range(200):
        prior = random_prior(rng)
        assert best_option(prior, 0.0).eu_learn == pytest.approx(
            expected_positive_part(prior), abs=1e-10
        )


def test_learning_dominates_deference_and_choosing_now():
    rng = np.random.default_rng(913)
    for _ in range(500):
        prior = random_prior(rng)
        eps = float(rng.uniform(0, 1))
        report = best_option(prior, eps)
        learn = report.eu_learn
        assert learn >= report.eu_defer - 1e-12
        assert learn >= max(mean(prior), 0.0) - 1e-12


def test_defer_threshold_examples():
    assert defer_threshold(Uniform(-10, 90)) == pytest.approx(0.5 / 41.0, abs=1e-12)
    assert defer_threshold(Uniform(1, 3)) == 0.0
    assert defer_threshold(Discrete(((-1.0, 0.5), (1.0, 0.5)))) == pytest.approx(0.5, abs=1e-12)


def test_defer_threshold_none_only_for_all_mass_at_zero():
    assert defer_threshold(Discrete(((0.0, 1.0),))) is None


def test_defer_threshold_agrees_with_bisection_on_named_priors():
    for prior in (Uniform(-10, 90), Uniform(-40, 60), Discrete(((-1.0, 0.5), (1.0, 0.5)))):
        assert defer_threshold(prior) == pytest.approx(bisect_defer_threshold(prior), abs=1e-9)


def test_defer_threshold_agrees_with_bisection_on_random_priors():
    rng = np.random.default_rng(914)
    for _ in range(1000):
        prior = random_prior(rng)
        closed = defer_threshold(prior)
        solved = bisect_defer_threshold(prior)
        if closed is None:
            assert solved is None
        else:
            assert closed == pytest.approx(solved, abs=1e-9)


def test_best_option_basic_prefers_defer():
    report = best_option(Uniform(-40, 60), 0.0)
    assert report.best == "defer"
    assert report.eu_defer == pytest.approx(18.0, abs=1e-12)
    assert report.eu_act == pytest.approx(10.0, abs=1e-12)
    assert report.delta == pytest.approx(8.0, abs=1e-12)
    assert report.eu_nothing == 0.0


def test_best_option_noisy_confident_prefers_acting():
    report = best_option(Uniform(-10, 90), 0.02)
    assert report.best == "act"
    assert report.eu_act == pytest.approx(40.0, abs=1e-12)
    assert report.eu_defer == pytest.approx(39.68, abs=1e-9)
    assert report.eu_learn == pytest.approx(40.0, abs=1e-9)
    assert report.threshold_epsilon == pytest.approx(0.5 / 41.0, abs=1e-12)


def test_best_option_all_negative_prior_ties_defer_over_nothing():
    report = best_option(Discrete(((-5.0, 1.0),)), 0.0)
    assert report.best == "defer"
    assert report.eu_defer == 0.0
    assert report.eu_act == -5.0


def test_best_option_tie_order_act_over_nothing():
    report = best_option(Discrete(((0.0, 1.0),)), 0.0)
    # everything ties at zero; defer outranks act outranks nothing
    assert report.best == "defer"


def test_epsilon_validation():
    with pytest.raises(ValueError):
        best_option(Uniform(-1, 1), 1.5)
    with pytest.raises(ValueError):
        reduce_to_two_state(Uniform(-1, 1), -0.1)


SWEEP_GOLDEN_GRID = tuple(0.0 + (0.05 - 0.0) * i / 50 for i in range(51))  # sweep --lo 0 --hi 0.05 --steps 51


def reference_prior(rng, i):
    """Uniform and discrete priors, two-sided or one-sided on either side, some touching 0."""
    sign = (None, 1.0, -1.0)[i % 3]  # two-sided, U >= 0 only, U <= 0 only
    if i % 2:
        width = float(rng.uniform(0.5, 80))
        if sign is None:
            lo = float(rng.uniform(-60, 59))
            return Uniform(lo, lo + width)
        near = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 20))
        return Uniform(near, near + width) if sign > 0 else Uniform(-near - width, -near)
    count = int(rng.integers(1, 6))
    values = rng.uniform(-60, 60, size=count)
    if sign is not None:
        values = sign * np.abs(values)
    values[rng.random(count) < 0.3] = 0.0
    weights = rng.dirichlet(np.ones(count))
    return Discrete(tuple((float(v), float(w)) for v, w in zip(values, weights) if w > 0))


def test_report_numbers_equal_the_embedding_reference():
    # exact equality, and equal reprs so that the sign of a zero counts as well:
    # the sweep CSV and the scenario JSON print these floats with repr
    def same(got, want):
        assert got == want and repr(got) == repr(want)

    rng = np.random.default_rng(915)
    for i in range(10_000):
        prior = reference_prior(rng, i)
        end = float((i // 6) % 2)  # 0 and 1 in turn, across every kind of prior
        for eps in (end, SWEEP_GOLDEN_GRID[i % 51], float(rng.random())):
            reference = embedded_report(prior, eps)
            same(best_option(prior, eps), reference)
            same(best_option(prior, eps).eu_defer, reference.eu_defer)
            same(best_option(prior, eps).eu_learn, reference.eu_learn)
        same(best_option(prior, 0.0).delta, reference.delta)
        same(defer_threshold(prior), reference.threshold_epsilon)


def test_one_zero_split_per_report_and_no_decision_problem(monkeypatch):
    calls = []
    real = offswitch.zero_split
    monkeypatch.setattr(offswitch, "zero_split", lambda prior: calls.append(prior) or real(prior))
    monkeypatch.setattr(offswitch, "DecisionProblem", None)  # building one would raise TypeError
    for prior in (Uniform(-10, 90), Discrete(((0.0, 0.5), (-1.0, 0.5))), Uniform(1, 3)):
        best_option(prior, 0.02)
        assert len(calls) == 1
        theorem1_check(prior)
        assert len(calls) == 2
        calls.clear()
