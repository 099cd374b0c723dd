import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offswitch_lab.core import (
    CHECK_TOL,
    Act,
    ComplementConditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    PowerRisk,
    RiskWeightedRule,
    SignalChannel,
    StayAtPrior,
    TableRisk,
    bayes_step,
)
from offswitch_lab.distributions import Uniform, mean
from offswitch_lab.offswitch import reduce_to_two_state
from offswitch_lab.search import CredalSearch
from offswitch_lab.voi import (
    SignalOutcome,
    evaluate_rule,
    value_of_learning_eu,
    value_of_learning_faulty,
    value_of_learning_rule,
)
from oracles import faulty_voi, gamma_voi, reu_voi


def random_problem_and_channel(rng, states=3, acts=3, signals=2, span=10.0):
    prior = tuple(rng.dirichlet(np.ones(states)))
    utilities = rng.uniform(-span, span, size=(acts, states))
    rows = rng.dirichlet(np.ones(signals), size=states)
    problem = DecisionProblem(
        tuple(f"s{i}" for i in range(states)),
        prior,
        tuple(Act(f"a{k}", tuple(u)) for k, u in enumerate(utilities)),
    )
    channel = SignalChannel(
        tuple(f"e{j}" for j in range(signals)), tuple(tuple(r) for r in rows)
    )
    return problem, channel


# a one-signal channel teaches nothing, so its report carries the choose-now value alone
UNINFORMATIVE = SignalChannel(("only",), ((1.0,), (1.0,)))


def test_value_now_on_basic_embedding_equals_prior_mean():
    prior = Uniform(-40, 60)
    problem, channel = reduce_to_two_state(prior, 0.0)
    report = value_of_learning_rule(problem, problem.prior, channel, ExpectedUtilityRule())
    assert report.value_now == pytest.approx(mean(prior), abs=1e-12)
    assert report.value_now == pytest.approx(10.0, abs=1e-12)


def test_value_now_single_act_returns_its_value():
    problem = DecisionProblem(("a", "b"), (0.5, 0.5), (Act("only", (2.0, 6.0)),))
    report = value_of_learning_rule(problem, problem.prior, UNINFORMATIVE, ExpectedUtilityRule())
    assert report.value_now == pytest.approx(4.0)


def test_value_now_point_mass_reads_best_column():
    problem = DecisionProblem(
        ("a", "b"), (1.0, 0.0), (Act("x", (3.0, -9.0)), Act("y", (1.0, 99.0)))
    )
    report = value_of_learning_rule(problem, (1.0, 0.0), UNINFORMATIVE, ExpectedUtilityRule())
    assert report.value_now == 3.0


def test_value_now_missing_rule_data():
    with pytest.raises(ValueError, match="risk must be an instance of PowerRisk, TableRisk, got None"):
        RiskWeightedRule(None)
    with pytest.raises(ValueError, match="credal must be an instance of CredalSet, got None"):
        GammaMaximinRule(None)


def test_learning_eu_confident_embedding_books_after_both_signals():
    problem, channel = reduce_to_two_state(Uniform(-10, 90), 0.02)
    report = value_of_learning_eu(problem, problem.prior, channel)
    assert report.value_learning == pytest.approx(40.0, abs=1e-9)
    assert report.value_now == pytest.approx(40.0, abs=1e-9)
    assert report.voi == pytest.approx(0.0, abs=1e-9)
    assert [row.act_index for row in report.per_signal] == [0, 0]


def test_learning_eu_perfect_partition_information():
    problem = DecisionProblem(
        ("g", "b"),
        (0.6, 0.4),
        (Act("act", (30.0, -20.0)), Act("nothing", (0.0, 0.0))),
    )
    channel = SignalChannel(("approve", "reject"), ((1.0, 0.0), (0.0, 1.0)))
    report = value_of_learning_eu(problem, problem.prior, channel)
    # per-state best column, weighted by state probability
    assert report.value_learning == pytest.approx(0.6 * 30.0 + 0.4 * 0.0, abs=1e-12)


def test_learning_eu_uninformative_channel_gives_zero_voi():
    problem = DecisionProblem(
        ("g", "b"), (0.3, 0.7), (Act("x", (5.0, -5.0)), Act("y", (0.0, 1.0)))
    )
    channel = SignalChannel(("u", "v"), ((0.5, 0.5), (0.5, 0.5)))
    report = value_of_learning_eu(problem, problem.prior, channel)
    assert report.voi == pytest.approx(0.0, abs=1e-12)


def test_learning_eu_skips_zero_marginal_signals():
    problem = DecisionProblem(
        ("g", "b"), (0.5, 0.5), (Act("x", (1.0, -1.0)), Act("y", (0.0, 0.0)))
    )
    channel = SignalChannel(
        ("s1", "s2", "never"), ((0.7, 0.3, 0.0), (0.2, 0.8, 0.0))
    )
    report = value_of_learning_eu(problem, problem.prior, channel)
    assert [row.signal for row in report.per_signal] == ["s1", "s2"]
    assert sum(row.marginal for row in report.per_signal) == pytest.approx(1.0, abs=1e-12)


def test_voi_report_identity_and_marginals():
    rng = np.random.default_rng(6)
    for _ in range(100):
        problem, channel = random_problem_and_channel(rng)
        report = value_of_learning_eu(problem, problem.prior, channel)
        assert report.voi == report.value_learning - report.value_now
        assert sum(r.marginal for r in report.per_signal) == pytest.approx(1.0, abs=1e-12)
        assert report.voi >= -1e-12


def test_rule_eu_tag_matches_plain_learning():
    rng = np.random.default_rng(14)
    problem, channel = random_problem_and_channel(rng)
    a = value_of_learning_eu(problem, problem.prior, channel)
    b = value_of_learning_rule(problem, problem.prior, channel, ExpectedUtilityRule())
    assert a == b


def test_rule_identity_risk_matches_plain_learning():
    rng = np.random.default_rng(15)
    for _ in range(200):
        problem, channel = random_problem_and_channel(rng)
        eu = value_of_learning_eu(problem, problem.prior, channel)
        reu = value_of_learning_rule(
            problem, problem.prior, channel, RiskWeightedRule(PowerRisk(1.0))
        )
        assert reu.value_learning == pytest.approx(eu.value_learning, abs=1e-10)
        assert reu.value_now == pytest.approx(eu.value_now, abs=1e-10)


def test_rule_reu_matches_independent_oracle():
    rng = np.random.default_rng(16)
    risk = PowerRisk(2)
    for _ in range(300):
        problem, channel = random_problem_and_channel(rng)
        report = value_of_learning_rule(
            problem, problem.prior, channel, RiskWeightedRule(risk)
        )
        assert report.voi == pytest.approx(reu_voi(problem, channel, risk), abs=1e-9)


def test_rule_reu_uninformative_channel_zero_voi():
    problem = DecisionProblem(
        ("g", "b"), (0.4, 0.6), (Act("x", (8.0, -3.0)), Act("y", (0.0, 0.0)))
    )
    channel = SignalChannel(("u", "v"), ((0.5, 0.5), (0.5, 0.5)))
    report = value_of_learning_rule(problem, problem.prior, channel, RiskWeightedRule(PowerRisk(2)))
    assert report.voi == pytest.approx(0.0, abs=1e-12)


def test_rule_gamma_singleton_matches_plain_learning():
    rng = np.random.default_rng(17)
    for _ in range(200):
        problem, channel = random_problem_and_channel(rng)
        eu = value_of_learning_eu(problem, problem.prior, channel)
        gamma = value_of_learning_rule(
            problem, problem.prior, channel, GammaMaximinRule(CredalSet((problem.prior,)))
        )
        assert gamma.value_learning == pytest.approx(eu.value_learning, abs=1e-10)
        assert gamma.value_now == pytest.approx(eu.value_now, abs=1e-10)


def test_rule_gamma_matches_independent_oracle():
    rng = np.random.default_rng(18)
    for _ in range(300):
        problem, channel = random_problem_and_channel(rng)
        credal = CredalSet(tuple(tuple(m) for m in rng.dirichlet(np.ones(3), size=2)))
        report = value_of_learning_rule(
            problem, problem.prior, channel, GammaMaximinRule(credal)
        )
        assert report.voi == pytest.approx(gamma_voi(problem, channel, credal), abs=1e-9)


def test_rule_gamma_member_that_rules_out_a_planned_signal_scores_the_plan_without_it():
    # the other member gives signal x mass, so the plan covers x; member
    # (0.5, 0.5, 0) gives x none, so its score skips x, and it is the worst
    problem = DecisionProblem(
        ("s0", "s1", "s2"),
        (0.3, 0.3, 0.4),
        (Act("a", (1.0, -1.0, 0.5)), Act("b", (-0.5, 0.8, -2.0)), Act("c", (0.0, 0.0, 0.0))),
    )
    channel = SignalChannel(("x", "y"), ((0.0, 1.0), (0.0, 1.0), (1.0, 0.0)))
    credal = CredalSet(((0.5, 0.5, 0.0), (0.2, 0.3, 0.5)))
    report = value_of_learning_rule(problem, problem.prior, channel, GammaMaximinRule(credal))
    assert report.voi == gamma_voi(problem, channel, credal) == 0.15000000000000002
    assert [row.signal for row in report.per_signal] == ["y"]


def test_rule_gamma_uninformative_channel_zero_voi():
    problem = DecisionProblem(
        ("g", "b"), (0.4, 0.6), (Act("x", (8.0, -3.0)), Act("y", (0.0, 0.0)))
    )
    channel = SignalChannel(("u", "v"), ((0.5, 0.5), (0.5, 0.5)))
    credal = CredalSet(((0.2, 0.8), (0.7, 0.3)))
    report = value_of_learning_rule(problem, problem.prior, channel, GammaMaximinRule(credal))
    assert report.voi == pytest.approx(0.0, abs=1e-12)


def test_faulty_q_zero_reduces_to_plain_learning():
    rng = np.random.default_rng(19)
    problem, channel = random_problem_and_channel(rng)
    eu = value_of_learning_eu(problem, problem.prior, channel)
    faulty = value_of_learning_faulty(
        problem, problem.prior, channel, Faulty(0.0, ComplementConditionalization())
    )
    assert faulty.value_learning == pytest.approx(eu.value_learning, abs=1e-12)
    assert faulty.voi == pytest.approx(eu.voi, abs=1e-12)


def test_faulty_certain_stay_at_prior_reaggregates_to_value_now():
    rng = np.random.default_rng(20)
    for _ in range(100):
        problem, channel = random_problem_and_channel(rng)
        report = value_of_learning_faulty(
            problem, problem.prior, channel, Faulty(1.0, StayAtPrior())
        )
        assert report.value_learning == pytest.approx(report.value_now, abs=1e-12)


def test_faulty_stay_at_prior_never_averse():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        problem, channel = random_problem_and_channel(rng)
        q = float(rng.uniform(0, 1))
        report = value_of_learning_faulty(
            problem, problem.prior, channel, Faulty(q, StayAtPrior())
        )
        assert report.voi >= -1e-12


def test_faulty_stay_at_prior_learning_value_nonincreasing_in_q():
    rng = np.random.default_rng(22)
    for _ in range(50):
        problem, channel = random_problem_and_channel(rng)
        values = [
            value_of_learning_faulty(
                problem, problem.prior, channel, Faulty(q, StayAtPrior())
            ).value_learning
            for q in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        for lo_q, hi_q in zip(values, values[1:]):
            assert hi_q <= lo_q + 1e-12


def test_faulty_complement_matches_independent_oracle():
    rng = np.random.default_rng(23)
    updater = Faulty(0.5, ComplementConditionalization())
    for _ in range(300):
        problem, channel = random_problem_and_channel(rng)
        report = value_of_learning_faulty(problem, problem.prior, channel, updater)
        assert report.voi == pytest.approx(faulty_voi(problem, channel, updater), abs=1e-9)


def test_faulty_custom_matches_independent_oracle_and_returns_table_choice():
    rng = np.random.default_rng(24)
    for _ in range(100):
        problem, channel = random_problem_and_channel(rng)
        table = CustomPosterior(
            {s: tuple(rng.dirichlet(np.ones(3))) for s in channel.signals}
        )
        updater = Faulty(0.7, table)
        report = value_of_learning_faulty(problem, problem.prior, channel, updater)
        assert report.voi == pytest.approx(faulty_voi(problem, channel, updater), abs=1e-9)


def test_faulty_ties_go_to_the_lowest_index_at_the_posterior_and_the_misupdated_belief():
    # posteriors (0.75, 0.25) on x and (0.25, 0.75) on y, and the complement
    # misupdate swaps them. At (0.75, 0.25) acts 0 and 1 tie at 1.0, at
    # (0.25, 0.75) acts 1 and 2 do; every number here is exact in binary
    problem = DecisionProblem(
        ("s0", "s1"), (0.5, 0.5), (Act("a0", (2.0, -2.0)), Act("a1", (1.0, 1.0)), Act("a2", (-2.0, 2.0)))
    )
    channel = SignalChannel(("x", "y"), ((0.75, 0.25), (0.25, 0.75)))
    report = value_of_learning_faulty(problem, problem.prior, channel, Faulty(0.5, ComplementConditionalization()))
    # on x: act 0 by the tie at the posterior; the misupdated belief picks act 1
    # (not act 2), worth 1.0 at the posterior. On y: act 1; the misupdated
    # belief picks act 0 (not act 1), worth -1.0 at the posterior
    assert report.per_signal == (SignalOutcome("x", 0.5, 0, 1.0), SignalOutcome("y", 0.5, 1, 0.0))
    assert (report.value_now, report.value_learning, report.voi) == (1.0, 0.5, -0.5)


@st.composite
def problems_with_channels(draw):
    """A problem of 2-4 states and 2-4 acts and a channel of 2-3 signals, every
    probability vector a list of weights divided by their sum."""
    states, acts, signals = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 3))

    def simplex(size):
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(lambda r: sum(r) > 0.1))
        return tuple(x / sum(raw) for x in raw)

    utilities = st.lists(st.floats(-10.0, 10.0), min_size=states, max_size=states)
    problem = DecisionProblem(
        tuple(f"s{i}" for i in range(states)), simplex(states),
        tuple(Act(f"a{k}", tuple(draw(utilities))) for k in range(acts)),
    )
    channel = SignalChannel(tuple(f"e{j}" for j in range(signals)), tuple(simplex(signals) for _ in range(states)))
    return problem, channel


@settings(max_examples=200, deadline=None)
@given(problems_with_channels(), st.floats(0.0, 1.0))
def test_a_misfire_to_the_posterior_best_act_leaves_the_expected_utility_voi_bit_for_bit(case, q):
    # a custom table of the true posteriors misfires to the act the posterior
    # picks on every signal, so the agent always acts as the Bayesian does
    problem, channel = case
    posteriors = [bayes_step(problem.prior, channel, j)[1] for j in range(len(channel.signals))]
    table = {signal: post or problem.prior for signal, post in zip(channel.signals, posteriors)}
    faulty = evaluate_rule(problem, channel, Faulty(q, CustomPosterior(table)))
    eu = value_of_learning_eu(problem, problem.prior, channel)
    assert (faulty.value_now, faulty.value_learning, faulty.voi, faulty.per_signal) == (
        eu.value_now, eu.value_learning, eu.voi, eu.per_signal
    )


def test_faulty_requires_faulty_updater():
    problem = DecisionProblem(("a", "b"), (0.5, 0.5), (Act("x", (1.0, 2.0)),))
    channel = SignalChannel(("u", "v"), ((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(ValueError, match="faulty learning value needs a Faulty updater"):
        value_of_learning_faulty(problem, problem.prior, channel, ExpectedUtilityRule())


def test_faulty_null_complement_misfires_to_the_belief():
    # the certain signal's complement has no mass, so the misfire stays at the
    # belief and picks x there, as a correct update does: the voi is 0, the
    # expected-utility learner's
    problem = DecisionProblem(("a", "b"), (0.5, 0.5), (Act("x", (1.0, 2.0)), Act("y", (2.0, -2.0))))
    certain = SignalChannel(("only", "never"), ((1.0, 0.0), (1.0, 0.0)))
    updater = Faulty(0.5, ComplementConditionalization())
    report = value_of_learning_faulty(problem, problem.prior, certain, updater)
    assert report.per_signal == (SignalOutcome("only", 1.0, 0, 1.5),)
    assert (report.value_now, report.value_learning, report.voi) == (1.5, 1.5, 0.0)
    assert faulty_voi(problem, certain, updater) == value_of_learning_eu(problem, problem.prior, certain).voi == 0.0


def test_goods_inequality_on_random_instances():
    rng = np.random.default_rng(25)
    for _ in range(2000):
        problem, channel = random_problem_and_channel(rng)
        report = value_of_learning_eu(problem, problem.prior, channel)
        assert report.voi >= -1e-12


@st.composite
def revealing_problems(draw):
    """A problem of 2-4 states and 2-4 acts, a second prior, and a channel whose
    signals reveal the state: a permutation of the identity matrix."""
    states, acts = draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def row(values):
        return st.lists(values, min_size=states, max_size=states)

    def simplex():
        raw = draw(row(st.floats(0.0, 1.0)).filter(lambda r: sum(r) > 0.1))
        return tuple(x / sum(raw) for x in raw)

    acts = tuple(Act(f"a{k}", tuple(draw(row(st.floats(-10.0, 10.0))))) for k in range(acts))
    problem = DecisionProblem(tuple(f"s{i}" for i in range(states)), simplex(), acts)
    order = draw(st.permutations(range(states)))
    likelihood = tuple(tuple(float(j == order[i]) for j in range(states)) for i in range(states))
    return problem, simplex(), SignalChannel(tuple(f"e{j}" for j in range(states)), likelihood)


# a revealing case with upper tails of 2.3e-16 and 5.4e-18 beside a mass near 1
THIN_TAILS = (
    DecisionProblem(
        ("s0", "s1", "s2"),
        (0.9999999999999998, 2.2204460492503126e-16, 5.444408234977618e-18),
        (Act("a0", (-1.0, 0.0, 0.0)), Act("a1", (-1.0, 1.0, -1.0))),
    ),
    (0.0, 0.0, 1.0),
    SignalChannel(("e0", "e1", "e2"), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
)


@settings(max_examples=200, deadline=None)
@given(revealing_problems())
@example(THIN_TAILS)
def test_a_channel_that_reveals_the_state_is_never_rejected_by_a_dominance_respecting_rule(case):
    # every posterior is a point mass, so the learn-then-choose plan takes the
    # best act in each state and dominates every act state by state; expected
    # utility, risk-weighted utility and gamma-maximin all respect dominance
    problem, other, channel = case
    rules = [
        ExpectedUtilityRule(),
        RiskWeightedRule(PowerRisk(2.0)),
        RiskWeightedRule(PowerRisk(0.5)),
        RiskWeightedRule(TableRisk(((0.0, 0.0), (0.4, 0.1), (0.6, 0.9), (1.0, 1.0)))),
        GammaMaximinRule(CredalSet((problem.prior, other))),
    ]
    for rule in rules:
        assert evaluate_rule(problem, channel, rule).voi >= -CHECK_TOL, rule


def test_a_thin_revealed_tail_gets_its_exact_risk_weighted_voi():
    # a1 is best now at -1 + 2 sqrt(p1); the plan takes a1 in s1 and a0 in s2,
    # which is worth -1 + sqrt(p1 + p2) + sqrt(p1) under r(p) = sqrt(p)
    problem, _, channel = THIN_TAILS
    p1, p2 = problem.prior[1:]
    voi = evaluate_rule(problem, channel, RiskWeightedRule(PowerRisk(0.5))).voi
    assert abs(voi - (math.sqrt(p1 + p2) - math.sqrt(p1))) <= 1e-15


def test_a_channel_that_reveals_the_state_can_be_rejected_by_a_complement_misfire():
    # the contrast: a misfire to the complement of a revealed state believes the
    # other state and picks the act best there, which is worst in the revealed
    # one, so an agent that may fail to learn the state declines to observe it
    acts = (Act("x", (1.0, -3.0)), Act("y", (-3.0, 1.0)), Act("z", (0.0, 0.0)))
    problem = DecisionProblem(("a", "b"), (0.5, 0.5), acts)
    revealing = SignalChannel(("is-a", "is-b"), ((1.0, 0.0), (0.0, 1.0)))
    report = evaluate_rule(problem, revealing, Faulty(0.5, ComplementConditionalization()))
    assert (report.value_now, report.value_learning, report.voi) == (0.0, -1.0, -1.0)


@pytest.mark.parametrize("rule", [CredalSearch(), None], ids=["search-rule", "none"])
def test_evaluate_rule_rejects_what_is_neither_a_rule_nor_an_updater(rule):
    # both used to be valued as expected utility: 7.1e-15 on this embedding
    problem, channel = reduce_to_two_state(Uniform(-10, 90), 0.1)
    named = re.escape(f"got {rule!r}") + "$"
    with pytest.raises(ValueError, match=named):
        evaluate_rule(problem, channel, rule)
    with pytest.raises(ValueError, match=named):
        value_of_learning_rule(problem, problem.prior, channel, rule)
