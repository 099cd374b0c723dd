import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offswitch_lab.core import (
    Act,
    ComplementConditionalization,
    Conditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    Faulty,
    GammaMaximinRule,
    IdentityRisk,
    PowerRisk,
    RiskWeightedRule,
    SignalChannel,
    StayAtPrior,
    TableRisk,
    as_probability_vector,
    bayes_step,
    best_act_eu,
    gamma_maximin,
    is_identity_risk,
    misupdate,
    risk_weighted_value,
)
from offswitch_lab.errors import DimensionMismatch, MissingRuleData, ZeroMarginal
from offswitch_lab.jsonio import check_fields
from oracles import reu_decumulative


def two_state_problem(acts):
    return DecisionProblem(("good", "bad"), (0.5, 0.5), tuple(Act(n, u) for n, u in acts))


FLIP_02 = SignalChannel(("approve", "reject"), ((0.98, 0.02), (0.02, 0.98)))
PARTITION = SignalChannel(("approve", "reject"), ((1.0, 0.0), (0.0, 1.0)))


def expected_utility(problem, act_index, belief):
    """One act's expected utility, as the best act of a menu holding only it."""
    alone = DecisionProblem(problem.states, problem.prior, (problem.acts[act_index],))
    return best_act_eu(alone, belief)[1]


def risk_weighted_eu(problem, act_index, belief, risk):
    """One act's rank-dependent value under the belief."""
    return risk_weighted_value(zip(problem.acts[act_index].utilities, belief), risk)


def test_expected_utility_defer_branch_value():
    problem = two_state_problem([("defer", (30.0, 0.0))])
    assert expected_utility(problem, 0, (0.6, 0.4)) == pytest.approx(18.0, abs=1e-12)


def test_expected_utility_degenerate_belief_reads_column():
    problem = two_state_problem([("a", (7.0, -3.0))])
    assert expected_utility(problem, 0, (1.0, 0.0)) == 7.0
    assert expected_utility(problem, 0, (0.0, 1.0)) == -3.0


def test_expected_utility_symmetric_belief_cancels():
    problem = two_state_problem([("a", (1.0, -1.0))])
    assert expected_utility(problem, 0, (0.5, 0.5)) == 0.0


def test_expected_utility_dimension_mismatch():
    problem = two_state_problem([("a", (1.0, 2.0))])
    with pytest.raises(DimensionMismatch):
        expected_utility(problem, 0, (0.2, 0.3, 0.5))


def test_best_act_confident_booking():
    problem = two_state_problem([("book", (45.0, -5.0)), ("nothing", (0.0, 0.0))])
    index, value = best_act_eu(problem, (0.9, 0.1))
    assert index == 0
    assert value == pytest.approx(40.0, abs=1e-12)


def test_best_act_single_act():
    problem = two_state_problem([("only", (2.0, 4.0))])
    assert best_act_eu(problem, (0.5, 0.5)) == (0, 3.0)


def test_best_act_tie_breaks_to_lowest_index():
    problem = two_state_problem([("first", (1.0, 1.0)), ("second", (1.0, 1.0))])
    assert best_act_eu(problem, (0.5, 0.5))[0] == 0


def test_best_act_value_invariant_under_act_permutation_and_removal():
    rng = np.random.default_rng(42)
    for _ in range(200):
        utilities = rng.uniform(-10, 10, size=(4, 3))
        prior = rng.dirichlet(np.ones(3))
        acts = tuple(Act(f"a{i}", tuple(u)) for i, u in enumerate(utilities))
        problem = DecisionProblem(("x", "y", "z"), tuple(prior), acts)
        _, value = best_act_eu(problem, problem.prior)
        shuffled = DecisionProblem(("x", "y", "z"), tuple(prior), acts[::-1])
        assert best_act_eu(shuffled, problem.prior)[1] == pytest.approx(value, abs=1e-12)
        for drop in range(4):
            reduced = DecisionProblem(
                ("x", "y", "z"), tuple(prior), acts[:drop] + acts[drop + 1 :]
            )
            assert best_act_eu(reduced, problem.prior)[1] <= value + 1e-12


def test_posterior_flip_channel_matches_bayes_formula():
    eps = 0.02
    # joint/marginal arithmetic done from scratch
    expected_prefer = 0.9 * (1 - eps) / (0.1 * eps + 0.9 * (1 - eps))
    _, post = bayes_step((0.9, 0.1), FLIP_02, 0)
    assert post[0] == pytest.approx(expected_prefer, abs=1e-12)
    assert post[0] == pytest.approx(0.99774, abs=5e-6)
    assert sum(post) == pytest.approx(1.0, abs=1e-12)


def test_posterior_partition_channel_renormalizes_cell():
    channel = SignalChannel(("left", "right"), ((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    _, post = bayes_step((0.2, 0.3, 0.5), channel, 0)
    assert post == pytest.approx((0.4, 0.6, 0.0), abs=1e-12)


def test_posterior_noiseless_flip_equals_partition_case():
    noiseless = SignalChannel(("approve", "reject"), ((1.0, 0.0), (0.0, 1.0)))
    assert noiseless.likelihood == ((1.0, 0.0), (0.0, 1.0))
    assert bayes_step((0.9, 0.1), noiseless, 0)[1] == pytest.approx((1.0, 0.0))


def test_posterior_zero_marginal_gives_no_posterior():
    assert bayes_step((1.0, 0.0), PARTITION, 1) == (0.0, None)


def test_signal_marginal_footnote_value():
    assert bayes_step((0.9, 0.1), FLIP_02, 0)[0] == pytest.approx(0.884, abs=1e-12)


def test_signal_marginals_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        belief = tuple(rng.dirichlet(np.ones(3)))
        rows = rng.dirichlet(np.ones(4), size=3)
        channel = SignalChannel(tuple("abcd"), tuple(tuple(r) for r in rows))
        total = sum(bayes_step(belief, channel, j)[0] for j in range(len(channel.signals)))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_signal_marginal_partition_equals_cell_prior():
    channel = SignalChannel(("left", "right"), ((1.0, 0.0), (0.0, 1.0)))
    assert bayes_step((0.3, 0.7), channel, 0)[0] == pytest.approx(0.3)


def test_law_of_total_probability_reconstructs_belief():
    rng = np.random.default_rng(8)
    for _ in range(100):
        belief = tuple(rng.dirichlet(np.ones(3)))
        rows = rng.dirichlet(np.ones(2), size=3)
        channel = SignalChannel(("u", "v"), tuple(tuple(r) for r in rows))
        mixed = [0.0, 0.0, 0.0]
        for j in range(len(channel.signals)):
            marg, post = bayes_step(belief, channel, j)
            if post is None:
                continue
            for i, p in enumerate(post):
                mixed[i] += marg * p
        assert mixed == pytest.approx(belief, abs=1e-12)


@st.composite
def small_problems(draw):
    n_states = draw(st.integers(2, 4))
    n_acts = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n_states, max_size=n_states))
    total = sum(raw)
    prior = tuple(x / total for x in raw)
    acts = tuple(
        Act(
            f"a{i}",
            tuple(
                draw(
                    st.lists(
                        st.floats(-50, 50, allow_nan=False),
                        min_size=n_states,
                        max_size=n_states,
                    )
                )
            ),
        )
        for i in range(n_acts)
    )
    return DecisionProblem(tuple(f"s{i}" for i in range(n_states)), prior, acts)


@given(small_problems())
def test_identity_risk_recovers_expected_utility(problem):
    for i in range(len(problem.acts)):
        reu = risk_weighted_eu(problem, i, problem.prior, IdentityRisk())
        assert reu == pytest.approx(expected_utility(problem, i, problem.prior), abs=1e-10)


def test_constant_act_has_its_constant_value_under_any_risk():
    problem = two_state_problem([("flat", (3.0, 3.0))])
    for risk in (IdentityRisk(), PowerRisk(2), PowerRisk(0.5), TableRisk(((0, 0), (0.3, 0.1), (1, 1)))):
        assert risk_weighted_eu(problem, 0, (0.25, 0.75), risk) == pytest.approx(3.0, abs=1e-12)


def test_risk_weighted_hand_example_power_two():
    problem = two_state_problem([("gamble", (0.0, 100.0))])
    value = risk_weighted_eu(problem, 0, (0.5, 0.5), PowerRisk(2))
    assert value == pytest.approx(25.0, abs=1e-12)


@given(
    st.lists(
        st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.25, 4.0),
)
def test_risk_weighted_value_matches_decumulative_oracle(raw, k):
    total = sum(p for _, p in raw)
    prospect = [(u, p / total) for u, p in raw]
    risk = PowerRisk(k)
    assert risk_weighted_value(prospect, risk) == pytest.approx(
        reu_decumulative(prospect, risk), abs=1e-9
    )


def test_risk_weighted_value_is_real_on_a_thin_top_tail():
    # the tail above the middle outcome rounds below 0 when found by subtraction
    prospect = zip((0.0, 1.0, 2.0), (0.7496485088146057, 0.2503514911853944, 9.815048709252268e-18))
    value = risk_weighted_value(prospect, PowerRisk(0.5))
    assert type(value) is float
    assert 0.0 <= value <= 2.0


@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.one_of(st.floats(1e-18, 1e-15), st.floats(0.01, 1.0)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.one_of(st.floats(0.25, 4.0).map(PowerRisk), st.just(TableRisk(((0, 0), (0.3, 0.1), (1, 1))))),
)
def test_risk_weighted_value_is_a_real_number_between_the_extreme_utilities(raw, risk):
    total = sum(p for _, p in raw)
    prospect = [(u, p / total) for u, p in raw]
    utilities = [u for u, _ in raw]
    value = risk_weighted_value(prospect, risk)
    assert type(value) is float
    slack = 1e-12 * (1.0 + max(map(abs, utilities)))  # rounding of a few sums of increments
    assert min(utilities) - slack <= value <= max(utilities) + slack


def test_risk_weighted_monotone_under_pointwise_dominance():
    rng = np.random.default_rng(19)
    risk = PowerRisk(2)
    for _ in range(300):
        prior = tuple(rng.dirichlet(np.ones(3)))
        base = rng.uniform(-10, 10, size=3)
        bump = rng.uniform(0, 5, size=3)
        problem = DecisionProblem(
            ("x", "y", "z"),
            prior,
            (Act("hi", tuple(base + bump)), Act("lo", tuple(base))),
        )
        hi = risk_weighted_eu(problem, 0, prior, risk)
        lo = risk_weighted_eu(problem, 1, prior, risk)
        assert hi >= lo - 1e-12


def test_table_risk_interpolates_and_validates():
    table = TableRisk(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    assert table.weight(0.25) == pytest.approx(0.1)
    assert table.weight(0.75) == pytest.approx(0.6)
    assert table.weight(0.0) == 0.0
    assert table.weight(1.0) == 1.0
    with pytest.raises(ValueError):
        TableRisk(((0.0, 0.1), (1.0, 1.0)))
    with pytest.raises(ValueError):
        TableRisk(((0.0, 0.0), (0.6, 0.9), (0.4, 0.2), (1.0, 1.0)))
    with pytest.raises(ValueError):
        TableRisk(((0.0, 0.0), (0.5, 0.8), (0.6, 0.2), (1.0, 1.0)))
    with pytest.raises(ValueError, match="non-decreasing"):
        TableRisk(((0.0, 0.0), (0.5, float("nan")), (1.0, 1.0)))


def test_power_risk_requires_positive_exponent():
    with pytest.raises(ValueError):
        PowerRisk(0)
    with pytest.raises(ValueError):
        PowerRisk(-2)


def test_is_identity_risk_spellings():
    assert is_identity_risk(IdentityRisk())
    assert is_identity_risk(PowerRisk(1.0))
    assert is_identity_risk(TableRisk(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))))
    assert not is_identity_risk(PowerRisk(2.0))
    assert not is_identity_risk(TableRisk(((0.0, 0.0), (0.5, 0.4), (1.0, 1.0))))


def test_gamma_maximin_singleton_reduces_to_best_act():
    rng = np.random.default_rng(31)
    for _ in range(100):
        prior = tuple(rng.dirichlet(np.ones(3)))
        acts = tuple(Act(f"a{i}", tuple(rng.uniform(-5, 5, 3))) for i in range(3))
        problem = DecisionProblem(("x", "y", "z"), prior, acts)
        assert gamma_maximin(problem, CredalSet((prior,))) == best_act_eu(problem, prior)


def test_gamma_maximin_worked_example():
    problem = two_state_problem([("safe", (1.0, 1.0)), ("risky", (0.0, 3.0))])
    credal = CredalSet(((0.5, 0.5), (0.9, 0.1)))
    index, value = gamma_maximin(problem, credal)
    assert (index, value) == (0, 1.0)


def test_gamma_maximin_constant_acts_pick_largest_constant():
    problem = two_state_problem([("low", (1.0, 1.0)), ("high", (2.0, 2.0))])
    credal = CredalSet(((0.5, 0.5), (0.2, 0.8)))
    assert gamma_maximin(problem, credal) == (1, 2.0)


def test_gamma_maximin_never_beats_any_member_optimum():
    rng = np.random.default_rng(77)
    for _ in range(200):
        prior_members = tuple(tuple(m) for m in rng.dirichlet(np.ones(3), size=3))
        acts = tuple(Act(f"a{i}", tuple(rng.uniform(-5, 5, 3))) for i in range(3))
        problem = DecisionProblem(("x", "y", "z"), prior_members[0], acts)
        credal = CredalSet(prior_members)
        _, value = gamma_maximin(problem, credal)
        for member in prior_members:
            assert value <= best_act_eu(problem, member)[1] + 1e-12


def test_gamma_maximin_dimension_mismatch():
    problem = two_state_problem([("a", (1.0, 2.0))])
    with pytest.raises(DimensionMismatch):
        gamma_maximin(problem, CredalSet(((0.2, 0.3, 0.5),)))


def test_misupdate_stay_at_prior_is_identity():
    belief = (0.9, 0.1)
    assert misupdate(belief, FLIP_02, "approve", StayAtPrior()) == belief


def test_misupdate_complement_on_binary_partition_is_other_signal():
    belief = (0.3, 0.7)
    wrong = misupdate(belief, PARTITION, "approve", ComplementConditionalization())
    assert wrong == pytest.approx(bayes_step(belief, PARTITION, 1)[1], abs=1e-12)


def test_misupdate_custom_returns_table_entry_verbatim():
    table = CustomPosterior({"approve": (0.25, 0.75), "reject": (1.0, 0.0)})
    got = misupdate((0.9, 0.1), FLIP_02, "approve", table)
    assert got == (0.25, 0.75)


def test_misupdate_null_complement_raises():
    certain = SignalChannel(("only", "never"), ((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ZeroMarginal):
        misupdate((0.5, 0.5), certain, "only", ComplementConditionalization())


def test_custom_posterior_missing_signal_raises():
    table = CustomPosterior({"approve": (0.5, 0.5)})
    with pytest.raises(MissingRuleData):
        misupdate((0.9, 0.1), FLIP_02, "reject", table)


def test_problem_and_channel_validation():
    with pytest.raises(ValueError):
        DecisionProblem(("a",), (1.0,), ())
    with pytest.raises(ValueError):
        DecisionProblem(("a", "b"), (0.7, 0.7), (Act("x", (1.0, 2.0)),))
    with pytest.raises(DimensionMismatch):
        DecisionProblem(("a", "b"), (0.5, 0.5), (Act("x", (1.0,)),))
    with pytest.raises(ValueError):
        SignalChannel(("s",), ((0.5,),))
    with pytest.raises(DimensionMismatch, match="likelihood row 0 has 1 entries for 2 signals"):
        SignalChannel(("s", "t"), ((1.0,),))
    with pytest.raises(ValueError):
        CredalSet(())
    assert FLIP_02.likelihood == ((0.98, 0.02), (0.02, 0.98))
    assert PARTITION.likelihood == ((1.0, 0.0), (0.0, 1.0))


def test_channel_rejects_repeated_signal_names():
    # the complement's column and a custom posterior are found by signal name
    with pytest.raises(ValueError, match=r"repeated signal names: \['x'\]"):
        SignalChannel(("x", "x"), ((0.9, 0.1), (0.2, 0.8)))
    with pytest.raises(ValueError, match=r"repeated signal names: \['a', 'b'\]"):
        SignalChannel(("b", "a", "b", "a"), ((0.25, 0.25, 0.25, 0.25),))
    assert SignalChannel(("x", "y"), ((0.9, 0.1), (0.2, 0.8))).signals == ("x", "y")


def test_custom_posterior_rejects_repeated_signal_names():
    # evaluation reads a signal's first entry and the JSON codec writes an
    # object, which keeps the last: as a faulty updater (q 0.5) on prior
    # (0.5, 0.5), acts (1, -1), (0, 0), (-0.3, 0.6) and rows (0.9, 0.1),
    # (0.2, 0.8), this table's voi of 0.425 replayed to 0.2125 after a round
    # trip through witness JSON
    with pytest.raises(ValueError, match=r"repeated signal names: \['s'\]"):
        CustomPosterior((("s", (1.0, 0.0)), ("s", (0.0, 1.0)), ("t", (0.5, 0.5))))
    table = CustomPosterior((("t", (0.5, 0.5)), ("s", (1.0, 0.0))))
    assert table.table == (("t", (0.5, 0.5)), ("s", (1.0, 0.0)))


@pytest.mark.parametrize(
    "kind",
    ["complement-conditionalization", ComplementConditionalization, Conditionalization()],
    ids=["mode-name", "class", "conditionalization"],
)
def test_faulty_rejects_a_kind_that_is_not_a_misupdate(kind):
    with pytest.raises(ValueError, match="misupdate kind must be an instance of"):
        Faulty(0.5, kind)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RiskWeightedRule(2.0), "risk"),
        (lambda: RiskWeightedRule("power:2"), "risk"),
        (lambda: GammaMaximinRule(((0.5, 0.5), (0.2, 0.8))), "credal"),
        (lambda: GammaMaximinRule([(1.0, 0.0)]), "credal"),
    ],
    ids=["risk-number", "risk-string", "credal-tuple", "credal-list"],
)
def test_rules_reject_rule_data_of_the_wrong_type(make, field):
    # each of these used to construct, and then failed with AttributeError
    # in voi.evaluate_rule and jsonio.encode_rule
    with pytest.raises(ValueError, match=f"^{field} must be an instance of"):
        make()
    for risk in (IdentityRisk(), PowerRisk(2), TableRisk(((0.0, 0.0), (1.0, 1.0)))):
        assert RiskWeightedRule(risk).risk == risk
    assert GammaMaximinRule(CredalSet(((1.0, 0.0),))).credal == CredalSet(((1.0, 0.0),))


NAN, INF = float("nan"), float("inf")


def raised(fn, *args) -> tuple:
    """The type and message of the error ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "vec,message",
    [
        ((0.5, NAN, 0.5), "prior has negative or non-finite entries: (0.5, nan, 0.5)"),
        ((NAN, -1.0, 2.0), "prior has negative or non-finite entries: (nan, -1.0, 2.0)"),
        ((INF, 0.0), "prior has negative or non-finite entries: (inf, 0.0)"),
        ((2.0, -INF), "prior has negative or non-finite entries: (2.0, -inf)"),
        ((1.5, -0.5), "prior has negative or non-finite entries: (1.5, -0.5)"),
        ((), "prior must be non-empty"),
        ((0.5, 0.25), "prior sums to 0.75, expected 1 within 1e-12"),
    ],
    ids=["nan", "nan-first-then-negative", "inf", "minus-inf", "negative", "empty", "sum"],
)
def test_probability_vector_errors_are_unchanged(vec, message):
    assert raised(as_probability_vector, vec, "prior") == (ValueError, message)


def test_negative_zero_is_a_probability():
    assert as_probability_vector((-0.0, 1.0)) == (-0.0, 1.0)
    assert SignalChannel(("x", "y"), ((-0.0, 1.0), (1.0, 0.0))).likelihood[0] == (0.0, 1.0)
    assert Act("a", (-0.0,)).utilities == (-0.0,)


def test_act_and_channel_errors_are_unchanged():
    assert raised(Act, "a", (1.0, NAN)) == (ValueError, "act 'a' has non-finite utilities")
    assert raised(Act, "a", (-INF, 1.0)) == (ValueError, "act 'a' has non-finite utilities")
    assert raised(Act, "a", ()) == (ValueError, "act 'a' needs at least one utility")
    assert raised(SignalChannel, ("x", "y"), ((0.5, 0.5), (NAN, 1.0))) == (
        ValueError, "likelihood row 1 has negative or non-finite entries: (nan, 1.0)"
    )
    assert raised(SignalChannel, ("x", "y"), ((1.5, -0.5),)) == (
        ValueError, "likelihood row 0 has negative or non-finite entries: (1.5, -0.5)"
    )
    assert raised(SignalChannel, (), ((1.0,),)) == (ValueError, "channel needs at least one signal")
    assert raised(SignalChannel, ("y", "x", "y", "x"), ((0.25,) * 4,)) == (
        ValueError, "channel has repeated signal names: ['x', 'y']"
    )


def test_check_fields_errors_are_unchanged():
    required = ("kind", "rule")
    assert check_fields({"kind": 1, "rule": 2}, required, (), "block") is None
    # the right number of keys, one of them misspelled
    assert raised(check_fields, {"kind": 1, "rulez": 2}, required, (), "block") == (
        ValueError, "block has unknown fields: ['rulez']"
    )
    assert raised(check_fields, {"kind": 1}, required, (), "block") == (
        ValueError, "block is missing fields: ['rule']"
    )
    assert check_fields({"kind": 1, "rule": 2, "extra": 3}, required, ("extra",), "block") is None
    assert raised(check_fields, [("kind", 1)], required, (), "block") == (
        ValueError, "block must be a JSON object, got list"
    )
