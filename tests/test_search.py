import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offswitch_lab import search
from offswitch_lab.core import (
    CHECK_TOL,
    Faulty,
    GammaMaximinRule,
    IdentityRisk,
    PowerRisk,
    RiskWeightedRule,
    TableRisk,
)
from offswitch_lab.distributions import Discrete
from offswitch_lab.errors import RuleCannotBeAverse
from offswitch_lab.jsonio import witness_from_jsonable, witness_to_jsonable
from offswitch_lab.offswitch import theorem1_check
from offswitch_lab.search import (
    BLOCK_TRIALS,
    MAX_SIZE,
    MAX_TRIALS,
    REVERIFY_TOL,
    CredalSearch,
    EuSearch,
    FaultySearch,
    ReuSearch,
    SearchConfig,
    find_information_aversion,
    random_discrete_prior,
    random_instance,
    reproduces,
    verify_good,
    verify_theorem1,
)
from offswitch_lab.voi import replay_witness, value_of_learning_eu
from oracles import (
    block_draws,
    block_search,
    faulty_voi,
    gamma_voi,
    per_trial_good,
    per_trial_search,
    per_trial_theorem1,
    prior_draws,
    reu_voi,
)


def test_random_instance_is_reproducible_per_trial():
    config = SearchConfig(seed=42, trials=10)
    first = random_instance(config, 3)
    second = random_instance(config, 3)
    assert first == second


def test_random_instance_independent_of_evaluation_order():
    config = SearchConfig(seed=42, trials=10)
    forward = [random_instance(config, i) for i in range(5)]
    backward = [random_instance(config, i) for i in reversed(range(5))]
    assert forward == list(reversed(backward))


def test_different_seeds_give_different_first_instances():
    a = random_instance(SearchConfig(seed=42, trials=1), 0)
    b = random_instance(SearchConfig(seed=43, trials=1), 0)
    assert a != b


def test_generated_instances_satisfy_invariants():
    config = SearchConfig(seed=5, trials=1)
    for i in range(2000):
        problem, channel = random_instance(config, i)
        assert abs(sum(problem.prior) - 1.0) <= 1e-12
        assert all(abs(sum(row) - 1.0) <= 1e-12 for row in channel.likelihood)
        assert len(channel.likelihood) == len(problem.states)


def test_random_discrete_prior_stream_contains_both_support_kinds():
    config = SearchConfig(seed=6, trials=1)
    one_sided = two_sided = 0
    for i in range(500):
        prior = random_discrete_prior(config, i)
        assert isinstance(prior, Discrete)
        values = [v for v, _ in prior.atoms]
        if min(values) < 0 < max(values):
            two_sided += 1
        else:
            one_sided += 1
    assert one_sided > 0 and two_sided > 0


def test_verify_good_reports_zero_violations():
    report = verify_good(SearchConfig(seed=7, trials=2000))
    assert report.trials == 2000
    assert report.ok
    assert report.violations == ()


def test_verify_good_rejects_non_eu_rule():
    with pytest.raises(ValueError):
        verify_good(SearchConfig(seed=1, trials=1, rule=ReuSearch(PowerRisk(2))))


def test_verify_good_single_trial():
    assert verify_good(SearchConfig(seed=8, trials=1)).trials == 1


def test_verify_theorem1_reports_zero_violations():
    report = verify_theorem1(SearchConfig(seed=9, trials=2000))
    assert report.ok


def test_search_rejects_rules_that_cannot_be_averse():
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(SearchConfig(seed=1, trials=10, rule=EuSearch()))
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=ReuSearch(IdentityRisk()))
        )
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=ReuSearch(PowerRisk(1.0)))
        )
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(
            SearchConfig(
                seed=1,
                trials=10,
                rule=ReuSearch(TableRisk(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))),
            )
        )
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(SearchConfig(seed=1, trials=10, rule=CredalSearch(1)))
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=FaultySearch(0.5, "stay-at-prior"))
        )
    with pytest.raises(RuleCannotBeAverse):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=FaultySearch(0.0, "complement-conditionalization"))
        )


def test_reu_search_finds_verified_witnesses():
    config = SearchConfig(
        seed=11, trials=2000, state_count=2, act_count=2, signal_count=2,
        rule=ReuSearch(PowerRisk(2)),
    )
    witnesses = find_information_aversion(config)
    assert witnesses
    assert all(w.voi < -config.aversion_tolerance for w in witnesses)
    assert [w.voi for w in witnesses] == sorted(w.voi for w in witnesses)
    for w in witnesses[:20]:
        assert replay_witness(w) == pytest.approx(w.voi, abs=1e-10)
        assert reu_voi(w.problem, w.channel, w.rule.risk) < 0


def test_gamma_search_finds_verified_witnesses():
    config = SearchConfig(seed=12, trials=4000, rule=CredalSearch(2))
    witnesses = find_information_aversion(config)
    assert witnesses
    for w in witnesses[:20]:
        assert isinstance(w.rule, GammaMaximinRule)
        assert len(w.rule.credal.members) == 2
        assert replay_witness(w) == pytest.approx(w.voi, abs=1e-10)
        assert gamma_voi(w.problem, w.channel, w.rule.credal) < 0


def test_reproduces_within_the_tolerance_and_never_for_nan():
    assert reproduces(-1.0 + 0.5 * REVERIFY_TOL, -1.0)
    assert not reproduces(-1.0 + 2.0 * REVERIFY_TOL, -1.0)
    assert not reproduces(float("nan"), -1.0)


def test_faulty_search_finds_verified_witnesses():
    config = SearchConfig(
        seed=13, trials=1000, rule=FaultySearch(0.5, "complement-conditionalization")
    )
    witnesses = find_information_aversion(config)
    assert witnesses
    for w in witnesses[:20]:
        assert isinstance(w.rule, Faulty)
        assert replay_witness(w) == pytest.approx(w.voi, abs=1e-10)
        assert faulty_voi(w.problem, w.channel, w.rule) < 0


def test_faulty_custom_search_finds_witnesses():
    config = SearchConfig(seed=14, trials=1000, rule=FaultySearch(0.5, "custom-posterior"))
    witnesses = find_information_aversion(config)
    assert witnesses
    w = witnesses[0]
    assert faulty_voi(w.problem, w.channel, w.rule) == pytest.approx(w.voi, abs=1e-10)


def test_search_results_are_byte_identical_across_runs():
    config = SearchConfig(
        seed=15, trials=1500, state_count=2, act_count=2, signal_count=2,
        rule=ReuSearch(PowerRisk(2)),
    )
    first = json.dumps([witness_to_jsonable(w) for w in find_information_aversion(config)])
    second = json.dumps([witness_to_jsonable(w) for w in find_information_aversion(config)])
    assert first == second


def test_witness_json_round_trip_preserves_everything():
    config = SearchConfig(seed=16, trials=800, rule=CredalSearch(2))
    witnesses = find_information_aversion(config)
    assert witnesses
    for w in witnesses[:5]:
        round_tripped = witness_from_jsonable(json.loads(json.dumps(witness_to_jsonable(w))))
        assert round_tripped == w


EXACT_REPLAY_RULES = {
    "reu:power:2": ReuSearch(PowerRisk(2)),
    "reu:table": ReuSearch(TableRisk(((0.0, 0.0), (0.4, 0.1), (0.6, 0.9), (1.0, 1.0)))),
    "gamma:2": CredalSearch(2),
    "faulty:complement:0.5": FaultySearch(0.5, "complement-conditionalization"),
    "faulty:custom:0.5": FaultySearch(0.5, "custom-posterior"),
}


@pytest.mark.parametrize("name", sorted(EXACT_REPLAY_RULES))
def test_every_witness_replays_to_exactly_its_voi_from_its_json_text(name):
    # exact equality, not within REVERIFY_TOL: the decoded witness is evaluated
    # by the same float operations in the same order as the search's
    witnesses = find_information_aversion(SearchConfig(seed=3, trials=1024, rule=EXACT_REPLAY_RULES[name]))
    assert witnesses
    for w in witnesses:
        assert replay_witness(witness_from_jsonable(json.loads(json.dumps(witness_to_jsonable(w))))) == w.voi


def test_witness_from_jsonable_rejects_unknown_fields():
    config = SearchConfig(seed=16, trials=800, rule=CredalSearch(2))
    w = find_information_aversion(config)[0]
    obj = witness_to_jsonable(w)
    obj["surprise"] = 1
    with pytest.raises(ValueError):
        witness_from_jsonable(obj)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(seed=-1, trials=10)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, trials=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, trials=10, state_count=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, trials=10, aversion_tolerance=0.0)
    with pytest.raises(ValueError):
        FaultySearch(1.5, "complement-conditionalization")
    with pytest.raises(ValueError):
        FaultySearch(0.5, "mystery")
    with pytest.raises(ValueError):
        CredalSearch(0)


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: SearchConfig(seed=1.5, trials=10), "seed"),
        (lambda: SearchConfig(seed=True, trials=10), "seed"),
        (lambda: SearchConfig(seed=1, trials=2.5), "trials"),
        (lambda: SearchConfig(seed=1, trials=True), "trials"),
        (lambda: SearchConfig(seed=1, trials=10, state_count=2.0), "state_count"),
        (lambda: SearchConfig(seed=1, trials=10, act_count=2.0), "act_count"),
        (lambda: SearchConfig(seed=1, trials=10, signal_count=True), "signal_count"),
        (lambda: CredalSearch(2.0), "members"),
        (lambda: SearchConfig(seed=1, trials=10, aversion_tolerance=float("inf")), "aversion_tolerance"),
        (lambda: SearchConfig(seed=1, trials=10, aversion_tolerance=float("nan")), "aversion_tolerance"),
    ],
    ids=["seed-float", "seed-bool", "trials-float", "trials-bool", "states-float", "acts-float", "signals-bool",
         "members-float", "tolerance-inf", "tolerance-nan"],
)
def test_search_config_rejects_what_would_fail_inside_numpy(make, field):
    # each of these used to be accepted, and failed later inside numpy or searched in vain
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make()


def test_search_config_size_bounds_at_the_limit_and_past_it():
    at_limit = SearchConfig(
        seed=2, trials=3, state_count=MAX_SIZE, act_count=MAX_SIZE, signal_count=MAX_SIZE,
        rule=CredalSearch(MAX_SIZE),
    )
    assert isinstance(find_information_aversion(at_limit), list)
    for field in ("state_count", "act_count", "signal_count"):
        with pytest.raises(ValueError, match=f"count must be between 1 and {MAX_SIZE}, got {MAX_SIZE + 1}"):
            SearchConfig(seed=2, trials=3, **{field: MAX_SIZE + 1})
    with pytest.raises(ValueError, match=f"between 1 and {MAX_SIZE} members, got {MAX_SIZE + 1}"):
        CredalSearch(MAX_SIZE + 1)


def test_search_config_trial_bound_at_the_limit_and_past_it():
    assert SearchConfig(seed=2, trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ValueError, match=f"trial count must be between 1 and {MAX_TRIALS}, got {MAX_TRIALS + 1}"):
        SearchConfig(seed=2, trials=MAX_TRIALS + 1)


@pytest.mark.parametrize("sizes", [(3, 3, 2), (1, 1, 1), (MAX_SIZE, 2, 3)])
def test_block_rows_are_numpys_own_draws(sizes):
    # the oracle scales raw variates by their running sum, as numpy's dirichlet does;
    # at 16 states numpy's pairwise sum (np.sum) would part from it
    states, acts, signals = sizes
    config = SearchConfig(seed=21, trials=600, state_count=states, act_count=acts, signal_count=signals)
    block = search._draw_block(config, 1, 4, 200)
    assert block.start == BLOCK_TRIALS and len(block.prior) == 200
    draws = block_draws(config, 1, 4)
    for r in range(200):
        prior, utilities, rows, rule_rows = draws[r]
        assert np.array_equal(block.prior[r], prior)
        assert np.array_equal(block.utilities[r], utilities)
        assert np.array_equal(block.likelihood[r], rows)
        assert np.array_equal(block.rule_rows[r], rule_rows)
        assert random_instance(config, BLOCK_TRIALS + r) == search._draw_instance(config, block, r)


EQUIVALENCE_RULES = {
    "reu:power:2": ReuSearch(PowerRisk(2)),
    "reu:power:0.5": ReuSearch(PowerRisk(0.5)),
    "reu:table": ReuSearch(TableRisk(((0.0, 0.0), (0.4, 0.1), (0.6, 0.9), (1.0, 1.0)))),
    "gamma:3": CredalSearch(3),
    "faulty:complement:0.5": FaultySearch(0.5, "complement-conditionalization"),
    "faulty:custom:0.3": FaultySearch(0.3, "custom-posterior"),
}
# (states, acts, signals, trials): a partial last block, exactly one block, and
# less than one block at the one-state, one-act and one-signal edges
EQUIVALENCE_CASES = [
    (3, 3, 2, 2 * BLOCK_TRIALS + 88),
    (2, 2, 2, BLOCK_TRIALS),
    (1, 3, 2, 100),
    (3, 1, 2, 100),
    (3, 3, 1, 100),
    (1, 1, 1, 100),
]


def search_outcome(run, config):
    """The witness list, or the type and message of the error raised."""
    try:
        return run(config)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screened_search_equals_the_per_trial_search(name, case):
    states, acts, signals, trials = case
    config = SearchConfig(
        seed=31, trials=trials, state_count=states, act_count=acts, signal_count=signals,
        rule=EQUIVALENCE_RULES[name],
    )
    screened = search_outcome(find_information_aversion, config)
    reference = search_outcome(per_trial_search, config)
    assert screened == reference
    if isinstance(reference, list):
        assert [w.voi.hex() for w in screened] == [w.voi.hex() for w in reference]


def test_the_equivalence_cases_find_witnesses_and_errors():
    # the comparisons above are not all between empty lists
    states, acts, signals, trials = EQUIVALENCE_CASES[0]
    for name in sorted(EQUIVALENCE_RULES.keys() - {"reu:power:0.5"}):
        config = SearchConfig(
            seed=31, trials=trials, state_count=states, act_count=acts, signal_count=signals,
            rule=EQUIVALENCE_RULES[name],
        )
        assert per_trial_search(config), name
    with pytest.raises(ValueError, match="complement of signal 'signal0' has zero marginal"):
        find_information_aversion(
            SearchConfig(seed=31, trials=100, signal_count=1, rule=EQUIVALENCE_RULES["faulty:complement:0.5"])
        )


def screened_rows(config, edit=None):
    """Rows the screen keeps in a block of 64 trials, and after ``edit(block, r)``
    of a row r that it dropped, that row and the rows it keeps then."""
    screen, rule_rows = search._screen_for(config)
    block = search._draw_block(config, 0, rule_rows, 64)
    before = set(search._possible_witnesses(config, screen, block).tolist())
    if edit is None:
        return before
    r = min(set(range(64)) - before)
    edit(block, r)
    return before, r, set(search._possible_witnesses(config, screen, block).tolist())


def screened_search(config, block) -> dict:
    """The search over one block as the engine runs it: only the rows the
    screen keeps reach the scalar path."""
    screen, _ = search._screen_for(config)
    return block_search(config, block, search._possible_witnesses(config, screen, block))


def screen_is_exact_after(config, edit) -> bool:
    """Whether, after ``edit(block, r)`` of the first row r the screen drops in a
    block of 64 trials, the screened search equals the scalar loop over it."""
    screen, rule_rows = search._screen_for(config)
    block = search._draw_block(config, 0, rule_rows, 64)
    edit(block, min(set(range(64)) - set(search._possible_witnesses(config, screen, block).tolist())))
    return screened_search(config, block) == block_search(config, block)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screen_keeps_a_trial_with_two_identical_acts(name):
    config = SearchConfig(seed=41, trials=64, act_count=2, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.utilities[r, 1] = block.utilities[r, 0]

    before, r, after = screened_rows(config, edit)
    assert after == before | {r}


@pytest.mark.parametrize("mass", [0.0, 1e-15])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screen_keeps_a_trial_whose_likelihood_column_is_zero(name, mass):
    # a zero column makes a posterior that divides by its marginal NaN, which
    # fails every lead test; a column of 1e-15 gives the scalar path's own
    # posteriors, which the screen may decide on. A custom table divides by
    # nothing, and the expected-utility kernel values each act on the joint of
    # state and signal, where a zero column adds exactly 0, as the scalar
    # path's skip does
    config = SearchConfig(seed=42, trials=64, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.likelihood[r, :, 0] = mass
        block.likelihood[r, :, 1] = 1.0 - mass

    assert screen_is_exact_after(config, edit)
    if mass == 0.0 and name != "faulty:custom:0.3":
        before, r, after = screened_rows(config, edit)
        assert after == before | {r}


@pytest.mark.parametrize("name", ["reu:power:0.5", "reu:power:2", "reu:table"])
def test_screen_keeps_a_risk_weighted_trial_with_a_thin_tail(name):
    # the best outcome of act 0 has mass 1e-17, where the scalar path's tail,
    # found by subtraction from the total, is clamped at 0; the risk function's
    # values at tail -/+ margin bracket it like any other tail
    config = SearchConfig(seed=45, trials=64, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.prior[r] = (0.5, 0.5, 1e-17)
        block.utilities[r, 0] = (-1.0, 0.0, 9.0)

    assert screen_is_exact_after(config, edit)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screen_keeps_a_trial_whose_rows_fail_the_dataclass_checks(name):
    # the scalar path then raises the error a trial-by-trial search raises
    config = SearchConfig(seed=44, trials=64, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.prior[r] *= 1.0 + 1e-9

    before, r, after = screened_rows(config, edit)
    assert after == before | {r}


def test_screen_keeps_a_trial_whose_complement_marginal_is_zero():
    # with one signal its complement never occurs: where the drawn likelihood is
    # 1 the complement's marginal is 0 and the scalar path raises ZeroMarginal,
    # and where it is 1 - 2**-53 the complement's marginal is about 1e-16
    for name in ("faulty:complement:0.5", "faulty:custom:0.3"):
        config = SearchConfig(seed=43, trials=64, signal_count=1, rule=EQUIVALENCE_RULES[name])
        block = search._draw_block(config, 0, search._screen_for(config)[1], 64)
        assert screened_search(config, block) == block_search(config, block)
    custom = SearchConfig(seed=43, trials=64, signal_count=1, rule=EQUIVALENCE_RULES["faulty:custom:0.3"])
    assert len(screened_rows(custom)) < 64


# masses of a thin tail, and of a likelihood column: zero, subnormal and tiny
THIN_MASSES = [1e-19, 1e-17, 1e-15, 1e-12, 1e-9, 1e-7]
COLUMN_MASSES = [0.0, 5e-324, 1e-310, 1e-15, 1e-12]


def _rescaled(vector, k, mass):
    """Set entry k of the vector to ``mass`` and scale the others, in place, to sum to 1 - mass."""
    rest = np.delete(np.arange(len(vector)), k)
    vector[rest] *= (1.0 - mass) / vector[rest].sum()
    vector[k] = mass


EDITS = st.one_of(
    st.tuples(st.just("thin tail"), st.integers(0, 2), st.integers(0, 2), st.sampled_from(THIN_MASSES)),
    st.tuples(st.just("column"), st.integers(0, 1), st.just(0), st.sampled_from(COLUMN_MASSES)),
    st.tuples(st.just("zero prior entry"), st.integers(0, 2), st.just(0), st.just(0.0)),
    st.tuples(st.just("zero rule-row entry"), st.integers(0, 2), st.just(0), st.just(0.0)),
    st.tuples(st.just("duplicate act"), st.integers(0, 2), st.integers(0, 2), st.just(0.0)),
)


def apply_edit(block, r, edit):
    """Apply one edit drawn from ``EDITS`` to row r of the block."""
    kind, i, k, mass = edit
    if kind == "thin tail":  # state i gets the mass and act k its best outcome there
        _rescaled(block.prior[r], i, mass)
        block.utilities[r, k, i] = search.UTILITY_RANGE[1]
    elif kind == "column":
        for row in block.likelihood[r]:
            _rescaled(row, i, mass)
    elif kind == "zero prior entry":
        _rescaled(block.prior[r], i, 0.0)
    elif kind == "zero rule-row entry":
        for row in block.rule_rows[r]:
            _rescaled(row, i, 0.0)
    else:
        block.utilities[r, k] = block.utilities[r, i]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edits=st.lists(st.tuples(st.integers(0, 63), EDITS), min_size=1, max_size=32))
def test_screened_search_equals_the_scalar_loop_on_edited_blocks(name, seed, edits):
    config = SearchConfig(seed=seed, trials=64, rule=EQUIVALENCE_RULES[name])
    _, rule_rows = search._screen_for(config)
    block = search._draw_block(config, 0, rule_rows, 64)
    # edits that leave a vector's other entries zero or subnormal give NaN or
    # inf there, a row the dataclass checks reject
    with np.errstate(all="ignore"):
        for r, edit in edits:
            apply_edit(block, r, edit)
    assert screened_search(config, block) == block_search(config, block)


def subnormal_marginal_edit(block, r, mass):
    """Give row r of a three-signal block a signal whose marginal is positive
    and subnormal. On even rows signal 2 has likelihood ``mass`` times 1, 2, 3
    in the three states, under every belief. On odd rows signal 0 is certain
    in every state but state 0, whose mass in the prior and in every credal
    member becomes ``mass``: then signal 0's complement marginal, and signal 1
    and 2's marginals, are ``mass`` times state 0's likelihoods."""
    if r % 2 == 0:
        for s, row in enumerate(block.likelihood[r]):
            _rescaled(row, 2, mass * (s + 1))
        return
    block.likelihood[r, 1:] = (1.0, 0.0, 0.0)
    _rescaled(block.prior[r], 0, mass)
    for member in block.rule_rows[r]:
        _rescaled(member, 0, mass)


@pytest.mark.parametrize("mass", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screened_search_equals_the_scalar_loop_where_a_marginal_is_subnormal(name, mass):
    # No screen has a condition on the marginals it divides by; the two
    # searches agree here because the screen's posteriors divide the same
    # products by the same sums as the scalar path's
    config = SearchConfig(seed=46, trials=64, signal_count=3, rule=EQUIVALENCE_RULES[name])
    _, rule_rows = search._screen_for(config)
    block = search._draw_block(config, 0, rule_rows, 64)
    for r in range(64):
        subnormal_marginal_edit(block, r, mass)
    marginals = (block.prior[:, :, None] * block.likelihood).sum(axis=1)
    assert ((marginals > 0.0) & (marginals < np.finfo(float).tiny)).any(axis=1).sum() >= 32
    reference = block_search(config, block)
    # the edited rows still hold witnesses (power 0.5 seeks risk and has none here)
    assert reference or name == "reu:power:0.5"
    assert screened_search(config, block) == reference


# ------------------------------------------------------- the stream contract

PREFIX_RULES = ["reu:power:2", "gamma:3", "faulty:complement:0.5", "faulty:custom:0.3"]


@pytest.mark.parametrize("name", PREFIX_RULES)
def test_a_trial_does_not_depend_on_the_trial_count(name):
    # a run of 300 trials cuts its second block short; a run of 1000 draws it whole
    short, long = (
        find_information_aversion(SearchConfig(seed=51, trials=trials, rule=EQUIVALENCE_RULES[name]))
        for trials in (300, 1000)
    )
    assert short
    assert short == [w for w in long if w.trial_index < 300]


@pytest.mark.parametrize("name", ["gamma:3", "faulty:custom:0.3"])
def test_random_instance_is_the_searched_instance_of_its_trial(name):
    # these rules draw rule rows after the instance; random_instance draws none
    config = SearchConfig(seed=52, trials=600, rule=EQUIVALENCE_RULES[name])
    witnesses = find_information_aversion(config)
    assert witnesses
    for w in witnesses:
        assert (w.problem, w.channel) == random_instance(config, w.trial_index)
    _, rule_rows = search._screen_for(config)
    block = search._draw_block(config, 2, rule_rows, 600 - 2 * BLOCK_TRIALS)
    for r in range(len(block.prior)):
        assert search._draw_instance(config, block, r) == random_instance(config, 2 * BLOCK_TRIALS + r)


def test_random_discrete_prior_is_a_row_of_its_block():
    config = SearchConfig(seed=53, trials=1)
    for block in range(3):
        values, weights = search._draw_priors(config, block)
        reference = prior_draws(config, block)
        for r in range(0, BLOCK_TRIALS, 5):
            prior = random_discrete_prior(config, block * BLOCK_TRIALS + r)
            assert prior == reference[r] == search._discrete_prior(values[r], weights[r])


def test_each_run_draws_one_generator_per_block(monkeypatch):
    calls = []
    draw = search._trial_rng

    def counted(seed, block):
        calls.append(block)
        return draw(seed, block)

    monkeypatch.setattr(search, "_trial_rng", counted)
    runs = (
        lambda: find_information_aversion(SearchConfig(seed=54, trials=10_000, rule=CredalSearch(2))),
        lambda: verify_good(SearchConfig(seed=54, trials=10_000)),
        lambda: verify_theorem1(SearchConfig(seed=54, trials=10_000)),
    )
    for run in runs:
        calls.clear()
        run()
        assert calls == list(range(40))


# -------------------------------------------------------- the check kernels


@pytest.mark.parametrize("seed", [61, 62])
def test_check_reports_equal_the_per_trial_reference(seed):
    config = SearchConfig(seed=seed, trials=10_000)
    assert verify_good(config) == per_trial_good(config)
    assert verify_theorem1(config) == per_trial_theorem1(config)


def edited_draws(monkeypatch, name, edit):
    """Have ``search.<name>`` hand out its draws after ``edit`` changes them."""
    draw = getattr(search, name)

    def edited(*args):
        drawn = draw(*args)
        edit(drawn)
        return drawn

    monkeypatch.setattr(search, name, edited)


def test_good_decides_identical_likelihood_rows(monkeypatch):
    # a channel whose rows are equal says nothing, so its voi is exactly 0
    def edit(block):
        block.likelihood[:8] = block.likelihood[:8, :1]

    edited_draws(monkeypatch, "_draw_block", edit)
    config = SearchConfig(seed=63, trials=300)
    assert verify_good(config).ok
    block = search._draw_block(config, 0, 0)
    voi, proven = search._good_kernel(block)
    assert np.abs(voi[:8]).max() <= 1e-14
    assert proven[:8].all()


ONE_SIDED_PRIORS = [
    ((0.0,), (1.0,)),
    ((1.0, 2.5), (0.5, 0.5)),
    ((-3.0, -1.0, -2.0), (0.2, 0.3, 0.5)),
    ((0.0, -1.0), (0.5, 0.5)),
]


def test_theorem1_kernel_on_one_sided_priors_and_atoms_at_zero(monkeypatch):
    def edit(priors):
        values, weights = priors
        weights[: len(ONE_SIDED_PRIORS)] = 0.0
        for r, (atoms, masses) in enumerate(ONE_SIDED_PRIORS):
            values[r, : len(atoms)] = atoms
            weights[r, : len(masses)] = masses

    edited_draws(monkeypatch, "_draw_priors", edit)
    config = SearchConfig(seed=64, trials=300)
    assert verify_theorem1(config).ok
    values, weights = search._draw_priors(config, 0)
    advantage, two_sided = search._theorem1_kernel(values, weights)
    for r in range(len(ONE_SIDED_PRIORS) + 20):
        result = theorem1_check(search._discrete_prior(values[r], weights[r]))
        assert two_sided[r] == result.strict_expected
        assert abs(advantage[r] - result.delta) <= CHECK_TOL / 2
    assert not two_sided[: len(ONE_SIDED_PRIORS)].any()


def test_check_rows_that_fail_the_dataclass_checks_reach_the_scalar_path(monkeypatch):
    # scaled rows leave each kernel's proof intact, so only the row checks keep them
    def scale_prior(block):
        block.prior[5] *= 1.5

    def scale_weights(priors):
        priors[1][5] *= 1.5

    edited_draws(monkeypatch, "_draw_block", scale_prior)
    with pytest.raises(ValueError, match="prior sums to"):
        verify_good(SearchConfig(seed=65, trials=20))
    edited_draws(monkeypatch, "_draw_priors", scale_weights)
    with pytest.raises(ValueError, match="atom weights sum to"):
        verify_theorem1(SearchConfig(seed=65, trials=20))


def test_a_shifted_check_kernel_fails_the_cross_check(monkeypatch):
    eu_kernel, theorem1_kernel = search._eu_kernel, search._theorem1_kernel

    def shifted_eu(block):
        now, values = eu_kernel(block)
        return now - 1e-9, values

    def shifted_theorem1(values, weights):
        advantage, two_sided = theorem1_kernel(values, weights)
        return advantage + 1e-9, two_sided

    monkeypatch.setattr(search, "_eu_kernel", shifted_eu)
    monkeypatch.setattr(search, "_theorem1_kernel", shifted_theorem1)
    with pytest.raises(AssertionError, match="check kernel gave"):
        verify_good(SearchConfig(seed=66, trials=10))
    with pytest.raises(AssertionError, match="check kernel gave"):
        verify_theorem1(SearchConfig(seed=66, trials=10))


def test_a_theorem1_strictness_failure_reaches_the_scalar_path(monkeypatch):
    # mass on both sides of 0 with an advantage of 5e-14, below CHECK_TOL
    def edit(priors):
        values, weights = priors
        values[7, :2] = (1e-13, -1.0)
        weights[7] = (0.5, 0.5, 0.0, 0.0)

    edited_draws(monkeypatch, "_draw_priors", edit)
    report = verify_theorem1(SearchConfig(seed=67, trials=20))
    assert [(v.trial_index, v.detail) for v in report.violations] == [(7, "strictness clause failed")]


def test_good_sends_a_zero_marginal_to_the_scalar_path(monkeypatch):
    # the scalar path skips a signal that never occurs, and the kernel adds
    # exactly 0 for it, so the kernel decides the trial
    def edit(block):
        block.likelihood[3, :, 0] = 0.0
        block.likelihood[3, :, 1] = 1.0

    edited_draws(monkeypatch, "_draw_block", edit)
    config = SearchConfig(seed=68, trials=20)
    assert verify_good(config).ok
    block = search._draw_block(config, 0, 0, 20)
    voi, proven = search._good_kernel(block)
    problem, channel = search._draw_instance(config, block, 3)
    assert proven[3]
    assert abs(voi[3] - value_of_learning_eu(problem, problem.prior, channel).voi) <= CHECK_TOL / 2
