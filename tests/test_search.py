import json

import pytest

from offswitch_lab import (
    CredalSearch,
    Discrete,
    EuSearch,
    FaultySearch,
    GammaMaximinRule,
    IdentityRisk,
    PowerRisk,
    ReuSearch,
    RiskWeightedRule,
    RuleCannotBeAverse,
    SearchConfig,
    TableRisk,
    find_information_aversion,
    random_discrete_prior,
    random_instance,
    replay_witness,
    verify_good,
    verify_theorem1,
    witness_from_jsonable,
    witness_to_jsonable,
)
from offswitch_lab.core import Faulty
from offswitch_lab.search import REVERIFY_TOL, reproduces
from oracles import faulty_voi, gamma_voi, reu_voi


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
