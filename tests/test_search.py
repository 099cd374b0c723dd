import contextlib
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offswitch_lab import search
from offswitch_lab.core import (
    CHECK_TOL,
    ComplementConditionalization,
    CredalSet,
    Faulty,
    ExpectedUtilityRule,
    GammaMaximinRule,
    PowerRisk,
    RiskWeightedRule,
    TableRisk,
)
from offswitch_lab.distributions import Discrete
from offswitch_lab.jsonio import Witness, witness_from_jsonable, witness_to_jsonable
from offswitch_lab.offswitch import theorem1_check
from offswitch_lab.search import (
    BLOCK_TRIALS,
    MAX_SIZE,
    MAX_TRIALS,
    REVERIFY_TOL,
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
from offswitch_lab.voi import replay_witness, value_of_learning_eu, witness_fault
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


@pytest.mark.parametrize(
    "index,message",
    [(-1, "must be non-negative, got -1"), (1.5, "must be an int, got 1.5"), (True, "must be an int, got True")],
    ids=["negative", "float", "bool"],
)
@pytest.mark.parametrize("sample", [random_instance, random_discrete_prior], ids=lambda f: f.__name__)
def test_a_trial_index_is_a_non_negative_int(sample, index, message):
    # each used to fail inside numpy, or (a bool) to return trial 1
    with pytest.raises(ValueError, match=f"^trial_index {message}$"):
        sample(SearchConfig(seed=1, trials=1), index)


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
    with pytest.raises(ValueError, match="expected utility with conditionalization never rejects"):
        find_information_aversion(SearchConfig(seed=1, trials=10, rule=ExpectedUtilityRule()))
    with pytest.raises(ValueError, match="an identity risk function reduces"):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=ReuSearch(PowerRisk(1)))
        )
    with pytest.raises(ValueError, match="an identity risk function reduces"):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=ReuSearch(PowerRisk(1.0)))
        )
    with pytest.raises(ValueError, match="an identity risk function reduces"):
        find_information_aversion(
            SearchConfig(
                seed=1,
                trials=10,
                rule=ReuSearch(TableRisk(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))),
            )
        )
    with pytest.raises(ValueError, match="a singleton credal set reduces"):
        find_information_aversion(SearchConfig(seed=1, trials=10, rule=CredalSearch(1)))
    with pytest.raises(ValueError, match="staying at the prior"):
        find_information_aversion(
            SearchConfig(seed=1, trials=10, rule=FaultySearch(0.5, "stay-at-prior"))
        )
    with pytest.raises(ValueError, match="staying at the prior"):
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


def test_witness_fault_needs_a_replay_within_the_tolerance_and_below_0():
    problem, channel = random_instance(SearchConfig(seed=1, trials=1), 0)

    def fault(stored, replayed):
        return witness_fault(Witness(problem, channel, ExpectedUtilityRule(), stored, 7), replayed)

    for replayed in (-1.0, -1.0 + 0.5 * REVERIFY_TOL, -1.0 - 0.5 * REVERIFY_TOL):
        assert fault(-1.0, replayed) is None
    # at the edge: a replay exactly REVERIFY_TOL away reproduces, one ulp further does not
    assert fault(-2.0 * REVERIFY_TOL, -REVERIFY_TOL) is None
    beyond = math.nextafter(-REVERIFY_TOL, 0.0)
    assert fault(-2.0 * REVERIFY_TOL, beyond) == f"stored voi {-2.0 * REVERIFY_TOL!r} but re-evaluation gives {beyond!r}"
    for replayed in (-1.0 + 2.0 * REVERIFY_TOL, -1.0 - 2.0 * REVERIFY_TOL, float("nan"), 1.0):
        assert fault(-1.0, replayed) == f"stored voi -1.0 but re-evaluation gives {replayed!r}"
    # a replay that reproduces a stored voi of 0 or more is no rejection of information
    for stored, replayed in ((0.0, 0.0), (-0.5 * REVERIFY_TOL, 0.0), (-0.5 * REVERIFY_TOL, -0.0), (1.0, 1.0)):
        assert fault(stored, replayed) == f"voi {replayed!r} is not below 0, so it is not a witness"
    assert fault(0.0, -0.5 * REVERIFY_TOL) is None


def drop_rule(witness):
    """The witness's JSON object without its rule field."""
    obj = witness_to_jsonable(witness)
    del obj["rule"]
    return obj


def not_reproduced(witness, replayed):
    """The search's message for a first witness whose replay gave ``replayed``."""
    return f"witness at trial {witness.trial_index}: stored voi {witness.voi!r} but re-evaluation gives {replayed!r}"


@pytest.mark.parametrize(
    "attr,fake,error,message",
    [
        ("replay_witness", lambda w: w.voi + 1.0, AssertionError, lambda w: not_reproduced(w, w.voi + 1.0)),
        ("replay_witness", lambda w: float("nan"), AssertionError, lambda w: not_reproduced(w, float("nan"))),
        ("witness_to_jsonable", drop_rule, AssertionError, lambda w: "witness is missing fields: ['rule']"),
    ],
    ids=["replay-off-by-one", "replay-nan", "encoder-drops-the-rule"],
)
def test_a_witness_that_fails_re_verification_stops_the_search(monkeypatch, attr, fake, error, message):
    config = SearchConfig(seed=17, trials=300, rule=FaultySearch(0.5, "complement-conditionalization"))
    first = min(find_information_aversion(config), key=lambda w: w.trial_index)
    monkeypatch.setattr(search, attr, fake)
    with pytest.raises(error) as info:
        find_information_aversion(config)
    # the first witness of the first block that holds one
    assert str(info.value) == message(first)


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


NO_CYCLE_CASES = {
    "reu:power:2": SearchConfig(seed=21, trials=1000, rule=ReuSearch(PowerRisk(2))),
    "gamma:2": SearchConfig(seed=21, trials=1000, rule=CredalSearch(2)),
    "faulty:complement:0.5": SearchConfig(seed=21, trials=1000, rule=FaultySearch(0.5, "complement-conditionalization")),
    "faulty:custom:0.5": SearchConfig(seed=21, trials=1000, rule=FaultySearch(0.5, "custom-posterior")),
    "faulty:custom:0.5-4x3x3": SearchConfig(
        seed=21, trials=1000, state_count=4, act_count=3, signal_count=3, rule=FaultySearch(0.5, "custom-posterior")
    ),
}


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector enabled or disabled, and put it
    back as it was after."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("config", NO_CYCLE_CASES.values(), ids=NO_CYCLE_CASES)
def test_a_search_makes_no_reference_cycles(config):
    # why a search may pause the collector: everything it drops is freed by its
    # reference count, so a collection after it finds nothing unreachable. The
    # json.dumps(..., indent=2) of the CLI stays out of the window: its
    # pure-Python encoder makes a cycle of closures on every call.
    find_information_aversion(config)  # warm-up
    with collector(False):
        gc.collect()
        found = len(find_information_aversion(config))
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            unreachable = gc.collect()
            leaked = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert found > 0
    assert unreachable == 0, f"a search left {unreachable} objects in reference cycles, of types {leaked}"


def fail_evaluation(*args):
    raise ValueError("a candidate's evaluation failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "attr,fake,error",
    [
        (None, None, None),
        ("witness_fault", lambda witness, replayed: "a faked fault", AssertionError),
        ("evaluate_rule", fail_evaluation, ValueError),
    ],
    ids=["returns", "re-verification-fails", "candidate-raises"],
)
def test_a_search_pauses_the_collector_and_leaves_it_as_it_found_it(monkeypatch, enabled, attr, fake, error):
    seen = []  # gc.isenabled() at each kernel call's gather of its candidates
    draw_instance = search._draw_instance

    def watched(*args):
        seen.append(gc.isenabled())
        return draw_instance(*args)

    monkeypatch.setattr(search, "_draw_instance", watched)
    if attr is not None:
        monkeypatch.setattr(search, attr, fake)
    config = SearchConfig(seed=17, trials=300, rule=FaultySearch(0.5, "complement-conditionalization"))
    with collector(enabled):
        with pytest.raises(error) if error else contextlib.nullcontext():
            find_information_aversion(config)
        after = gc.isenabled()
    assert after is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_rule_that_cannot_be_averse_leaves_the_collector_untouched(monkeypatch, enabled):
    calls = []
    with collector(enabled):
        monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        with pytest.raises(ValueError, match="expected utility with conditionalization never rejects"):
            find_information_aversion(SearchConfig(seed=1, trials=10, rule=ExpectedUtilityRule()))
        after = gc.isenabled()
        monkeypatch.undo()
    assert (after, calls) == (enabled, [])


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
        (lambda: SearchConfig(seed=1, trials=10, rule=Faulty(0.5, ComplementConditionalization())), "rule"),
        (lambda: SearchConfig(seed=1, trials=10, rule=GammaMaximinRule(CredalSet(((0.5, 0.5, 0.0), (0.2, 0.3, 0.5))))),
         "rule"),
        (lambda: SearchConfig(seed=1, trials=10, rule="reu"), "rule"),
        (lambda: SearchConfig(seed=1, trials=10, aversion_tolerance="x"), "aversion_tolerance"),
        (lambda: SearchConfig(seed=1, trials=10, aversion_tolerance=True), "aversion_tolerance"),
    ],
    ids=["seed-float", "seed-bool", "trials-float", "trials-bool", "states-float", "acts-float", "signals-bool",
         "members-float", "tolerance-inf", "tolerance-nan", "rule-faulty", "rule-gamma-maximin", "rule-string",
         "tolerance-string", "tolerance-bool"],
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


@pytest.mark.parametrize("sizes", [(3, 3, 2), (1, 1, 1), (MAX_SIZE, 2, 3), (MAX_SIZE, MAX_SIZE, MAX_SIZE)])
def test_block_rows_are_numpys_own_draws(sizes):
    # the oracle scales raw variates by their running sum, as numpy's dirichlet does;
    # at 16 states numpy's pairwise sum (np.sum) would part from it. Every array
    # of a partial block, of a full block and of a run of blocks drawn in one
    # call (600 trials: 256 + 256 + 88 rows) is contiguous with the trial axis
    # last, and column i is the draw of the run's trial i
    states, acts, signals = sizes
    config = SearchConfig(seed=21, trials=600, state_count=states, act_count=acts, signal_count=signals)
    oracle = {b: (block_draws(config, b, 4), prior_draws(config, b)) for b in range(3)}
    atoms = (search.MAX_ATOMS,)
    shapes = ((states,), (acts, states), (states, signals), (4, states), atoms, atoms)
    for pairs in ([(1, 200)], [(1, BLOCK_TRIALS)], search._block_rows(config)):
        block = search._draw_block(config, pairs, 4)
        values, weights = search._draw_priors(config, pairs)
        assert block.start == pairs[0][0] * BLOCK_TRIALS
        arrays = (block.prior, block.utilities, block.likelihood, block.rule_rows, values, weights)
        for array, shape in zip(arrays, shapes):
            assert array.shape == shape + (sum(rows for _, rows in pairs),) and array.flags.c_contiguous
        i = 0
        for b, rows in pairs:
            draws, priors = oracle[b]
            for r in range(rows):
                prior, utilities, likelihood, rule_rows = draws[r]
                assert np.array_equal(block.prior[:, i], prior)
                assert np.array_equal(block.utilities[..., i], utilities)
                assert np.array_equal(block.likelihood[..., i], likelihood)
                assert np.array_equal(block.rule_rows[..., i], rule_rows)
                assert search._discrete_prior(values[:, i].tolist(), weights[:, i].tolist()) == priors[r]
                assert not weights[len(priors[r].atoms) :, i].any()
                assert random_instance(config, b * BLOCK_TRIALS + r) == search._draw_instance(config, block, [i])[0]
                i += 1


@pytest.mark.parametrize("size", [(256,), (256, 3), (256, 16)])
def test_scaled_exponentials_are_numpys_flat_dirichlet(size):
    # the draws take a flat Dirichlet as standard exponentials scaled by one
    # over their row-order sum; against the installed numpy that gives its
    # dirichlet bit for bit and leaves the generator in the same state, so the
    # stream is the same
    for k in range(1, MAX_SIZE + 1):
        for seed in (1, 7919, 2**63 + 5):
            by_dirichlet, by_exponentials = search._trial_rng(seed, k), search._trial_rng(seed, k)
            expected = by_dirichlet.dirichlet(np.ones(k), size)
            drawn = by_exponentials.standard_exponential(size + (k,))
            search._scale_rows(np.moveaxis(drawn, -1, 0))
            assert drawn.tobytes() == expected.tobytes(), (k, seed)
            assert by_exponentials.bit_generator.state == by_dirichlet.bit_generator.state


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


# with one signal a complement misfire is a stay, which the search refuses
# before its first trial; the per-trial reference has no such refusal
LONE_COMPLEMENT = "misfiring to the complement of a lone signal"


@pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screened_search_equals_the_per_trial_search(name, case):
    states, acts, signals, trials = case
    config = SearchConfig(
        seed=31, trials=trials, state_count=states, act_count=acts, signal_count=signals,
        rule=EQUIVALENCE_RULES[name],
    )
    if name == "faulty:complement:0.5" and signals == 1:
        with pytest.raises(ValueError, match=LONE_COMPLEMENT):
            find_information_aversion(config)
        return
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
    with pytest.raises(ValueError, match=LONE_COMPLEMENT):
        find_information_aversion(
            SearchConfig(seed=31, trials=100, signal_count=1, rule=EQUIVALENCE_RULES["faulty:complement:0.5"])
        )


def screened_rows(config, edit=None):
    """Rows the screen keeps in a block of 64 trials, and after ``edit(block, r)``
    of a row r that it dropped, that row and the rows it keeps then."""
    screen, rule_rows = search._screen_for(config)
    block = search._draw_block(config, [(0, 64)], rule_rows)
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
    block = search._draw_block(config, [(0, 64)], rule_rows)
    edit(block, min(set(range(64)) - set(search._possible_witnesses(config, screen, block).tolist())))
    return screened_search(config, block) == block_search(config, block)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screen_keeps_a_trial_with_two_identical_acts(name):
    config = SearchConfig(seed=41, trials=64, act_count=2, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.utilities[1, :, r] = block.utilities[0, :, r]

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
        block.likelihood[:, 0, r] = mass
        block.likelihood[:, 1, r] = 1.0 - mass

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
        block.prior[:, r] = (0.5, 0.5, 1e-17)
        block.utilities[0, :, r] = (-1.0, 0.0, 9.0)

    assert screen_is_exact_after(config, edit)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screen_keeps_a_trial_whose_rows_fail_the_dataclass_checks(name):
    # the scalar path then raises the error a trial-by-trial search raises
    config = SearchConfig(seed=44, trials=64, rule=EQUIVALENCE_RULES[name])

    def edit(block, r):
        block.prior[:, r] *= 1.0 + 1e-9

    before, r, after = screened_rows(config, edit)
    assert after == before | {r}


def test_screen_keeps_a_trial_whose_complement_marginal_is_zero():
    # where signal 0's likelihood column is exactly 1 the signal is certain: its
    # complement's marginal is 0, the complement screen divides by it and keeps
    # the trial, and the scalar path misupdates to the prior. Where the column
    # is 1 - 2**-53 the complement's marginal is about 1e-16
    for name in ("faulty:complement:0.5", "faulty:custom:0.3"):
        config = SearchConfig(seed=43, trials=64, rule=EQUIVALENCE_RULES[name])
        screen, rule_rows = search._screen_for(config)
        block = search._draw_block(config, [(0, 64)], rule_rows)
        for rows, mass in ((slice(0, 64, 4), 1.0), (slice(1, 64, 4), 1.0 - 2**-53)):
            block.likelihood[:, 0, rows] = mass
            block.likelihood[:, 1, rows] = 1.0 - mass
        found = block_search(config, block)
        assert screened_search(config, block) == found
        assert not any(isinstance(outcome, tuple) for outcome in found.values())
        kept = set(search._possible_witnesses(config, screen, block).tolist())
        assert (kept >= set(range(0, 64, 4))) == (name == "faulty:complement:0.5")


def test_the_complement_screen_finds_no_mass_where_the_other_signals_have_none():
    # signal 0's column is 1 - 2**-53 beside two columns of 0 in every fourth
    # trial: 1 minus that column would leave a complement of rounding residue.
    # The screen, like the scalar path, adds the other columns, finds no mass,
    # divides by 0 and keeps the trial
    config = SearchConfig(seed=43, trials=64, signal_count=3, rule=EQUIVALENCE_RULES["faulty:complement:0.5"])
    screen, rule_rows = search._screen_for(config)
    block = search._draw_block(config, [(0, 64)], rule_rows)
    block.likelihood[:, :, ::4] = 0.0
    block.likelihood[:, 0, ::4] = 1.0 - 2**-53
    found = block_search(config, block)
    assert screened_search(config, block) == found
    assert not any(isinstance(outcome, tuple) for outcome in found.values())
    assert set(search._possible_witnesses(config, screen, block).tolist()) >= set(range(0, 64, 4))


SCREEN_VALUE_RULES = {
    "reu:power:2": ReuSearch(PowerRisk(2)),
    "gamma:2": CredalSearch(2),
    "faulty:complement:0.5": FaultySearch(0.5, "complement-conditionalization"),
    "faulty:custom:0.5": FaultySearch(0.5, "custom-posterior"),
}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("size", [(3, 3, 2), (2, 2, 2)], ids=lambda size: "x".join(map(str, size)))
@pytest.mark.parametrize("name", sorted(SCREEN_VALUE_RULES))
def test_screened_voi_is_the_scalar_voi_where_every_lead_clears_the_margin(name, size, seed):
    # the proof rests on these values: where every choice leads by more than
    # the margin, a screen's voi is the scalar path's, and a risk-weighted
    # screen's, whose risk weights are bracketed, is a lower bound on it
    states, acts, signals = size
    config = SearchConfig(
        seed=seed, trials=4 * BLOCK_TRIALS, state_count=states, act_count=acts, signal_count=signals,
        rule=SCREEN_VALUE_RULES[name],
    )
    screen, rule_rows = search._screen_for(config)
    block = search._draw_block(config, search._block_rows(config), rule_rows)
    with np.errstate(all="ignore"):
        voi, lead = screen(config.rule, block)
    checked = np.flatnonzero((lead > search.SCREEN_MARGIN).all(axis=0) & np.isfinite(voi))
    assert len(checked) > config.trials // 2
    instances = search._draw_instance(config, block, checked)
    for r, (problem, channel), data in zip(checked.tolist(), instances, search._per_trial(block.rule_rows, checked)):
        scalar = search.evaluate_rule(problem, channel, search._concrete_rule(config.rule, data, channel)).voi
        if isinstance(config.rule, ReuSearch):
            assert voi[r] <= scalar + 1e-12, r
        else:
            assert abs(voi[r] - scalar) <= 1e-12, r


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
    """Apply one edit drawn from ``EDITS`` to trial r of the block, its column r."""
    kind, i, k, mass = edit
    if kind == "thin tail":  # state i gets the mass and act k its best outcome there
        _rescaled(block.prior[:, r], i, mass)
        block.utilities[k, i, r] = search.UTILITY_RANGE[1]
    elif kind == "column":
        for row in block.likelihood[..., r]:
            _rescaled(row, i, mass)
    elif kind == "zero prior entry":
        _rescaled(block.prior[:, r], i, 0.0)
    elif kind == "zero rule-row entry":
        for row in block.rule_rows[..., r]:
            _rescaled(row, i, 0.0)
    else:
        block.utilities[k, :, r] = block.utilities[i, :, r]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edits=st.lists(st.tuples(st.integers(0, 63), EDITS), min_size=1, max_size=32))
def test_screened_search_equals_the_scalar_loop_on_edited_blocks(name, seed, edits):
    config = SearchConfig(seed=seed, trials=64, rule=EQUIVALENCE_RULES[name])
    _, rule_rows = search._screen_for(config)
    block = search._draw_block(config, [(0, 64)], rule_rows)
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
        for s, row in enumerate(block.likelihood[..., r]):
            _rescaled(row, 2, mass * (s + 1))
        return
    block.likelihood[1:, :, r] = (1.0, 0.0, 0.0)
    _rescaled(block.prior[:, r], 0, mass)
    for member in block.rule_rows[..., r]:
        _rescaled(member, 0, mass)


@pytest.mark.parametrize("mass", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RULES))
def test_screened_search_equals_the_scalar_loop_where_a_marginal_is_subnormal(name, mass):
    # No screen has a condition on the marginals it divides by; the two
    # searches agree here because the screen's posteriors divide the same
    # products by the same sums as the scalar path's
    config = SearchConfig(seed=46, trials=64, signal_count=3, rule=EQUIVALENCE_RULES[name])
    _, rule_rows = search._screen_for(config)
    block = search._draw_block(config, [(0, 64)], rule_rows)
    for r in range(64):
        subnormal_marginal_edit(block, r, mass)
    marginals = (block.prior[:, None] * block.likelihood).sum(axis=0)
    assert ((marginals > 0.0) & (marginals < np.finfo(float).tiny)).any(axis=0).sum() >= 32
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
    block = search._draw_block(config, [(2, 600 - 2 * BLOCK_TRIALS)], rule_rows)
    for r in range(block.prior.shape[-1]):
        assert search._draw_instance(config, block, [r])[0] == random_instance(config, 2 * BLOCK_TRIALS + r)


def test_draw_instance_gathers_any_rows_of_a_block():
    # no row, one row, and every row of a partial block or of a run of blocks:
    # each pair equals its one-row build and random_instance
    config = SearchConfig(seed=55, trials=600, state_count=4, act_count=3, signal_count=2)
    block = search._draw_block(config, [(2, 88)], 0)
    assert search._draw_instance(config, block, np.array([], dtype=np.intp)) == []
    assert search._draw_instance(config, block, [5]) == [random_instance(config, 2 * BLOCK_TRIALS + 5)]
    every = search._draw_instance(config, block, np.arange(88))
    assert every == [search._draw_instance(config, block, [r])[0] for r in range(88)]
    assert every == [random_instance(config, 2 * BLOCK_TRIALS + r) for r in range(88)]
    run = search._draw_block(config, search._block_rows(config), 0)
    rows = np.arange(0, 600, 7)
    assert search._draw_instance(config, run, rows) == [random_instance(config, int(i)) for i in rows]


def test_random_discrete_prior_is_a_row_of_its_block():
    config = SearchConfig(seed=53, trials=1)
    for block in range(3):
        values, weights = search._draw_priors(config, [(block, BLOCK_TRIALS)])
        reference = prior_draws(config, block)
        for r in range(0, BLOCK_TRIALS, 5):
            prior = random_discrete_prior(config, block * BLOCK_TRIALS + r)
            assert prior == reference[r] == search._discrete_prior(values[:, r].tolist(), weights[:, r].tolist())


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


# trial counts around a block, and around a kernel call of four blocks
@pytest.mark.parametrize("trials", [1, 255, 256, 257, 1023, 1024, 1025, 2300])
def test_check_reports_equal_the_per_trial_reference_around_kernel_calls(trials):
    config = SearchConfig(seed=69, trials=trials)
    assert verify_good(config) == per_trial_good(config)
    assert verify_theorem1(config) == per_trial_theorem1(config)


# 2500 trials are ten blocks, the last of 196 trials: check good's budget takes
# eight blocks per call at 3 x 3 x 2, and check theorem1's all ten in one
@pytest.mark.parametrize("check,per_call", [(verify_good, [8, 2]), (verify_theorem1, [10])], ids=["good", "theorem1"])
def test_check_reports_do_not_depend_on_the_blocks_per_kernel_call(check, per_call, monkeypatch):
    config = SearchConfig(seed=72, trials=2500)
    calls, agreed = [], []
    chunks, agree = search._chunks, search._agree
    monkeypatch.setattr(search, "_chunks", lambda config, values: calls.append(chunks(config, values)) or calls[-1])
    monkeypatch.setattr(search, "_agree", lambda i, kernel, scalar: agreed.append(i) or agree(i, kernel, scalar))
    report = check(config)
    assert [len(call) for call in calls.pop()] == per_call
    # the scalar cross-check runs on row 0 of every block, however the blocks are grouped
    assert agreed == [b * BLOCK_TRIALS for b in range(10)]
    agreed.clear()
    monkeypatch.setattr(search, "KERNEL_VALUES", 1)
    assert check(config) == report
    assert [len(call) for call in calls.pop()] == [1] * 10
    assert agreed == [b * BLOCK_TRIALS for b in range(10)]


def test_a_theorem1_kernel_call_is_sized_by_its_atoms_not_the_config_sizes(monkeypatch):
    # check theorem1 draws MAX_ATOMS values per trial, whatever the states, acts and signals
    default = dict(state_count=3, act_count=3, signal_count=2)
    limit = dict.fromkeys(default, MAX_SIZE)
    draws = {}
    draw_priors = search._draw_priors

    def counted(config, blocks):
        draws[config.state_count] = draws.get(config.state_count, 0) + 1
        return draw_priors(config, blocks)

    monkeypatch.setattr(search, "_draw_priors", counted)
    for sizes in (default, limit):
        assert verify_theorem1(SearchConfig(seed=73, trials=10_000, **sizes)).ok
    assert draws == {3: 2, MAX_SIZE: 2}  # 40 blocks: a call of 36, then one of 4
    # check good at the size limit still holds one block per call
    config = SearchConfig(seed=73, trials=4 * BLOCK_TRIALS, **limit)
    tracemalloc.start()
    try:
        verify_good(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@contextlib.contextmanager
def edited_draws(monkeypatch, name, edit):
    """Have ``search.<name>`` hand out its draws after ``edit`` changes them,
    and fail unless the code run in the ``with`` block called it: an edit that
    never reaches the check proves nothing. The edit stays in place after."""
    draw, calls = getattr(search, name), []

    def edited(*args):
        calls.append(args)
        drawn = draw(*args)
        edit(drawn)
        return drawn

    monkeypatch.setattr(search, name, edited)
    yield
    assert calls, f"search.{name} was never called, so its edit never reached the check"


def test_good_decides_identical_likelihood_rows(monkeypatch):
    # a channel whose rows are equal says nothing, so its voi is exactly 0
    # edited at row 0 to 7 of each block, so trial 256, row 0 of block 1, is cross-checked
    def edit(block):
        for s in range(0, block.prior.shape[-1], BLOCK_TRIALS):
            block.likelihood[..., s : s + 8] = block.likelihood[:1, :, s : s + 8]

    config = SearchConfig(seed=63, trials=300)
    with edited_draws(monkeypatch, "_draw_block", edit):
        assert verify_good(config).ok
    block = search._draw_block(config, [(0, BLOCK_TRIALS)], 0)
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
    # edited at row 0 to 3 of each block, so trial 256, row 0 of block 1, is cross-checked
    def edit(priors):
        values, weights = priors
        for s in range(0, weights.shape[-1], BLOCK_TRIALS):
            weights[:, s : s + len(ONE_SIDED_PRIORS)] = 0.0
            for r, (atoms, masses) in enumerate(ONE_SIDED_PRIORS):
                values[: len(atoms), s + r] = atoms
                weights[: len(masses), s + r] = masses

    config = SearchConfig(seed=64, trials=300)
    with edited_draws(monkeypatch, "_draw_priors", edit):
        assert verify_theorem1(config).ok
    values, weights = search._draw_priors(config, [(0, BLOCK_TRIALS)])
    advantage, two_sided = search._theorem1_kernel(values, weights)
    for r in range(len(ONE_SIDED_PRIORS) + 20):
        result = theorem1_check(search._discrete_prior(values[:, r].tolist(), weights[:, r].tolist()))
        assert two_sided[r] == result.strict_expected
        assert abs(advantage[r] - result.delta) <= CHECK_TOL / 2
    assert not two_sided[: len(ONE_SIDED_PRIORS)].any()


def test_check_rows_that_fail_the_dataclass_checks_reach_the_scalar_path(monkeypatch):
    # scaled rows leave each kernel's proof intact, so only the row checks keep them
    def scale_prior(block):
        block.prior[:, 5] *= 1.5

    def scale_weights(priors):
        priors[1][:, 5] *= 1.5

    with edited_draws(monkeypatch, "_draw_block", scale_prior):
        with pytest.raises(ValueError, match="prior sums to"):
            verify_good(SearchConfig(seed=65, trials=20))
    with edited_draws(monkeypatch, "_draw_priors", scale_weights):
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


@pytest.mark.parametrize("trial", [512, 5 * BLOCK_TRIALS])
def test_a_check_kernel_shifted_at_one_block_start_fails_the_cross_check(monkeypatch, trial):
    # row 0 of every block is cross-checked, not only the first row of a kernel
    # call: trial 512 is row 0 of the third block of the first call, and trial
    # 1280 of the second block of the second call
    eu_kernel, theorem1_kernel = search._eu_kernel, search._theorem1_kernel
    seen = [0]  # trials the theorem-1 kernel valued before this call

    def shifted_eu(block):
        now, values = eu_kernel(block)
        if block.start <= trial < block.start + len(now):
            now[trial - block.start] -= 1e-9
        return now, values

    def shifted_theorem1(values, weights):
        advantage, two_sided = theorem1_kernel(values, weights)
        if seen[0] <= trial < seen[0] + len(advantage):
            advantage[trial - seen[0]] += 1e-9
        seen[0] += len(advantage)
        return advantage, two_sided

    monkeypatch.setattr(search, "_eu_kernel", shifted_eu)
    monkeypatch.setattr(search, "_theorem1_kernel", shifted_theorem1)
    for check in (verify_good, verify_theorem1):
        with pytest.raises(AssertionError, match=f"check kernel gave .* at trial {trial}, "):
            check(SearchConfig(seed=66, trials=6 * BLOCK_TRIALS))


def test_a_theorem1_strictness_failure_reaches_the_scalar_path(monkeypatch):
    # mass on both sides of 0 with an advantage of 5e-14, below CHECK_TOL
    def edit(priors):
        values, weights = priors
        values[:2, 7] = (1e-13, -1.0)
        weights[:, 7] = (0.5, 0.5, 0.0, 0.0)

    with edited_draws(monkeypatch, "_draw_priors", edit):
        report = verify_theorem1(SearchConfig(seed=67, trials=20))
    assert [(v.trial_index, v.detail) for v in report.violations] == [(7, "strictness clause failed")]


def test_good_sends_a_zero_marginal_to_the_scalar_path(monkeypatch):
    # the scalar path skips a signal that never occurs, and the kernel adds
    # exactly 0 for it, so the kernel decides the trial
    def edit(block):
        block.likelihood[:, 0, 3] = 0.0
        block.likelihood[:, 1, 3] = 1.0

    config = SearchConfig(seed=68, trials=20)
    with edited_draws(monkeypatch, "_draw_block", edit):
        assert verify_good(config).ok
    block = search._draw_block(config, [(0, 20)], 0)
    voi, proven = search._good_kernel(block)
    problem, channel = search._draw_instance(config, block, [3])[0]
    assert proven[3]
    assert abs(voi[3] - value_of_learning_eu(problem, problem.prior, channel).voi) <= CHECK_TOL / 2


def test_checks_send_row_0_of_every_block_and_every_unproven_row_to_the_scalar_path(monkeypatch):
    # kernels that give NaN at four trials leave those unproven; 1300 trials
    # take two kernel calls, of four blocks and of two
    config = SearchConfig(seed=71, trials=1300)
    unproven = {3, 300, 1100, 1299}
    expected = sorted(unproven | set(range(0, 1300, BLOCK_TRIALS)))
    eu_kernel, theorem1_kernel, draw_instance = search._eu_kernel, search._theorem1_kernel, search._draw_instance
    seen, built, checked = [0], [], []

    def shifted_eu(block):
        now, values = eu_kernel(block)
        for i in unproven & set(range(block.start, block.start + len(now))):
            now[i - block.start] = np.nan
        return now, values

    def shifted_theorem1(values, weights):
        advantage, two_sided = theorem1_kernel(values, weights)
        for i in unproven & set(range(seen[0], seen[0] + len(advantage))):
            advantage[i - seen[0]] = np.nan
        seen[0] += len(advantage)
        return advantage, two_sided

    def recorded_instances(config, block, rows):
        built.extend(block.start + int(r) for r in rows)
        return draw_instance(config, block, rows)

    def recorded_theorem1(prior):
        checked.append(prior)
        return theorem1_check(prior)

    monkeypatch.setattr(search, "_eu_kernel", shifted_eu)
    monkeypatch.setattr(search, "_theorem1_kernel", shifted_theorem1)
    monkeypatch.setattr(search, "_draw_instance", recorded_instances)
    monkeypatch.setattr(search, "theorem1_check", recorded_theorem1)
    assert verify_good(config).ok and verify_theorem1(config).ok
    assert built == expected
    assert checked == [random_discrete_prior(config, i) for i in expected]


@pytest.mark.parametrize(
    "rule",
    [
        ReuSearch(PowerRisk(2)),
        CredalSearch(MAX_SIZE),
        FaultySearch(0.5, "custom-posterior"),
        FaultySearch(0.5, "complement-conditionalization"),
        None,
    ],
    ids=["reu", "gamma", "faulty-custom", "faulty-complement", "check-good"],
)
def test_block_kernels_hold_no_extra_size_axis_at_the_size_limit(rule):
    # every size at MAX_SIZE: a kernel that broadcasts one more size axis, such
    # as a (members, signals, acts, states, trials) product, needs about 128 MiB
    sizes = dict(state_count=MAX_SIZE, act_count=MAX_SIZE, signal_count=MAX_SIZE)
    if rule is None:
        config = SearchConfig(seed=70, trials=4 * BLOCK_TRIALS, **sizes)
        run = lambda: verify_good(config)  # noqa: E731
    else:
        config = SearchConfig(seed=70, trials=BLOCK_TRIALS, rule=rule, **sizes)
        screen, rule_rows = search._screen_for(config)
        block = search._draw_block(config, [(0, BLOCK_TRIALS)], rule_rows)
        run = lambda: search._possible_witnesses(config, screen, block)  # noqa: E731
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize(
    "rule",
    [ReuSearch(PowerRisk(2)), CredalSearch(MAX_SIZE), FaultySearch(0.5, "custom-posterior")],
    ids=["reu", "gamma", "faulty-custom"],
)
def test_a_whole_search_at_the_size_limit_holds_one_block_per_kernel_call(rule):
    # four blocks in one kernel call would hold about four times a block's
    # intermediates: over 100 MiB for the risk-weighted and credal screens
    sizes = dict(state_count=MAX_SIZE, act_count=MAX_SIZE, signal_count=MAX_SIZE)
    config = SearchConfig(seed=70, trials=4 * BLOCK_TRIALS, rule=rule, **sizes)
    tracemalloc.start()
    try:
        find_information_aversion(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# 5 blocks in calls of up to eight (two for gamma:3); 4 blocks in calls of two
# (one for gamma:3); and 3 blocks, one a call
KERNEL_CASES = [((3, 3, 2), 1200), ((4, 4, 4), 800), ((12, 12, 12), 600)]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: "x".join(map(str, c[0])))
@pytest.mark.parametrize("name", PREFIX_RULES)
def test_blocks_per_kernel_call_change_nothing_observable(name, case, monkeypatch):
    (states, acts, signals), trials = case
    config = SearchConfig(
        seed=71, trials=trials, state_count=states, act_count=acts, signal_count=signals,
        rule=EQUIVALENCE_RULES[name],
    )
    cells = states * acts * signals * (3 if name == "gamma:3" else 1)
    per_call = max(1, search.KERNEL_VALUES // (BLOCK_TRIALS * cells))
    assert len(search._chunks(config, cells)[0]) == min(-(-trials // BLOCK_TRIALS), per_call)
    reverified, values = [], []
    reverifies, chunks = search._reverifies, search._chunks

    def recorded(witnesses):
        reverified.append([w.trial_index for w in witnesses])
        return reverifies(witnesses)

    monkeypatch.setattr(search, "_reverifies", recorded)
    monkeypatch.setattr(search, "_chunks", lambda config, per_trial: values.append(per_trial) or chunks(config, per_trial))
    witnesses = find_information_aversion(config)
    assert values == [cells]
    by_call = reverified.copy()
    reverified.clear()
    # one call per block that holds a witness, in trial order, with that block's witnesses
    blocks = sorted({w.trial_index // BLOCK_TRIALS for w in witnesses})
    assert len(blocks) > 1
    assert [{i // BLOCK_TRIALS for i in trials} for trials in by_call] == [{b} for b in blocks]
    assert sum(by_call, []) == sorted(w.trial_index for w in witnesses)
    with monkeypatch.context() as patch:
        patch.setattr(search, "KERNEL_VALUES", 1)
        assert len(search._chunks(config, cells)[0]) == 1
        assert find_information_aversion(config) == witnesses
        assert reverified == by_call


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: "x".join(map(str, c[0])))
@pytest.mark.parametrize("name", PREFIX_RULES)
def test_a_re_verification_failure_stops_the_search_before_the_next_block(name, case, monkeypatch):
    (states, acts, signals), trials = case
    config = SearchConfig(
        seed=71, trials=trials, state_count=states, act_count=acts, signal_count=signals,
        rule=EQUIVALENCE_RULES[name],
    )
    # the first witness of the second block that holds one: inside a kernel
    # call wherever a call holds more than one block
    witnesses = sorted(find_information_aversion(config), key=lambda w: w.trial_index)
    failing = next(w for w in witnesses if w.trial_index // BLOCK_TRIALS > witnesses[0].trial_index // BLOCK_TRIALS)
    trial_of, evaluated = {}, []
    draw_instance, evaluate_rule = search._draw_instance, search.evaluate_rule

    def recorded_instances(config, block, rows):
        pairs = draw_instance(config, block, rows)
        trial_of.update((id(problem), block.start + int(r)) for r, (problem, _) in zip(rows, pairs))
        return pairs

    def recorded_evaluation(problem, channel, rule):
        evaluated.append(trial_of[id(problem)])
        return evaluate_rule(problem, channel, rule)

    monkeypatch.setattr(search, "_draw_instance", recorded_instances)
    monkeypatch.setattr(search, "evaluate_rule", recorded_evaluation)
    monkeypatch.setattr(
        search, "witness_fault", lambda w, replayed: "a faked fault" if w.voi == failing.voi else witness_fault(w, replayed)
    )
    with pytest.raises(AssertionError, match=f"^witness at trial {failing.trial_index}: a faked fault$"):
        find_information_aversion(config)
    assert evaluated == sorted(evaluated)
    assert max(evaluated) // BLOCK_TRIALS == failing.trial_index // BLOCK_TRIALS
