"""Independent reference implementations used as test oracles.

These deliberately re-derive every quantity from the raw fields of the data
types, through different formulations than the package uses (per-atom
decision weights instead of sorted increments, explicit joint enumeration
instead of per-signal aggregation, bisection instead of the closed form),
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np

from offswitch_lab import search
from offswitch_lab.core import (
    CHECK_TOL,
    MISUPDATE_MODES,
    Act,
    ComplementConditionalization,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    Faulty,
    GammaMaximinRule,
    SignalChannel,
    StayAtPrior,
)
from offswitch_lab.distributions import Discrete, UtilityDistribution, expected_positive_part, mean
from offswitch_lab.offswitch import OffSwitchReport, noisy_defer_value, reduce_to_two_state, theorem1_check
from offswitch_lab.voi import value_of_learning_eu


def reu_decumulative(prospect, risk) -> float:
    """Rank-dependent value via per-atom decision weights w_i = r(T_i) - r(T_i+1),
    where T_i is the probability of doing at least as well as outcome i."""
    pairs = sorted((float(u), float(p)) for u, p in prospect if p > 0.0)
    n = len(pairs)
    tails = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tails[i] = tails[i + 1] + pairs[i][1]
    return sum(
        (risk.weight(tails[i]) - risk.weight(tails[i + 1])) * pairs[i][0] for i in range(n)
    )


def eu_of(problem: DecisionProblem, act_index: int, belief) -> float:
    return sum(b * u for b, u in zip(belief, problem.acts[act_index].utilities))


def eu_best(problem: DecisionProblem, belief) -> tuple[int, float]:
    values = [eu_of(problem, i, belief) for i in range(len(problem.acts))]
    best = max(values)
    return values.index(best), best


def bayes(belief, channel: SignalChannel, j: int) -> tuple[list[float], float]:
    """Posterior and marginal for signal column j, straight from the joint."""
    joint = [b * row[j] for b, row in zip(belief, channel.likelihood)]
    marg = sum(joint)
    if marg <= 0.0:
        return [], 0.0
    return [x / marg for x in joint], marg


def plan_value_eu(problem: DecisionProblem, channel: SignalChannel, plan) -> float:
    """Expected utility of a fixed signal->act plan by explicit joint enumeration."""
    total = 0.0
    for w, b in enumerate(problem.prior):
        for j in range(len(channel.signals)):
            total += b * channel.likelihood[w][j] * problem.acts[plan[j]].utilities[w]
    return total


def reu_voi(problem: DecisionProblem, channel: SignalChannel, risk) -> float:
    """Risk-weighted learn-minus-now gap, rebuilt from scratch."""
    belief = problem.prior
    joint_atoms = []
    for j in range(len(channel.signals)):
        post, marg = bayes(belief, channel, j)
        if marg <= 0.0:
            continue
        scores = [
            reu_decumulative(zip(problem.acts[i].utilities, post), risk)
            for i in range(len(problem.acts))
        ]
        chosen = scores.index(max(scores))
        for w, b in enumerate(belief):
            p = b * channel.likelihood[w][j]
            if p > 0.0:
                joint_atoms.append((problem.acts[chosen].utilities[w], p))
    learning = reu_decumulative(joint_atoms, risk)
    now = max(
        reu_decumulative(zip(problem.acts[i].utilities, belief), risk)
        for i in range(len(problem.acts))
    )
    return learning - now


def gamma_best(problem: DecisionProblem, members) -> tuple[int, float]:
    values = [
        min(eu_of(problem, i, m) for m in members) for i in range(len(problem.acts))
    ]
    best = max(values)
    return values.index(best), best


def gamma_voi(problem: DecisionProblem, channel: SignalChannel, credal: CredalSet) -> float:
    """Worst-case-over-members learn-minus-now gap, rebuilt from scratch."""
    plan = {}
    for j in range(len(channel.signals)):
        posts = []
        for m in credal.members:
            post, marg = bayes(m, channel, j)
            if marg > 0.0:
                posts.append(post)
        if posts:
            plan[j] = gamma_best(problem, posts)[0]
    member_scores = []
    for m in credal.members:
        score = 0.0
        for j, act_index in plan.items():
            post, marg = bayes(m, channel, j)
            if marg > 0.0:
                score += marg * eu_of(problem, act_index, post)
        member_scores.append(score)
    return min(member_scores) - gamma_best(problem, credal.members)[1]


def faulty_voi(problem: DecisionProblem, channel: SignalChannel, updater) -> float:
    """Learn-minus-now gap for an updater that misfires with probability q."""
    belief = problem.prior
    q = updater.q
    kind = updater.kind
    learning = 0.0
    for j, signal in enumerate(channel.signals):
        post, marg = bayes(belief, channel, j)
        if marg <= 0.0:
            continue
        good_index, good_value = eu_best(problem, post)
        if isinstance(kind, StayAtPrior):
            wrong = list(belief)
        elif isinstance(kind, ComplementConditionalization):
            comp = [b * (1.0 - row[j]) for b, row in zip(belief, channel.likelihood)]
            comp_total = sum(comp)
            wrong = [x / comp_total for x in comp]
        else:
            assert isinstance(kind, CustomPosterior)
            wrong = list(kind.posterior_for(signal))
        wrong_index, _ = eu_best(problem, wrong)
        learning += marg * ((1.0 - q) * good_value + q * eu_of(problem, wrong_index, post))
    return learning - eu_best(problem, belief)[1]


def bisect_defer_threshold(prior: UtilityDistribution, tol: float = 1e-12) -> float | None:
    """Root of defer(eps) = best-immediate-value on [0, 1] by bisection."""
    target = max(mean(prior), 0.0)

    def gap(eps: float) -> float:
        return noisy_defer_value(prior, eps) - target

    if gap(1.0) > 0.0:
        return None
    lo, hi = 0.0, 1.0
    if gap(lo) <= 0.0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def embedded_report(prior: UtilityDistribution, epsilon: float) -> OffSwitchReport:
    """The game's report through its two-state embedding, one number at a time.

    The learn value is ``value_of_learning_eu`` on the embedding, the defer
    value plays act on approve and nothing on reject, and delta and the
    crossover come from ``expected_positive_part`` and the embedding's cells.
    The package computes every number from one zero split instead.
    """
    game = reduce_to_two_state(prior, epsilon)
    p_good, p_bad = game.problem.prior
    m_good, m_bad = game.problem.acts[0].utilities
    (approve_good, _), (approve_bad, _) = game.channel.likelihood
    eu_act = mean(prior)
    eu_defer = p_good * approve_good * m_good + p_bad * approve_bad * m_bad
    eu_learn = value_of_learning_eu(game.problem, game.problem.prior, game.channel).value_learning
    advantage = expected_positive_part(prior) - max(eu_act, 0.0)
    denom = p_good * m_good - p_bad * m_bad
    threshold = None if denom <= 0.0 else max(0.0, advantage) / denom
    top = max(eu_defer, eu_act, 0.0)
    best = "defer" if eu_defer == top else "act" if eu_act == top else "nothing"
    return OffSwitchReport(eu_act, 0.0, eu_defer, eu_learn, advantage, best, threshold)


def normalized(draws) -> list[float]:
    """Standard exponentials scaled by one over their running sum: a flat-Dirichlet row."""
    total = 0.0
    for x in draws:
        total += float(x)
    scale = 1.0 / total
    return [float(x) * scale for x in draws]


def block_rng(config, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(block,)))


def block_draws(config, block: int, rule_rows: int) -> list:
    """Each trial's prior, utilities, channel rows and rule rows in one block of
    the search stream, from raw variates: standard exponentials normalized in
    Python for numpy's ``dirichlet``, and ``lo + (hi - lo) * random()`` for its
    ``uniform``."""
    rng = block_rng(config, block)
    n, states, acts, signals = search.BLOCK_TRIALS, config.state_count, config.act_count, config.signal_count
    priors = rng.standard_exponential((n, states))
    units = rng.random((n, acts, states))
    rows = rng.standard_exponential((n, states, signals))
    data = rng.standard_exponential((n, rule_rows, states))
    lo, hi = search.UTILITY_RANGE
    return [
        (
            normalized(priors[r]),
            [[lo + (hi - lo) * float(u) for u in act] for act in units[r]],
            [normalized(row) for row in rows[r]],
            [normalized(row) for row in data[r]],
        )
        for r in range(n)
    ]


def trial_draws(config, trial_index: int, rule_rows: int):
    """One trial's prior, utilities, channel rows and rule rows: a row of its block."""
    return block_draws(config, trial_index // search.BLOCK_TRIALS, rule_rows)[trial_index % search.BLOCK_TRIALS]


def per_trial(config, draw_block):
    """(trial index, its draws) for trials 0 to ``config.trials - 1`` in order,
    where ``draw_block(b)`` lists the draws of block b's trials."""
    for i in range(config.trials):
        if i % search.BLOCK_TRIALS == 0:
            draws = draw_block(i // search.BLOCK_TRIALS)
        yield i, draws[i % search.BLOCK_TRIALS]


def instance_of(config, prior, utilities, rows) -> tuple[DecisionProblem, SignalChannel]:
    problem = DecisionProblem(
        tuple(f"state{w}" for w in range(config.state_count)),
        tuple(prior),
        tuple(Act(f"act{k}", tuple(u)) for k, u in enumerate(utilities)),
    )
    return problem, SignalChannel(tuple(f"signal{j}" for j in range(config.signal_count)), tuple(map(tuple, rows)))


def prior_draws(config, block: int) -> list[Discrete]:
    """The discrete priors of one block of the theorem-1 stream: atom counts,
    then ``lo + (hi - lo) * random()`` values, then standard exponentials
    normalized over each prior's atoms."""
    rng = block_rng(config, block)
    n = search.BLOCK_TRIALS
    counts = rng.integers(1, search.MAX_ATOMS + 1, size=n)
    units = rng.random((n, search.MAX_ATOMS))
    exponentials = rng.standard_exponential((n, search.MAX_ATOMS))
    lo, hi = search.UTILITY_RANGE
    priors = []
    for count, unit, draws in zip(counts, units, exponentials):
        atoms = zip((lo + (hi - lo) * float(u) for u in unit[:count]), normalized(draws[:count]))
        priors.append(Discrete(tuple((v, w) for v, w in atoms if w > 0.0)))
    return priors


def per_trial_good(config) -> search.CheckReport:
    """``check good`` one trial at a time through the scalar kernel, with no block kernel."""
    violations = []
    for i, (prior, utilities, rows, _) in per_trial(config, lambda b: block_draws(config, b, 0)):
        problem, channel = instance_of(config, prior, utilities, rows)
        voi = value_of_learning_eu(problem, problem.prior, channel).voi
        if voi < -CHECK_TOL:
            violations.append(search.CheckViolation(i, "negative value of learning", voi))
    return search.CheckReport(config.trials, tuple(violations))


def per_trial_theorem1(config) -> search.CheckReport:
    """``check theorem1`` one trial at a time through ``theorem1_check``, with no block kernel."""
    violations = []
    for i, prior in per_trial(config, lambda b: prior_draws(config, b)):
        result = theorem1_check(prior)
        if not result.nonneg:
            violations.append(search.CheckViolation(i, "negative deference advantage", result.delta))
        elif result.strict_expected and not result.strict_observed:
            violations.append(search.CheckViolation(i, "strictness clause failed", result.delta))
    return search.CheckReport(config.trials, tuple(violations))


def per_trial_search(config) -> list:
    """The witness search one trial at a time, every trial through the scalar
    ``evaluate_rule``, with no screen: the reference for the block screen."""
    search_rule = config.rule
    custom = isinstance(search_rule, search.FaultySearch) and MISUPDATE_MODES[search_rule.kind] is CustomPosterior
    if isinstance(search_rule, search.CredalSearch):
        rule_rows = search_rule.members
    else:
        rule_rows = config.signal_count if custom else 0
    witnesses = []
    for i, (prior, utilities, rows, data) in per_trial(config, lambda b: block_draws(config, b, rule_rows)):
        problem, channel = instance_of(config, prior, utilities, rows)
        rule = search_rule
        if isinstance(search_rule, search.CredalSearch):
            rule = GammaMaximinRule(CredalSet(tuple(map(tuple, data))))
        elif isinstance(search_rule, search.FaultySearch):
            table = dict(zip(channel.signals, map(tuple, data)))
            rule = Faulty(search_rule.q, CustomPosterior(table) if custom else MISUPDATE_MODES[search_rule.kind]())
        report = search.evaluate_rule(problem, channel, rule)
        if report.voi < -config.aversion_tolerance:
            witnesses.append(search.Witness(problem, channel, rule, report.voi, i))
    witnesses.sort(key=lambda w: (w.voi, w.trial_index))
    return witnesses


def block_search(config, block, rows=None) -> dict:
    """The search over one block of the stream with no screen: each trial (or
    each of ``rows``) through the scalar ``_draw_instance``, ``_concrete_rule``
    and ``evaluate_rule``. Maps the row of every witness to its voi in hex, and
    the row of every error to its type and message."""
    found = {}
    for r in range(block.prior.shape[-1]) if rows is None else map(int, rows):
        try:
            problem, channel = search._draw_instance(config, block, r)
            rule = search._concrete_rule(config.rule, block.rule_rows[..., r], channel)
            voi = search.evaluate_rule(problem, channel, rule).voi
            if voi < -config.aversion_tolerance:
                found[r] = voi.hex()
        except Exception as exc:  # every error, of any type, is an outcome to compare
            found[r] = (type(exc), str(exc))
    return found
