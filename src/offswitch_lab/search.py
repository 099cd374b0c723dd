"""Seeded randomized generation, theorem property runs, and counterexample search.

Stream version 2 (``STREAM_VERSION``). Trials come in blocks of
``BLOCK_TRIALS``: block b holds trials b * BLOCK_TRIALS to (b + 1) *
BLOCK_TRIALS - 1 and draws from one generator, numpy's PCG64 seeded through
``SeedSequence(seed, spawn_key=(b,))``. Each array is drawn for the whole
block in one call. A search or ``check good`` block draws, in this order,
flat-Dirichlet priors (B, S), utilities uniform in ``UTILITY_RANGE``
(B, A, S), flat-Dirichlet channel rows (B, S, G), and last the rule's
flat-Dirichlet rows (B, R, S): credal members, or custom posteriors in
signal order. A ``check theorem1`` block draws atom counts of 1 to
``MAX_ATOMS`` (B,), atom values uniform in ``UTILITY_RANGE`` (B, MAX_ATOMS)
and standard exponentials (B, MAX_ATOMS), which are scaled to flat-Dirichlet
weights over each row's first count entries and are zero past them.

A full block is always drawn, then cut to the trials a run asks for, so
trial i depends only on (seed, i): it is row i % BLOCK_TRIALS of block
i // BLOCK_TRIALS, whatever the trial count, the order of evaluation or the
rule (whose rows come last). ``random_instance`` and
``random_discrete_prior`` return that trial. Changing ``BLOCK_TRIALS``, or the
order or shapes of the draws, changes the stream.

The search screens, then confirms. A numpy kernel per search rule values
the whole block, and a trial is dropped only when the screen proves it is
not a witness: its screened voi is at least ``-aversion_tolerance +
SCREEN_MARGIN``, every act choice the voi depends on leads the runner-up by
more than the margin, and its rows pass the checks that the dataclasses
make. No condition is put on the marginals a screen divides by: a zero
marginal gives NaN, which fails every lead test and so keeps the trial, and
a positive one, however small, gives the posterior the scalar path computes,
as both divide the same products by the same sums. The margin is derived
from ``UTILITY_RANGE``, because float error in a voi scales with the
utilities; at this range the screen and the scalar path agree to about
1e-14. A risk-weighted screen brackets each risk weight between its values
at tail -/+ margin, so a steep risk function widens the bracket instead of
breaking the proof. Every other trial is a possible witness: it is built
from its rows into a ``DecisionProblem`` and ``SignalChannel`` and
evaluated by the scalar ``evaluate_rule``, so every witness, every voi and
every exception comes from the scalar path.

A block has one layout, made once right after its draw: each array is cut
and copied contiguous with the trial axis last, so trial r is column r of
prior (S, n), utilities (A, S, n), likelihood (S, G, n), rule rows (R, S, n)
or atoms (MAX_ATOMS, n). Each sum, max or choice runs over a short leading
axis in one numpy call for all trials (a trailing axis costs a call per
trial), and sums over states are added state by state in the scalar path's
order, with no extra axis. A check values CHECK_BLOCKS blocks per call; a
screen values one, as its intermediates grow with the call (the
risk-weighted screen's to about 34 MiB per block at MAX_SIZE).

The checks screen and confirm the same way. ``check good`` values trials
by the expected-utility kernel that the faulty screen uses, and
``check theorem1`` by a zero-split kernel over atoms padded with zero
weights. A trial is dropped only when its kernel proves the property with
half of ``CHECK_TOL`` to spare (a voi or deference advantage of at least
-CHECK_TOL / 2, and above 1.5 * CHECK_TOL for a prior with mass on both
sides of 0) on rows that pass the dataclass checks. Every other trial, NaN
values included, is decided by the scalar ``value_of_learning_eu`` or
``theorem1_check``, so every violation comes from the scalar path. Row 0 of
every block, not only of every call, goes through the scalar path as well,
and its value must agree with the kernel's within CHECK_TOL / 2, or the
check raises AssertionError.

The witness path. A possible witness is built from its rows through
``tolist``, so the dataclasses receive plain floats, the same doubles as the
arrays, and check them as they check any input. It is evaluated once; a
witness is then encoded, written as JSON text, decoded by the strict decoder
(every check again) and replayed through the voi module, and must reproduce
its voi within ``REVERIFY_TOL`` (1e-10). The replay makes the same float
operations in the same order, so it gives the voi exactly. The scalar
kernels stay cheap without skipping a check: each checks a belief's length
once and scores each act once per belief.

This is the package's only numpy module. The scalar path it confirms with
(``voi.evaluate_rule``, ``voi.replay_witness``) and the witness codec
(``jsonio.Witness``) live in numpy-free modules, so the commands that
sample nothing never import it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    MISUPDATE_MODES,
    PROB_TOL,
    Act,
    CredalSet,
    CustomPosterior,
    DecisionProblem,
    DecisionRule,
    ExpectedUtilityRule,
    Faulty,
    GammaMaximinRule,
    RiskWeightedRule,
    SignalChannel,
    TableRisk,
    Updater,
    is_identity_risk,
    unit_interval,
)
from .distributions import WEIGHT_TOL, Discrete
from .errors import RuleCannotBeAverse
from .jsonio import Witness, witness_from_jsonable, witness_to_jsonable
from .offswitch import theorem1_check
from .voi import REVERIFY_TOL, evaluate_rule, replay_witness, reproduces, value_of_learning_eu

UTILITY_RANGE = (-10.0, 10.0)  # act utilities and prior atoms are drawn uniformly from it
SCREEN_MARGIN = 1e-10 * (UTILITY_RANGE[1] - UTILITY_RANGE[0])  # the screen's slack; see above

STREAM_VERSION = 2  # the block stream described above
BLOCK_TRIALS = 256  # trials drawn from one generator and screened together
MAX_ATOMS = 4  # a theorem-1 check prior has 1 to MAX_ATOMS atoms
CHECK_BLOCKS = 4  # blocks a check values per kernel call; see above
# Upper bounds on the sizes a search or check accepts. With them no block
# array holds more than BLOCK_TRIALS * 16**3 floats (8 MB).
MAX_SIZE = 16  # states, acts, signals and credal members
MAX_TRIALS = 10**6  # every witness is held in memory and written as one JSON document

MISUPDATE_STAY, MISUPDATE_COMPLEMENT, MISUPDATE_CUSTOM = MISUPDATE_MODES  # its keys, in order

# Rules without per-trial data are searched as they are.
EuSearch = ExpectedUtilityRule
ReuSearch = RiskWeightedRule


def _check_int(value, field: str) -> None:
    """ValueError naming the field unless ``value`` is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int, got {value!r}")


@dataclass(frozen=True)
class CredalSearch:
    """Gamma-maximin with a fresh credal set of ``members`` priors per trial."""

    members: int = 2

    def __post_init__(self) -> None:
        _check_int(self.members, "members")
        if not 1 <= self.members <= MAX_SIZE:
            raise ValueError(f"credal search needs between 1 and {MAX_SIZE} members, got {self.members}")


@dataclass(frozen=True)
class FaultySearch:
    """Updater that misfires with probability q; the table for the custom mode
    is sampled per trial."""

    q: float
    kind: str = MISUPDATE_COMPLEMENT

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", unit_interval(self.q, "misupdate probability"))
        if self.kind not in MISUPDATE_MODES:
            raise ValueError(f"unknown misupdate kind {self.kind!r}")


SearchRule = ExpectedUtilityRule | RiskWeightedRule | CredalSearch | FaultySearch


@dataclass(frozen=True)
class SearchConfig:
    """Everything a randomized run needs to be reproducible."""

    seed: int
    trials: int
    state_count: int = 3
    act_count: int = 3
    signal_count: int = 2
    rule: SearchRule = ExpectedUtilityRule()
    aversion_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for field in ("seed", "trials", "state_count", "act_count", "signal_count"):
            _check_int(getattr(self, field), field)
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trial count must be between 1 and {MAX_TRIALS}, got {self.trials}")
        for what, count in (("state", self.state_count), ("act", self.act_count), ("signal", self.signal_count)):
            if not 1 <= count <= MAX_SIZE:
                raise ValueError(f"{what} count must be between 1 and {MAX_SIZE}, got {count}")
        if not isinstance(self.rule, SearchRule):
            raise ValueError("rule must be a SearchRule (a Faulty is searched as FaultySearch and a "
                             f"GammaMaximinRule as CredalSearch), got {self.rule!r}")
        if isinstance(self.aversion_tolerance, bool) or not isinstance(self.aversion_tolerance, (int, float)):
            raise ValueError(f"aversion_tolerance must be an int or float, got {self.aversion_tolerance!r}")
        if not 0.0 < self.aversion_tolerance < math.inf:
            raise ValueError(f"aversion_tolerance must be positive and finite, got {self.aversion_tolerance!r}")


@dataclass(frozen=True)
class CheckViolation:
    trial_index: int
    detail: str
    value: float


@dataclass(frozen=True)
class CheckReport:
    trials: int
    violations: tuple[CheckViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class _Block:
    """Trials ``start`` to ``start + n - 1``, copied once at draw time: trial ``start + r`` is column r."""

    start: int
    prior: np.ndarray  # (S, n), C-contiguous like the others, with the trial axis last
    utilities: np.ndarray  # (A, S, n)
    likelihood: np.ndarray  # (S, G, n)
    rule_rows: np.ndarray  # (R, S, n): credal members, or custom posteriors in signal order


def _trial_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _block_rows(config: SearchConfig) -> list[tuple[int, int]]:
    """(block index, trials the run takes from it) for every block of a run."""
    return [(b, min(BLOCK_TRIALS, config.trials - b * BLOCK_TRIALS)) for b in range(-(-config.trials // BLOCK_TRIALS))]


def _draw_block(config: SearchConfig, block: int, rule_rows: int, rows: int = BLOCK_TRIALS) -> _Block:
    """The first ``rows`` trials of a block: flat-Dirichlet priors, uniform
    utilities, flat-Dirichlet channel rows and ``rule_rows`` flat-Dirichlet
    rows of rule data per trial, each drawn for the whole block and copied trials-last."""
    rng = _trial_rng(config.seed, block)
    n, s = BLOCK_TRIALS, config.state_count
    prior = rng.dirichlet(np.ones(s), size=n)
    utilities = rng.uniform(*UTILITY_RANGE, size=(n, config.act_count, s))
    likelihood = rng.dirichlet(np.ones(config.signal_count), size=(n, s))
    rule_data = rng.dirichlet(np.ones(s), size=(n, rule_rows)) if rule_rows else np.empty((n, 0, s))
    drawn = (prior, utilities, likelihood, rule_data)
    return _Block(block * n, *(a[:rows].transpose(*range(1, a.ndim), 0).copy() for a in drawn))


def _draw_instance(config: SearchConfig, block: _Block, r: int) -> tuple[DecisionProblem, SignalChannel]:
    """The (problem, channel) pair of trial ``block.start + r``, built from its
    rows as plain floats (``tolist`` gives the same doubles as the arrays)."""
    problem = DecisionProblem(
        states=tuple(f"state{i}" for i in range(config.state_count)),
        prior=block.prior[:, r].tolist(),
        acts=tuple([Act(f"act{k}", utilities) for k, utilities in enumerate(block.utilities[..., r].tolist())]),
    )
    channel = SignalChannel(
        signals=tuple(f"signal{j}" for j in range(config.signal_count)),
        likelihood=block.likelihood[..., r].tolist(),
    )
    return problem, channel


def random_instance(config: SearchConfig, trial_index: int) -> tuple[DecisionProblem, SignalChannel]:
    """Sample one (problem, channel) pair, fully determined by (seed, trial_index).

    Priors and channel rows come from the flat Dirichlet (symmetric simplex)
    distribution; utilities are uniform in ``UTILITY_RANGE``. Each call draws
    the trial's whole block of ``BLOCK_TRIALS`` trials and keeps one, so a
    caller that wants many trials should walk the blocks (``_draw_block`` and
    ``_draw_instance``) instead.
    """
    block = _draw_block(config, trial_index // BLOCK_TRIALS, 0)
    return _draw_instance(config, block, trial_index % BLOCK_TRIALS)


def _draw_priors(config: SearchConfig, block: int, rows: int = BLOCK_TRIALS) -> tuple[np.ndarray, np.ndarray]:
    """Atom values and weights (MAX_ATOMS, rows) of the first ``rows`` discrete
    priors of a block: per prior 1 to MAX_ATOMS atoms with uniform values and
    flat-Dirichlet weights, and zero weights past its count, copied trials-last."""
    rng = _trial_rng(config.seed, block)
    n = BLOCK_TRIALS
    counts = rng.integers(1, MAX_ATOMS + 1, size=n)
    values = rng.uniform(*UTILITY_RANGE, size=(n, MAX_ATOMS))
    draws = np.where(np.arange(MAX_ATOMS) < counts[:, None], rng.standard_exponential((n, MAX_ATOMS)), 0.0)
    # scaled by one over their running sum, as numpy's dirichlet scales its draws
    weights = draws * (1.0 / np.cumsum(draws, axis=-1)[:, -1:])
    return values[:rows].T.copy(), weights[:rows].T.copy()


def _discrete_prior(values: np.ndarray, weights: np.ndarray) -> Discrete:
    """The prior of one column of a block of priors."""
    return Discrete(tuple((float(v), float(w)) for v, w in zip(values, weights) if w > 0.0))


def random_discrete_prior(config: SearchConfig, trial_index: int) -> Discrete:
    """Sample a discrete utility prior with 1 to ``MAX_ATOMS`` atoms.

    Values are uniform in ``UTILITY_RANGE`` and weights come from
    the flat Dirichlet, so one-sided supports occur regularly in the stream.
    Each call draws the trial's whole block of ``BLOCK_TRIALS`` priors and
    keeps one, so a caller that wants many priors should draw the blocks
    (``_draw_priors``) instead.
    """
    values, weights = _draw_priors(config, trial_index // BLOCK_TRIALS)
    r = trial_index % BLOCK_TRIALS
    return _discrete_prior(values[:, r], weights[:, r])


def _chunks(config: SearchConfig) -> list[list[tuple[int, int]]]:
    """The (block, rows) pairs of a check run, CHECK_BLOCKS to a kernel call."""
    blocks = _block_rows(config)
    return [blocks[i : i + CHECK_BLOCKS] for i in range(0, len(blocks), CHECK_BLOCKS)]


def _cross_checked(proven: np.ndarray) -> np.ndarray:
    """Row numbers the scalar path decides: every row its kernel did not prove
    the property on, and row 0 of every block, which cross-checks the kernel."""
    proven[::BLOCK_TRIALS] = False
    return np.flatnonzero(~proven)


def _agree(trial_index: int, kernel: float, scalar: float) -> None:
    if not abs(kernel - scalar) <= CHECK_TOL / 2:
        raise AssertionError(
            f"check kernel gave {kernel!r} at trial {trial_index}, the scalar path {scalar!r}"
        )


def verify_good(config: SearchConfig) -> CheckReport:
    """Run the learn-then-choose inequality on random instances; expect no violations."""
    if not isinstance(config.rule, ExpectedUtilityRule):
        raise ValueError("the learning inequality is only guaranteed under plain expected utility")
    violations = []
    for chunk in _chunks(config):
        drawn = [_draw_block(config, b, 0, rows) for b, rows in chunk]
        arrays = zip(*((d.prior, d.utilities, d.likelihood, d.rule_rows) for d in drawn))
        block = _Block(drawn[0].start, *(np.concatenate(a, axis=-1) for a in arrays))
        with np.errstate(all="ignore"):
            kernel_voi, proven = _good_kernel(block)
        for r in _cross_checked(proven):
            problem, channel = _draw_instance(config, block, r)
            voi = value_of_learning_eu(problem, problem.prior, channel).voi
            if r % BLOCK_TRIALS == 0:
                _agree(block.start + int(r), kernel_voi[r], voi)
            if voi < -CHECK_TOL:
                violations.append(CheckViolation(block.start + int(r), "negative value of learning", voi))
    return CheckReport(config.trials, tuple(violations))


def verify_theorem1(config: SearchConfig) -> CheckReport:
    """Run the deference inequality on random discrete priors; expect no violations."""
    violations = []
    for chunk in _chunks(config):
        drawn = zip(*(_draw_priors(config, b, rows) for b, rows in chunk))
        values, weights = (np.concatenate(a, axis=-1) for a in drawn)
        with np.errstate(all="ignore"):
            advantage, two_sided = _theorem1_kernel(values, weights)
            proven = (
                (advantage >= -CHECK_TOL / 2)
                & (~two_sided | (advantage > 1.5 * CHECK_TOL))
                & ~_unchecked_priors(values, weights)
            )
        for r in _cross_checked(proven):
            i = chunk[0][0] * BLOCK_TRIALS + int(r)
            result = theorem1_check(_discrete_prior(values[:, r], weights[:, r]))
            if r % BLOCK_TRIALS == 0:
                _agree(i, advantage[r], result.delta)
            if not result.nonneg:
                violations.append(CheckViolation(i, "negative deference advantage", result.delta))
            elif result.strict_expected and not result.strict_observed:
                violations.append(CheckViolation(i, "strictness clause failed", result.delta))
    return CheckReport(config.trials, tuple(violations))


# ------------------------------------------------------------------ the screen


def _expectations(beliefs: np.ndarray, utilities: np.ndarray) -> np.ndarray:
    """Each act's expected utility (A, ..., n) at beliefs (S, ..., n), added
    state by state, in the order of the scalar path."""
    by_state = utilities.reshape(utilities.shape[:2] + (1,) * (beliefs.ndim - 2) + utilities.shape[2:])
    total = by_state[:, 0] * beliefs[0]
    for s in range(1, len(beliefs)):
        total += by_state[:, s] * beliefs[s]
    return total


def _bayes(beliefs: np.ndarray, likelihood: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginals (G, ..., n) and posteriors (S, G, ..., n) of beliefs (S, ..., n)
    on every signal of likelihood tables (S, G, n)."""
    by_signal = likelihood.reshape(likelihood.shape[:2] + (1,) * (beliefs.ndim - 2) + likelihood.shape[2:])
    joint = by_signal * beliefs[:, None]
    marginals = joint.sum(axis=0)
    joint /= marginals
    return marginals, joint


def _lead(values: np.ndarray, upper: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The index of the largest value along the first axis and its lead over the
    runner-up (inf when there is none); ``upper`` bounds the values from above
    where they are brackets. A NaN best value, or a NaN bound among the others,
    makes the lead NaN; a bracket's bounds are NaN together."""
    best, top = np.zeros(values.shape[1:], dtype=np.intp), values[0]
    for a in range(1, len(values)):
        better = values[a] > top
        best, top = np.where(better, a, best), np.where(better, values[a], top)
    rest = np.full_like(top, -np.inf)
    for a, bound in enumerate(values if upper is None else upper):
        np.maximum(rest, np.where(best == a, -np.inf, bound), out=rest)
    return best, top - rest


def _risk_weights(rule: RiskWeightedRule, tails: np.ndarray) -> np.ndarray:
    """The rule's risk function at every tail; a table is linear between knots."""
    if isinstance(rule.risk, TableRisk):
        return np.interp(tails, *zip(*rule.risk.knots))
    return rule.risk.weight(tails)  # a power is elementwise on arrays


def _rank_brackets(rule: RiskWeightedRule, utilities: np.ndarray, probabilities: np.ndarray):
    """Lower and upper bounds of the rank-dependent value of prospects whose
    utilities ascend along the first axis.

    The scalar path finds its tails (the mass above an outcome) by subtraction
    and clamps them at 0, so they differ from these by rounding; as a risk
    function is non-decreasing, its values at tail -/+ margin bound the weight
    the scalar path gives each step, a thin tail's included."""
    tails = probabilities[1:].copy()
    for k in range(len(tails) - 2, -1, -1):  # numpy's cumsum makes a call per prospect
        tails[k] += tails[k + 1]
    steps = np.diff(utilities, axis=0)
    low = utilities[0] + (_risk_weights(rule, np.clip(tails - SCREEN_MARGIN, 0.0, 1.0)) * steps).sum(axis=0)
    high = utilities[0] + (_risk_weights(rule, np.clip(tails + SCREEN_MARGIN, 0.0, 1.0)) * steps).sum(axis=0)
    return low, high


def _screen_reu(rule: RiskWeightedRule, block: _Block, floor: float) -> np.ndarray:
    """Possible witnesses of a risk-weighted rule: per signal the act with the
    best posterior value, then the plan's joint (state, signal) prospect valued
    globally, as the voi module fixes."""
    prior, utilities, likelihood = block.prior, block.utilities, block.likelihood
    by_state = utilities.swapaxes(0, 1)  # (S, A, n)
    order = by_state.argsort(axis=0)
    ranked = np.take_along_axis(by_state, order, axis=0)
    _, posteriors = _bayes(prior, likelihood)  # (S, G, n)
    ranked_posteriors = np.take_along_axis(posteriors[:, None], order[:, :, None], axis=0)  # (S, A, G, n)
    low, high = _rank_brackets(rule, ranked[:, :, None], ranked_posteriors)
    choice, lead = _lead(low, high)
    planned = np.take_along_axis(utilities[:, :, None], choice[None, None], 0)[0].reshape(-1, prior.shape[-1])
    joint = (prior[:, None] * likelihood).reshape(planned.shape)
    joint_order = planned.argsort(axis=0)
    learning, _ = _rank_brackets(
        rule, np.take_along_axis(planned, joint_order, 0), np.take_along_axis(joint, joint_order, 0)
    )
    _, now = _rank_brackets(rule, ranked, np.take_along_axis(prior[:, None], order, 0))
    return ~((learning - now.max(axis=0) >= floor) & (lead > SCREEN_MARGIN).all(axis=0))


def _screen_gamma(rule: CredalSearch, block: _Block, floor: float) -> np.ndarray:
    """Possible witnesses of gamma-maximin: the plan is the maximin act per
    signal at the member-wise posteriors, and the learning value is the worst
    member's score of that plan."""
    utilities, likelihood = block.utilities, block.likelihood
    members = block.rule_rows.swapaxes(0, 1)  # (S, M, n)
    now = _expectations(members, utilities).min(axis=1).max(axis=0)
    marginals, posteriors = _bayes(members, likelihood)  # (G, M, n), (S, G, M, n)
    values = _expectations(posteriors, utilities)  # (A, G, M, n)
    plan, lead = _lead(values.min(axis=2))
    learning = (marginals * np.take_along_axis(values, plan[None, :, None], 0)[0]).sum(axis=0).min(axis=0)
    return ~((learning - now >= floor) & (lead > SCREEN_MARGIN).all(axis=0))


def _eu_kernel(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """The expected-utility kernel of the faulty screen and ``check good``: per
    trial the best expected utility now (n,), and each act's expected utility
    on the joint of the states and each signal (A, G, n), which is the signal's
    marginal times the act's posterior value. Nothing is divided, and a zero
    marginal gives zero values, as the scalar path skips the signal."""
    now = _expectations(block.prior, block.utilities).max(axis=0)
    return now, _expectations(block.prior[:, None] * block.likelihood, block.utilities)


def _good_kernel(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's expected-utility voi, and whether it proves the learning
    inequality with half of CHECK_TOL to spare on rows the scalar path accepts."""
    now, values = _eu_kernel(block)
    voi = values.max(axis=0).sum(axis=0) - now
    return voi, (voi >= -CHECK_TOL / 2) & ~_unchecked_rows(block)


def _theorem1_kernel(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The deference advantage E[max(U, 0)] - max(E[U], 0) of each prior from its
    zero split, the prefer cell's mass times its mean being the weighted sum of
    the atoms at or above 0, and whether the prior has mass on both sides of 0.
    Atoms padded with zero weights add nothing to either."""
    atoms = weights > 0.0
    advantage = (weights * np.maximum(values, 0.0)).sum(axis=0) - np.maximum((weights * values).sum(axis=0), 0.0)
    two_sided = (atoms & (values > 0.0)).any(axis=0) & (atoms & (values < 0.0)).any(axis=0)
    return advantage, two_sided


def _screen_faulty(rule: FaultySearch, block: _Block, floor: float) -> np.ndarray:
    """Possible witnesses of a faulty updater: the act best at the posterior
    blended with the act best at the misupdated belief, both scored at the true
    posterior. The posterior-best act enters only through its value, a max, so
    only the misupdated choice needs a lead. A complement posterior needs no
    condition on its marginal, for the reason the module docstring gives."""
    now, values = _eu_kernel(block)
    if rule.kind == MISUPDATE_CUSTOM:
        wrong = block.rule_rows.swapaxes(0, 1)  # (S, G, n)
    else:
        _, wrong = _bayes(block.prior, 1.0 - block.likelihood)
    wrong_choice, lead = _lead(_expectations(wrong, block.utilities))
    misfired = np.take_along_axis(values, wrong_choice[None], 0)[0]
    learning = ((1.0 - rule.q) * values.max(axis=0) + rule.q * misfired).sum(axis=0)
    return ~((learning - now >= floor) & (lead > SCREEN_MARGIN).all(axis=0))


def _unchecked_rows(block: _Block) -> np.ndarray:
    """Trials whose rows might fail the checks the dataclasses make: finite
    utilities, and probability vectors that are finite, non-negative and sum
    to 1 within PROB_TOL. A vector of non-negative entries whose sum is near 1
    is finite. Sums are held to half of PROB_TOL here, as numpy adds in
    another order than Python, which moves a sum of at most MAX_SIZE entries
    by far less than the other half."""
    ok = np.isfinite(block.utilities).all(axis=(0, 1))
    for vectors in (block.prior[None], block.likelihood, block.rule_rows):  # each vector runs along axis 1
        ok &= (vectors >= 0.0).all(axis=(0, 1)) & (np.abs(vectors.sum(axis=1) - 1.0) <= PROB_TOL / 2).all(axis=0)
    return ~ok


def _unchecked_priors(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Priors whose atoms might fail the checks ``Discrete`` makes: finite
    values, and finite non-negative weights that sum to 1 within WEIGHT_TOL,
    held to half of it for the reason ``_unchecked_rows`` gives."""
    ok = np.isfinite(values).all(axis=0) & (weights >= 0.0).all(axis=0)
    return ~(ok & (np.abs(weights.sum(axis=0) - 1.0) <= WEIGHT_TOL / 2))


def _screen_for(config: SearchConfig):
    """The block screen of the configured rule and the rows of rule data each
    trial draws; RuleCannotBeAverse for a rule that provably never rejects
    free information, as an empty search would be misleading."""
    rule = config.rule
    if isinstance(rule, RiskWeightedRule):
        if is_identity_risk(rule.risk):
            raise RuleCannotBeAverse(
                "an identity risk function reduces risk-weighted utility to expected utility, "
                "which never rejects free information"
            )
        return _screen_reu, 0
    if isinstance(rule, CredalSearch):
        if rule.members < 2:
            raise RuleCannotBeAverse(
                "a singleton credal set reduces gamma-maximin to expected utility, "
                "which never rejects free information"
            )
        return _screen_gamma, rule.members
    if isinstance(rule, FaultySearch):
        if rule.kind == MISUPDATE_STAY or rule.q == 0.0:
            raise RuleCannotBeAverse(
                "staying at the prior (or never misfiring) only blends the learning value "
                "toward the choose-now value; it cannot make learning strictly bad"
            )
        return _screen_faulty, config.signal_count if rule.kind == MISUPDATE_CUSTOM else 0
    raise RuleCannotBeAverse(
        "expected utility with conditionalization never rejects free information "
        "(Good's theorem); an empty search would be misleading"
    )


# ------------------------------------------------------ the scalar path


def _concrete_rule(search_rule: SearchRule, rows: np.ndarray, channel: SignalChannel) -> DecisionRule | Updater:
    """Materialize a trial's rule from its rows of rule data."""
    if isinstance(search_rule, CredalSearch):
        return GammaMaximinRule(CredalSet(rows.tolist()))
    if isinstance(search_rule, FaultySearch):
        mode = MISUPDATE_MODES[search_rule.kind]
        if mode is CustomPosterior:
            return Faulty(search_rule.q, CustomPosterior(dict(zip(channel.signals, rows.tolist()))))
        return Faulty(search_rule.q, mode())
    return search_rule


def _reverifies(witness: Witness) -> bool:
    round_tripped = witness_from_jsonable(json.loads(json.dumps(witness_to_jsonable(witness))))
    return reproduces(replay_witness(round_tripped), witness.voi)


def _possible_witnesses(config: SearchConfig, screen, block: _Block) -> np.ndarray:
    """Row numbers in the block of the trials the screen cannot rule out."""
    # a zero marginal gives NaN, and each screen's conditions keep a trial on NaN
    with np.errstate(all="ignore"):
        possible = screen(config.rule, block, -config.aversion_tolerance + SCREEN_MARGIN)
        return np.flatnonzero(possible | _unchecked_rows(block))


def find_information_aversion(config: SearchConfig) -> list[Witness]:
    """Collect every trial on which the configured rule strictly rejects information.

    Returns the verified witnesses sorted by voi ascending (worst first).
    Rules that provably cannot be averse are rejected with
    ``RuleCannotBeAverse`` rather than silently returning nothing.
    """
    screen, rule_rows = _screen_for(config)
    witnesses = []
    for b, rows in _block_rows(config):
        block = _draw_block(config, b, rule_rows, rows)
        for r in _possible_witnesses(config, screen, block):
            i = block.start + int(r)
            problem, channel = _draw_instance(config, block, r)
            rule = _concrete_rule(config.rule, block.rule_rows[..., r], channel)
            report = evaluate_rule(problem, channel, rule)
            if report.voi < -config.aversion_tolerance:
                witness = Witness(problem, channel, rule, report.voi, i)
                if not _reverifies(witness):
                    raise AssertionError(
                        f"witness at trial {i} did not reproduce its voi on re-evaluation"
                    )
                witnesses.append(witness)
    witnesses.sort(key=lambda w: (w.voi, w.trial_index))
    return witnesses
