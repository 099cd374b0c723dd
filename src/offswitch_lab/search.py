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
and flat-Dirichlet weights (B, MAX_ATOMS) over each row's first count
entries, zero past them. A flat-Dirichlet row is standard exponentials scaled
by one over their row-order sum: numpy's ``dirichlet`` at alpha 1, to the bit.

A full block is always drawn, then cut to the trials a run asks for, so
trial i depends only on (seed, i): it is row i % BLOCK_TRIALS of block
i // BLOCK_TRIALS, whatever the trial count, the order of evaluation or the
rule (whose rows come last). ``random_instance`` and
``random_discrete_prior`` return that trial. Changing ``BLOCK_TRIALS``, or the
order or shapes of the draws, changes the stream.

The search screens, then confirms. A numpy kernel per search rule values the
whole block, returning each trial's screened voi (a lower bound on it for a
risk-weighted rule) and the lead of every act choice the voi depends on over
its runner-up, and ``_possible_witnesses`` makes the proof once: a trial is
dropped only when its screened voi is at least ``-aversion_tolerance +
SCREEN_MARGIN``, every lead exceeds the margin, and its rows pass the checks
that the dataclasses make. No condition is put on the marginals a screen
divides by: a zero marginal gives NaN, which fails every lead test and so
keeps the trial, and a positive one, however small, gives the posterior the
scalar path computes, as both divide the same products by the same sums. The
margin is derived from ``UTILITY_RANGE``, because float error in a voi scales
with the utilities; at this range the screen and the scalar path agree to
about 1e-14. A risk-weighted screen brackets each risk weight between its
values at tail -/+ margin, so a steep risk function widens the bracket instead
of breaking the proof. Every other trial is a possible witness: it is built
from its rows into a ``DecisionProblem`` and ``SignalChannel`` and evaluated
by the scalar ``evaluate_rule``, so every witness, every voi and every
exception comes from the scalar path.

A kernel call, of a search or a check, draws a run of consecutive blocks
(``_chunks``): as many as keep blocks * BLOCK_TRIALS * values per trial within
KERNEL_VALUES, and at least one, as a kernel's intermediates grow with the
call (the risk-weighted screen's reach about 34 MiB for one block at
MAX_SIZE). The values per trial are S * A * G * M for a search (M credal
members, or 1), S * A * G for ``check good`` and MAX_ATOMS for ``check
theorem1``. So a call covers eight blocks at 3 x 3 x 2 (four for two credal
members), 18 at 2 x 2 x 2, 36 for ``check theorem1`` and one at 12 x 12 x 12
and at 16 x 16 x 16. The run is drawn into arrays
allocated once per call and scaled once: trial r of the run is column r of
the contiguous prior (S, n), utilities (A, S, n), likelihood (S, G, n), rule
rows (R, S, n) or atoms (MAX_ATOMS, n). Each sum, max or choice runs over a
short leading axis in one numpy call for all trials (a trailing axis costs a
call per trial), and sums over states are added state by state in the scalar
path's order, with no extra axis.

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

The witness path. The scalar path's rows are gathered once per call, one
``tolist`` per array, so the dataclasses receive plain floats, the same
doubles as the arrays, and check them as they check any input. A possible
witness is evaluated once, in trial order, and each block's witnesses are
re-verified together (``_reverifies``) before a candidate of the next block is
evaluated: they are encoded in trial order as one JSON list, written as one
JSON text and read back, and each entry is decoded by the strict decoder
(every check again) and replayed through the voi module, and must pass
``voi.witness_fault``: reproduce its voi within ``REVERIFY_TOL`` (1e-10) and
stay below 0; the first that does not stops the search with AssertionError
naming its trial and the fault, and one that the decoder or the replay refuses
stops it with AssertionError carrying that ValueError's message. Only one
block's document is held at a time, however many blocks a call covers. The
replay makes the same float operations in the same order, so it gives the voi
exactly. The scalar kernels stay cheap without skipping a check: each checks a
belief's length once and scores each act once per belief, and the checkers a witness's vectors go through (``core.as_probability_vector``
for every probability vector, ``core.check_length`` behind a length test) format
an error message only for a value that fails.

The collector. ``find_information_aversion`` pauses the cyclic garbage
collector (``gc.disable``) while it draws, screens, builds, evaluates and
re-verifies, and enables it again on the way out, also when it raises, only if
it was enabled on the way in. A witness-dense call allocates dozens of tracked
containers per witness (the problem, the rule, the re-verification document
and its decoded copy), which set off hundreds of collections per 10 000 trials,
yet makes no reference cycle, as the tests check: every object it drops is
freed by its reference count, so the pause holds no memory back. Cyclic
garbage made meanwhile by another thread waits until the search returns.

This is the package's only numpy module. The scalar path it confirms with
(``voi.evaluate_rule``, ``voi.replay_witness``) and the witness codec
(``jsonio.Witness``) live in numpy-free modules, so the commands that
sample nothing never import it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
from dataclasses import dataclass
from itertools import groupby

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
    is_identity_risk,
    unit_interval,
)
from .distributions import Discrete
from .jsonio import Witness, witness_from_jsonable, witness_to_jsonable
from .offswitch import theorem1_check
from .voi import REVERIFY_TOL, evaluate_rule, replay_witness, value_of_learning_eu, witness_fault

UTILITY_RANGE = (-10.0, 10.0)  # act utilities and prior atoms are drawn uniformly from it
SCREEN_MARGIN = 1e-10 * (UTILITY_RANGE[1] - UTILITY_RANGE[0])  # the screen's slack; see above

STREAM_VERSION = 2  # the block stream described above
BLOCK_TRIALS = 256  # trials drawn from one generator and screened together
MAX_ATOMS = 4  # a theorem-1 check prior has 1 to MAX_ATOMS atoms
KERNEL_VALUES = 8 * BLOCK_TRIALS * 18  # values per kernel call: eight blocks at 3 x 3 x 2; see above
# Upper bounds on the sizes a search or check accepts. With them no block
# array holds more than BLOCK_TRIALS * 16**3 floats (8 MB).
MAX_SIZE = 16  # states, acts, signals and credal members
MAX_TRIALS = 10**6  # every witness is held in memory; the document is written one entry at a time

MISUPDATE_STAY, MISUPDATE_COMPLEMENT, MISUPDATE_CUSTOM = MISUPDATE_MODES  # its keys, in order

# Rules without per-trial data are searched as they are.
ReuSearch = RiskWeightedRule


def _check_int(value, field: str) -> None:
    """ValueError naming the field unless ``value`` is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int, got {value!r}")


@dataclass(frozen=True, slots=True)
class CredalSearch:
    """Gamma-maximin with a fresh credal set of ``members`` priors per trial."""

    members: int = 2

    def __post_init__(self) -> None:
        _check_int(self.members, "members")
        if not 1 <= self.members <= MAX_SIZE:
            raise ValueError(f"credal search needs between 1 and {MAX_SIZE} members, got {self.members}")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CheckViolation:
    trial_index: int
    detail: str
    value: float


@dataclass(frozen=True, slots=True)
class CheckReport:
    trials: int
    violations: tuple[CheckViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, slots=True)
class _Block:
    """Trials ``start`` to ``start + n - 1`` of a run of blocks: trial ``start + r`` is column r."""

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


def _draw_columns(config: SearchConfig, blocks: list[tuple[int, int]], draw) -> list[np.ndarray]:
    """Arrays allocated once, trial axis last, whose columns hold the first ``rows``
    trials of what ``draw(rng)`` draws, trials first, for each (block, rows) pair."""
    n, end, columns = sum(rows for _, rows in blocks), 0, None
    for b, rows in blocks:
        drawn = draw(_trial_rng(config.seed, b))
        columns = columns or [np.empty(a.shape[1:] + (n,), a.dtype) for a in drawn]
        start, end = end, end + rows
        for column, a in zip(columns, drawn):
            column[..., start:end] = a[:rows].transpose(*range(1, a.ndim), 0)
    return columns


def _scale_rows(*simplices: np.ndarray) -> None:
    """Scale standard exponentials in place to flat-Dirichlet rows along each array's
    first axis: by one over their sum, added in row order, silently as numpy does."""
    with np.errstate(all="ignore"):
        for parts in simplices:
            parts *= 1.0 / sum(parts[1:], parts[0])


def _draw_block(config: SearchConfig, blocks: list[tuple[int, int]], rule_rows: int) -> _Block:
    """The trials a run takes from consecutive (block, rows) pairs, with
    ``rule_rows`` flat-Dirichlet rows of rule data per trial."""
    n, s, a, g = BLOCK_TRIALS, config.state_count, config.act_count, config.signal_count
    block = _Block(blocks[0][0] * n, *_draw_columns(config, blocks, lambda rng: (
        rng.standard_exponential((n, s)),
        rng.uniform(*UTILITY_RANGE, size=(n, a, s)),
        rng.standard_exponential((n, s, g)),
        rng.standard_exponential((n, rule_rows, s)),
    )))
    _scale_rows(block.prior, block.likelihood.swapaxes(0, 1), block.rule_rows.swapaxes(0, 1))
    return block


def _draw_instance(config: SearchConfig, block: _Block, rows) -> list[tuple[DecisionProblem, SignalChannel]]:
    """The (problem, channel) pairs of trials ``block.start + r`` for r in
    ``rows``, built from plain floats gathered by one ``tolist`` per array."""
    states = tuple(f"state{i}" for i in range(config.state_count))
    acts = [f"act{k}" for k in range(config.act_count)]
    signals = tuple(f"signal{j}" for j in range(config.signal_count))
    gathered = zip(*(_per_trial(a, rows) for a in (block.prior, block.utilities, block.likelihood)))
    return [
        (DecisionProblem(states, prior, tuple(map(Act, acts, utilities))), SignalChannel(signals, likelihood))
        for prior, utilities, likelihood in gathered
    ]


def _per_trial(a: np.ndarray, rows) -> list:
    """Columns ``rows`` of a trials-last array as plain floats, one list per trial, by one ``tolist``."""
    return a[..., rows].transpose(-1, *range(a.ndim - 1)).tolist()


def _block_and_row(trial_index: int) -> tuple[int, int]:
    """The block of a trial and its row there; ValueError unless the index is an int >= 0."""
    _check_int(trial_index, "trial_index")
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    return divmod(trial_index, BLOCK_TRIALS)


def random_instance(config: SearchConfig, trial_index: int) -> tuple[DecisionProblem, SignalChannel]:
    """Sample one (problem, channel) pair, fully determined by (seed, trial_index).

    Priors and channel rows come from the flat Dirichlet (symmetric simplex)
    distribution; utilities are uniform in ``UTILITY_RANGE``. Each call draws
    the trial's whole block; to sample many trials, draw the blocks instead.
    """
    b, r = _block_and_row(trial_index)
    return _draw_instance(config, _draw_block(config, [(b, BLOCK_TRIALS)], 0), [r])[0]


def _draw_priors(config: SearchConfig, blocks: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Atom values and weights (MAX_ATOMS, n) of the priors a run takes from
    consecutive (block, rows) pairs, with zero weights past each atom count."""
    n = BLOCK_TRIALS
    counts, values, weights = _draw_columns(config, blocks, lambda rng: (
        rng.integers(1, MAX_ATOMS + 1, size=n),
        rng.uniform(*UTILITY_RANGE, size=(n, MAX_ATOMS)),
        rng.standard_exponential((n, MAX_ATOMS)),
    ))
    weights[np.arange(MAX_ATOMS)[:, None] >= counts] = 0.0
    _scale_rows(weights)
    return values, weights


def _discrete_prior(values: list[float], weights: list[float]) -> Discrete:
    """The prior of one column of a block of priors, gathered as plain floats."""
    return Discrete(tuple((v, w) for v, w in zip(values, weights) if w > 0.0))


def random_discrete_prior(config: SearchConfig, trial_index: int) -> Discrete:
    """Sample a discrete utility prior with 1 to ``MAX_ATOMS`` atoms.

    Values are uniform in ``UTILITY_RANGE`` and weights come from
    the flat Dirichlet, so one-sided supports occur regularly in the stream.
    Each call draws the trial's whole block; to sample many, draw the blocks.
    """
    b, r = _block_and_row(trial_index)
    values, weights = _draw_priors(config, [(b, BLOCK_TRIALS)])
    return _discrete_prior(values[:, r].tolist(), weights[:, r].tolist())


def _chunks(config: SearchConfig, values: int) -> list[list[tuple[int, int]]]:
    """The (block, rows) pairs of a run, grouped into kernel calls of as many
    blocks as keep ``values`` per trial within KERNEL_VALUES, and at least one."""
    size = max(1, KERNEL_VALUES // (BLOCK_TRIALS * values))
    blocks = _block_rows(config)
    return [blocks[i : i + size] for i in range(0, len(blocks), size)]


def _cross_checked(proven: np.ndarray) -> np.ndarray:
    """Row numbers the scalar path decides: every row its kernel did not prove
    the property on, and row 0 of every block, which cross-checks the kernel."""
    proven[::BLOCK_TRIALS] = False
    return np.flatnonzero(~proven)


def _agree(trial_index: int, kernel: float, scalar: float) -> None:
    if not abs(kernel - scalar) <= CHECK_TOL / 2:
        raise AssertionError(
            f"check kernel gave {float(kernel)!r} at trial {trial_index}, the scalar path {scalar!r}"
        )


def verify_good(config: SearchConfig) -> CheckReport:
    """Run the learn-then-choose inequality on random instances; expect no violations."""
    if not isinstance(config.rule, ExpectedUtilityRule):
        raise ValueError("the learning inequality is only guaranteed under plain expected utility")
    violations = []
    for chunk in _chunks(config, config.state_count * config.act_count * config.signal_count):
        block = _draw_block(config, chunk, 0)
        with np.errstate(all="ignore"):
            kernel_voi, proven = _good_kernel(block)
        rows = _cross_checked(proven)
        for r, (problem, channel) in zip(rows.tolist(), _draw_instance(config, block, rows)):
            voi = value_of_learning_eu(problem, problem.prior, channel).voi
            if r % BLOCK_TRIALS == 0:
                _agree(block.start + r, kernel_voi[r], voi)
            if voi < -CHECK_TOL:
                violations.append(CheckViolation(block.start + r, "negative value of learning", voi))
    return CheckReport(config.trials, tuple(violations))


def verify_theorem1(config: SearchConfig) -> CheckReport:
    """Run the deference inequality on random discrete priors; expect no violations."""
    violations = []
    for chunk in _chunks(config, MAX_ATOMS):
        values, weights = _draw_priors(config, chunk)
        with np.errstate(all="ignore"):
            advantage, two_sided = _theorem1_kernel(values, weights)
            proven = (
                (advantage >= -CHECK_TOL / 2)
                & (~two_sided | (advantage > 1.5 * CHECK_TOL))
                & ~_unchecked(values, weights[None])
            )
        rows = _cross_checked(proven)
        for r, atoms, masses in zip(rows.tolist(), _per_trial(values, rows), _per_trial(weights, rows)):
            i = chunk[0][0] * BLOCK_TRIALS + r
            result = theorem1_check(_discrete_prior(atoms, masses))
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


def _rank_bound(rule: RiskWeightedRule, utilities: np.ndarray, probabilities: np.ndarray, margin: float):
    """The lower (``margin`` -SCREEN_MARGIN) or upper (+SCREEN_MARGIN) bound of the
    rank-dependent value of prospects whose utilities ascend along the first axis.

    Both this and the scalar path sum each tail (the mass above an outcome) from
    the top, yet their tails still differ by rounding: tied utilities are ranked
    by argsort here and by sorting (utility, mass) pairs there, only the scalar
    path drops zero-mass atoms, and numpy's power may differ from Python's. As a
    risk function is non-decreasing, its values at tail -/+ margin bound the
    weight the scalar path gives each step, a thin tail's included."""
    tails = probabilities[1:].copy()
    for k in range(len(tails) - 2, -1, -1):  # numpy's cumsum makes a call per prospect
        tails[k] += tails[k + 1]
    weights = _risk_weights(rule, np.clip(tails + margin, 0.0, 1.0))
    return utilities[0] + (weights * np.diff(utilities, axis=0)).sum(axis=0)


def _screen_reu(rule: RiskWeightedRule, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound on a risk-weighted rule's voi and the leads of its choices:
    per signal the act with the best posterior value, then the plan's joint
    (state, signal) prospect valued globally, as the voi module fixes."""
    prior, utilities, likelihood = block.prior, block.utilities, block.likelihood
    by_state = utilities.swapaxes(0, 1)  # (S, A, n)
    order = by_state.argsort(axis=0)
    ranked = np.take_along_axis(by_state, order, axis=0)
    _, posteriors = _bayes(prior, likelihood)  # (S, G, n)
    ranked_posteriors = np.take_along_axis(posteriors[:, None], order[:, :, None], axis=0)  # (S, A, G, n)
    brackets = [_rank_bound(rule, ranked[:, :, None], ranked_posteriors, m) for m in (-SCREEN_MARGIN, SCREEN_MARGIN)]
    choice, lead = _lead(*brackets)
    planned = np.take_along_axis(utilities[:, :, None], choice[None, None], 0)[0].reshape(-1, prior.shape[-1])
    joint = (prior[:, None] * likelihood).reshape(planned.shape)
    joint_order = planned.argsort(axis=0)
    learning = _rank_bound(
        rule, np.take_along_axis(planned, joint_order, 0), np.take_along_axis(joint, joint_order, 0), -SCREEN_MARGIN
    )
    now = _rank_bound(rule, ranked, np.take_along_axis(prior[:, None], order, 0), SCREEN_MARGIN)
    return learning - now.max(axis=0), lead


def _screen_gamma(rule: CredalSearch, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-maximin's voi and the leads of its choices: the plan is the maximin
    act per signal at the member-wise posteriors, and the learning value is the
    worst member's score of that plan."""
    utilities, likelihood = block.utilities, block.likelihood
    members = block.rule_rows.swapaxes(0, 1)  # (S, M, n)
    now = _expectations(members, utilities).min(axis=1).max(axis=0)
    marginals, posteriors = _bayes(members, likelihood)  # (G, M, n), (S, G, M, n)
    values = _expectations(posteriors, utilities)  # (A, G, M, n)
    plan, lead = _lead(values.min(axis=2))
    learning = (marginals * np.take_along_axis(values, plan[None, :, None], 0)[0]).sum(axis=0).min(axis=0)
    return learning - now, lead


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
    return voi, (voi >= -CHECK_TOL / 2) & ~_unchecked(block.utilities, block.prior[None], block.likelihood, block.rule_rows)


def _theorem1_kernel(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The deference advantage E[max(U, 0)] - max(E[U], 0) of each prior from its
    zero split, the prefer cell's mass times its mean being the weighted sum of
    the atoms at or above 0, and whether the prior has mass on both sides of 0.
    Atoms padded with zero weights add nothing to either."""
    atoms = weights > 0.0
    advantage = (weights * np.maximum(values, 0.0)).sum(axis=0) - np.maximum((weights * values).sum(axis=0), 0.0)
    two_sided = (atoms & (values > 0.0)).any(axis=0) & (atoms & (values < 0.0)).any(axis=0)
    return advantage, two_sided


def _screen_faulty(rule: FaultySearch, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """A faulty updater's voi and the leads of its choices: the act best at the
    posterior blended with the act best at the misupdated belief, both scored
    at the true posterior. The posterior-best act enters only through its
    value, a max, so only the misupdated choice needs a lead. A complement
    posterior needs no condition on its marginal, as the module docstring says;
    its likelihood is the other signals' sum, added in column order, as the
    scalar path adds it."""
    now, values = _eu_kernel(block)
    if rule.kind == MISUPDATE_CUSTOM:
        wrong = block.rule_rows.swapaxes(0, 1)  # (S, G, n)
    else:
        others, columns = np.zeros_like(block.likelihood), np.arange(block.likelihood.shape[1])
        for k in columns:
            others[:, columns != k] += block.likelihood[:, k, None]
        _, wrong = _bayes(block.prior, others)
    wrong_choice, lead = _lead(_expectations(wrong, block.utilities))
    misfired = np.take_along_axis(values, wrong_choice[None], 0)[0]
    learning = ((1.0 - rule.q) * values.max(axis=0) + rule.q * misfired).sum(axis=0)
    return learning - now, lead


def _unchecked(finite: np.ndarray, *simplices: np.ndarray) -> np.ndarray:
    """Trials whose rows might fail the checks the dataclasses make: ``finite``
    finite along every axis but the trials axis, and each simplex's vectors,
    which run along axis 1, finite, non-negative and summing to 1 within
    PROB_TOL. A vector of non-negative entries whose sum is near 1 is finite.
    Sums are held to half of PROB_TOL here, as numpy adds in another order
    than Python, which moves a sum of at most MAX_SIZE entries by far less
    than the other half."""
    ok = np.isfinite(finite).all(axis=tuple(range(finite.ndim - 1)))
    for vectors in simplices:
        ok &= (vectors >= 0.0).all(axis=(0, 1)) & (np.abs(vectors.sum(axis=1) - 1.0) <= PROB_TOL / 2).all(axis=0)
    return ~ok


def _screen_for(config: SearchConfig):
    """The block screen of the configured rule and the rows of rule data each
    trial draws; ValueError, before the first trial, for a rule that provably
    never rejects free information, as an empty search would be misleading.
    With one signal a complement misfire is a stay at the prior: the signal is
    certain, so its complement has no mass, and a drawn likelihood of 1 - 2**-53
    would give a complement made of rounding alone."""
    rule = config.rule
    if isinstance(rule, RiskWeightedRule):
        if is_identity_risk(rule.risk):
            raise ValueError(
                "an identity risk function reduces risk-weighted utility to expected utility, "
                "which never rejects free information"
            )
        return _screen_reu, 0
    if isinstance(rule, CredalSearch):
        if rule.members < 2:
            raise ValueError(
                "a singleton credal set reduces gamma-maximin to expected utility, "
                "which never rejects free information"
            )
        return _screen_gamma, rule.members
    if isinstance(rule, FaultySearch):
        if rule.kind == MISUPDATE_STAY or rule.q == 0.0 or (rule.kind == MISUPDATE_COMPLEMENT and config.signal_count == 1):
            raise ValueError(
                "staying at the prior (or never misfiring, or misfiring to the complement of a lone signal) "
                "only blends the learning value toward the choose-now value; it cannot make learning strictly bad"
            )
        return _screen_faulty, config.signal_count if rule.kind == MISUPDATE_CUSTOM else 0
    raise ValueError(
        "expected utility with conditionalization never rejects free information "
        "(Good's theorem); an empty search would be misleading"
    )


# ------------------------------------------------------ the scalar path


def _concrete_rule(search_rule: SearchRule, rows: list[list[float]], channel: SignalChannel | None) -> DecisionRule | Faulty:
    """Materialize a trial's rule from its rows of rule data, as plain floats."""
    if isinstance(search_rule, CredalSearch):
        return GammaMaximinRule(CredalSet(rows))
    if isinstance(search_rule, FaultySearch):
        mode = MISUPDATE_MODES[search_rule.kind]
        if mode is CustomPosterior:
            return Faulty(search_rule.q, CustomPosterior(dict(zip(channel.signals, rows))))
        return Faulty(search_rule.q, mode())
    return search_rule


def _reverifies(witnesses: list[Witness]) -> None:
    """Write a block's witnesses as one JSON document, read it back, and decode
    and replay each entry; AssertionError naming the first trial whose replay
    ``voi.witness_fault`` faults, with that fault, or with the message of the
    ValueError by which the strict decoder or the replay refuses an entry."""
    entries = json.loads(json.dumps([witness_to_jsonable(w) for w in witnesses]))
    for witness, entry in zip(witnesses, entries):
        try:
            replayed = replay_witness(witness_from_jsonable(entry))
        except ValueError as exc:
            raise AssertionError(str(exc)) from exc
        if fault := witness_fault(witness, replayed):
            raise AssertionError(f"witness at trial {witness.trial_index}: {fault}")


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block, and enable it again
    afterwards only if it was enabled before; see "The collector" above."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _possible_witnesses(config: SearchConfig, screen, block: _Block) -> np.ndarray:
    """Row numbers in the block of the trials the screen cannot rule out."""
    # a zero marginal gives NaN, which fails both tests and so keeps the trial
    with np.errstate(all="ignore"):
        voi, lead = screen(config.rule, block)
        proven = (voi >= -config.aversion_tolerance + SCREEN_MARGIN) & (lead > SCREEN_MARGIN).all(axis=0)
        return np.flatnonzero(~proven | _unchecked(block.utilities, block.prior[None], block.likelihood, block.rule_rows))


def find_information_aversion(config: SearchConfig) -> list[Witness]:
    """Collect every trial on which the configured rule strictly rejects information.

    Returns the verified witnesses sorted by voi ascending (worst first).
    It raises ValueError for its config, before the first trial: a rule that
    provably cannot be averse is refused rather than searched to an empty list
    (``_screen_for``). Past that point only a drawn row that fails a dataclass
    check raises ValueError, as it does in ``check good``, and a witness that
    fails re-verification raises AssertionError (``_reverifies``). The cyclic
    garbage collector is paused while the search runs ("The collector" above).
    """
    screen, rule_rows = _screen_for(config)
    # a rule that draws no rows is the same on every trial, so its witnesses share one
    fixed_rule = None if rule_rows else _concrete_rule(config.rule, [], None)
    members = rule_rows if screen is _screen_gamma else 1
    witnesses = []
    with _collector_paused():
        for chunk in _chunks(config, config.state_count * config.act_count * config.signal_count * members):
            block = _draw_block(config, chunk, rule_rows)
            possible = _possible_witnesses(config, screen, block)
            candidates = zip(possible.tolist(), _draw_instance(config, block, possible), _per_trial(block.rule_rows, possible))
            # a block's witnesses are re-verified before the next block's first candidate is evaluated
            for _, in_block in groupby(candidates, key=lambda candidate: candidate[0] // BLOCK_TRIALS):
                found = []
                for r, (problem, channel), rule_data in in_block:
                    rule = _concrete_rule(config.rule, rule_data, channel) if rule_rows else fixed_rule
                    report = evaluate_rule(problem, channel, rule)
                    if report.voi < -config.aversion_tolerance:
                        found.append(Witness(problem, channel, rule, report.voi, block.start + r))
                if found:
                    _reverifies(found)
                    witnesses.extend(found)
    witnesses.sort(key=lambda w: (w.voi, w.trial_index))
    return witnesses
