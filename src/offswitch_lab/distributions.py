"""Priors over the utility of a proposed action.

Two shapes cover everything the rest of the package needs: a finite list of
weighted atoms, and a uniform interval. Values are immutable after
construction and safe to share across threads; sampling takes an explicit
generator, so there is no hidden global state. Only ``sample_array`` needs
numpy, and imports it when called, so that importing this module does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import PROB_TOL, as_pair, left_sum

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True)
class Discrete:
    """Finite-support prior given as (value, weight) atoms.

    Atoms are canonicalized at construction: sorted by value, duplicate
    values merged, weights divided by their sum, so that they sum to 1 up to
    rounding (which is why ``prob_ge`` clamps at 1). Input weights must be
    strictly positive and sum to 1 within ``PROB_TOL``.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("discrete prior needs at least one atom")
        merged: dict[float, float] = {}
        total = 0.0
        for value, weight in (as_pair(atom, "discrete prior atom") for atom in atoms):
            if not math.isfinite(value):
                raise ValueError(f"atom value must be finite, got {value!r}")
            if not (weight > 0.0 and math.isfinite(weight)):
                raise ValueError(f"atom weight must be strictly positive, got {weight!r}")
            merged[value] = merged.get(value, 0.0) + weight
            total += weight
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom weights sum to {total!r}, expected 1 within {PROB_TOL}")
        object.__setattr__(self, "atoms", tuple((v, merged[v] / total) for v in sorted(merged)))


@dataclass(frozen=True, slots=True)
class Uniform:
    """Continuous uniform prior on [lo, hi] with lo < hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform prior needs lo < hi, got [{self.lo}, {self.hi}]")
        # the mean and the zero split need lo + hi, sampling and tails need hi - lo
        if not (math.isfinite(self.lo + self.hi) and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"uniform bounds [{self.lo}, {self.hi}] overflow: their sum or width is not finite")


UtilityDistribution = Discrete | Uniform


def mean(d: UtilityDistribution) -> float:
    """Exact mean of the prior."""
    if isinstance(d, Uniform):
        return 0.5 * (d.lo + d.hi)
    return left_sum(v * w for v, w in d.atoms)


def _upper_tail(d: UtilityDistribution, t: float) -> tuple[float, float]:
    """(P(U >= t), E[U | U >= t]), the mean 0.0 for a tail with no mass: the one
    place that sums a prior's upper tail."""
    if not math.isfinite(t):
        raise ValueError(f"threshold must be finite, got {t!r}")
    if isinstance(d, Uniform):
        # at or past hi the fraction is not positive, and the tail is empty
        p = 1.0 if t <= d.lo else (d.hi - t) / (d.hi - d.lo)
        return (p, 0.5 * (max(t, d.lo) + d.hi)) if p > 0.0 else (0.0, 0.0)
    # the canonical weights sum to 1 only up to rounding; never report > 1
    p = min(1.0, left_sum(w for v, w in d.atoms if v >= t))
    return (p, left_sum(v * w for v, w in d.atoms if v >= t) / p) if p > 0.0 else (0.0, 0.0)


def prob_ge(d: UtilityDistribution, t: float) -> float:
    """P(U >= t). The boundary is inclusive, which matters for atoms at exactly t."""
    return _upper_tail(d, t)[0]


def cond_mean_ge(d: UtilityDistribution, t: float) -> float:
    """E[U | U >= t]. ValueError when P(U >= t) = 0."""
    p, m = _upper_tail(d, t)
    if p <= 0.0:
        raise ValueError(f"P(U >= {t}) = 0, conditional mean undefined")
    return m


def expected_positive_part(d: UtilityDistribution) -> float:
    """E[max(U, 0)]: the payoff of deferring to an approve-iff-nonnegative responder."""
    p, m = _upper_tail(d, 0.0)
    return p * m


def zero_split(d: UtilityDistribution) -> tuple[float, float, float, float]:
    """(P(U >= 0), P(U < 0), E[U | U >= 0], E[U | U < 0]); empty cells get mean 0.

    P(U < 0) is computed from the cell's own mass rather than as
    1 - P(U >= 0), which would manufacture phantom mass out of float
    rounding for one-sided priors.
    """
    p_good, m_good = _upper_tail(d, 0.0)
    if isinstance(d, Uniform):
        if d.lo >= 0.0:
            return p_good, 0.0, m_good, 0.0
        if d.hi <= 0.0:
            return p_good, 1.0, m_good, 0.5 * (d.lo + d.hi)
        return p_good, -d.lo / (d.hi - d.lo), m_good, 0.5 * d.lo
    p_bad = left_sum(w for v, w in d.atoms if v < 0.0)
    if p_bad <= 0.0:
        return p_good, 0.0, m_good, 0.0
    return p_good, p_bad, m_good, left_sum(v * w for v, w in d.atoms if v < 0.0) / p_bad


def sample(d: UtilityDistribution, rng: np.random.Generator) -> float:
    """One draw from the prior, deterministic given the generator state.

    The generator is numpy's ``Generator`` (PCG64 under ``default_rng``),
    which is seedable and splittable via ``numpy.random.SeedSequence`` and
    reproduces across platforms. It is the draw of ``sample_array(d, rng, 1)``.
    """
    return float(sample_array(d, rng, 1)[0])


def sample_array(d: UtilityDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized draws, used by the Monte-Carlo cross-checks."""
    import numpy as np

    if n < 0:
        raise ValueError("sample count must be non-negative")
    if isinstance(d, Uniform):
        return rng.uniform(d.lo, d.hi, size=n)
    values = np.array([v for v, _ in d.atoms])
    cum = np.cumsum([w for _, w in d.atoms])
    idx = np.searchsorted(cum, rng.random(n), side="right")
    return values[idx.clip(0, len(values) - 1)]
