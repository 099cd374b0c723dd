import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offswitch_lab.distributions import (
    Discrete,
    Uniform,
    cond_mean_ge,
    expected_positive_part,
    mean,
    prob_ge,
    sample,
    sample_array,
    zero_split,
)
from oracles import tail_cond_mean_ge, tail_expected_positive_part, tail_prob_ge, tail_zero_split


def test_mean_examples():
    assert mean(Uniform(-40, 60)) == pytest.approx(10.0, abs=1e-12)
    assert mean(Uniform(-10, 90)) == pytest.approx(40.0, abs=1e-12)
    assert mean(Discrete(((5.0, 1.0),))) == 5.0


def test_prob_ge_examples():
    assert prob_ge(Uniform(-40, 60), 0.0) == pytest.approx(0.6, abs=1e-12)
    assert prob_ge(Uniform(-10, 90), 0.0) == pytest.approx(0.9, abs=1e-12)
    assert prob_ge(Discrete(((-1.0, 0.5), (1.0, 0.5))), 2.0) == 0.0


def test_prob_ge_boundary_is_inclusive():
    d = Discrete(((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5)))
    assert prob_ge(d, 0.0) == pytest.approx(0.75, abs=1e-12)
    assert prob_ge(d, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_cond_mean_ge_examples():
    assert cond_mean_ge(Uniform(-40, 60), 0.0) == pytest.approx(30.0, abs=1e-12)
    assert cond_mean_ge(Uniform(-10, 90), 0.0) == pytest.approx(45.0, abs=1e-12)
    assert cond_mean_ge(Discrete(((-3.0, 0.5), (7.0, 0.5))), 0.0) == pytest.approx(7.0)


def test_cond_mean_ge_null_event_raises():
    with pytest.raises(ValueError, match=r"P\(U >= 60\.0\) = 0, conditional mean undefined"):
        cond_mean_ge(Uniform(-40, 60), 60.0)
    with pytest.raises(ValueError, match=r"P\(U >= 0\.0\) = 0, conditional mean undefined"):
        cond_mean_ge(Discrete(((-1.0, 1.0),)), 0.0)


def test_expected_positive_part_examples():
    assert expected_positive_part(Uniform(-40, 60)) == pytest.approx(18.0, abs=1e-12)
    assert expected_positive_part(Uniform(-10, 90)) == pytest.approx(40.5, abs=1e-12)
    assert expected_positive_part(Uniform(1, 3)) == pytest.approx(2.0, abs=1e-12)
    assert expected_positive_part(Discrete(((-5.0, 1.0),))) == 0.0


def _random_distribution(rng):
    if rng.random() < 0.5:
        count = int(rng.integers(1, 6))
        values = rng.uniform(-100, 100, size=count)
        weights = rng.dirichlet(np.ones(count))
        return Discrete(tuple((float(v), float(w)) for v, w in zip(values, weights) if w > 0))
    lo = float(rng.uniform(-100, 99))
    return Uniform(lo, lo + float(rng.uniform(0.5, 100)))


def test_positive_part_dominates_mean_on_10k_random_distributions():
    rng = np.random.default_rng(20240811)
    for _ in range(10_000):
        d = _random_distribution(rng)
        assert expected_positive_part(d) >= max(mean(d), 0.0) - 1e-12


def test_positive_part_equals_mean_when_support_nonnegative():
    for d in (Uniform(0, 10), Discrete(((0.0, 0.5), (4.0, 0.5))), Uniform(2, 3)):
        assert prob_ge(d, 0.0) == 1.0
        assert expected_positive_part(d) == pytest.approx(mean(d), abs=1e-12)


@st.composite
def distributions(draw):
    if draw(st.booleans()):
        values = draw(
            st.lists(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        raw = draw(
            st.lists(st.floats(0.01, 1.0), min_size=len(values), max_size=len(values))
        )
        total = sum(raw)
        return Discrete(tuple((v, w / total) for v, w in zip(values, raw)))
    lo = draw(st.floats(-100, 99, allow_nan=False))
    width = draw(st.floats(0.5, 100, allow_nan=False))
    return Uniform(lo, lo + width)


@given(distributions(), st.floats(-150, 150), st.floats(-150, 150))
def test_prob_ge_in_unit_interval_and_nonincreasing(d, t1, t2):
    p1, p2 = prob_ge(d, t1), prob_ge(d, t2)
    assert 0.0 <= p1 <= 1.0
    if t1 <= t2:
        assert p1 >= p2
    else:
        assert p2 >= p1


def test_discrete_canonicalizes_sorting_merging_and_rescaling():
    d = Discrete(((3.0, 0.25), (-1.0, 0.5), (3.0, 0.25)))
    assert d.atoms == ((-1.0, 0.5), (3.0, 0.5))
    total = sum(w for _, w in d.atoms)
    assert total == 1.0


def test_discrete_rejects_invalid_atoms():
    with pytest.raises(ValueError):
        Discrete(())
    with pytest.raises(ValueError):
        Discrete(((1.0, 0.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        Discrete(((1.0, -0.2), (2.0, 1.2)))
    with pytest.raises(ValueError):
        Discrete(((1.0, 0.4), (2.0, 0.4)))
    with pytest.raises(ValueError):
        Discrete(((float("nan"), 1.0),))
    with pytest.raises(ValueError, match=r"discrete prior atom must be a pair of numbers, got \[1\.0\]"):
        Discrete(((1.0,),))
    with pytest.raises(ValueError, match=r"discrete prior atom must be a pair of numbers, got \[1\.0, 0\.5, 0\.5\]"):
        Discrete(((1.0, 0.5, 0.5),))


def test_uniform_rejects_invalid_bounds():
    with pytest.raises(ValueError):
        Uniform(3, 3)
    with pytest.raises(ValueError):
        Uniform(5, 2)
    with pytest.raises(ValueError):
        Uniform(0, float("inf"))
    for lo, hi in ((-1e308, 1e308), (1e308, 1.5e308), (-1.5e308, -1e308)):
        with pytest.raises(ValueError, match="sum or width is not finite"):
            Uniform(lo, hi)


def test_zero_split_of_one_sided_priors():
    assert zero_split(Uniform(1, 3)) == (1.0, 0.0, 2.0, 0.0)
    assert zero_split(Uniform(-3, -1)) == (0.0, 1.0, 0.0, -2.0)
    assert zero_split(Uniform(-40, 60)) == (0.6, 0.4, 30.0, -20.0)
    # an atom at zero is in the prefer cell but has no mass above zero
    at_zero = Discrete(((0.0, 0.5), (-1.0, 0.5)))
    assert zero_split(at_zero) == (0.5, 0.5, 0.0, -1.0)


def test_zero_split_takes_the_negative_mass_from_its_own_atoms():
    # nine weights of 1/9 sum to 1 only up to rounding: 1 - P(U >= 0) is 4.4e-16
    d = Discrete(tuple((float(v), 1.0 / 9.0) for v in range(1, 10)))
    assert 1.0 - prob_ge(d, 0.0) > 0.0
    _, p_bad, _, m_bad = zero_split(d)
    assert (p_bad, m_bad) == (0.0, 0.0)


def test_an_empty_discrete_tail_is_the_float_zero():
    d = Discrete(((-2.0, 0.5), (-1.0, 0.5)))
    p_good, _, m_good, _ = zero_split(d)
    for value in (prob_ge(d, 0.0), prob_ge(d, 7.0), p_good, m_good, expected_positive_part(d)):
        assert type(value) is float and value == 0.0


# exact zeros, subnormals and a weight of 1e-30 reach the underflow and empty-tail branches
TAIL_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-13, -1e-13]),
)


@st.composite
def tail_cases(draw):
    """A prior and thresholds at 0, at one of its own values or bounds, and anywhere."""
    if draw(st.booleans()):
        values = draw(st.lists(TAIL_VALUES, min_size=1, max_size=6, unique=True))
        raw = draw(st.lists(st.one_of(st.floats(1e-6, 1.0), st.just(1e-30)), min_size=len(values), max_size=len(values)))
        d = Discrete(tuple((v, w / sum(raw)) for v, w in zip(values, raw)))
        own = [v for v, _ in d.atoms]
    else:
        lo, hi = sorted(draw(st.lists(TAIL_VALUES, min_size=2, max_size=2, unique=True)))
        d = Uniform(lo, hi)
        own = [lo, hi]
    return d, (0.0, draw(st.sampled_from(own)), draw(st.floats(-2e6, 2e6)))


def _bits(x) -> str:
    return float(x).hex()


@given(tail_cases())
def test_tail_functions_give_the_doubles_of_a_tail_summed_per_function(case):
    d, thresholds = case
    for t in thresholds:
        assert _bits(prob_ge(d, t)) == _bits(tail_prob_ge(d, t))
        if tail_prob_ge(d, t) > 0.0:
            assert _bits(cond_mean_ge(d, t)) == _bits(tail_cond_mean_ge(d, t))
        else:
            with pytest.raises(ValueError, match="conditional mean undefined"):
                cond_mean_ge(d, t)
    assert _bits(expected_positive_part(d)) == _bits(tail_expected_positive_part(d))
    assert list(map(_bits, zero_split(d))) == list(map(_bits, tail_zero_split(d)))


def test_sample_point_mass_any_seed():
    d = Discrete(((5.0, 1.0),))
    for seed in (0, 1, 99):
        assert sample(d, np.random.default_rng(seed)) == 5.0


def test_sample_deterministic_given_stream_state():
    d = Uniform(-40, 60)
    a = [sample(d, np.random.default_rng(7)) for _ in range(5)]
    b = [sample(d, np.random.default_rng(7)) for _ in range(5)]
    assert a == b

    disc = Discrete(((-1.0, 0.3), (0.0, 0.3), (2.0, 0.4)))
    a = [sample(disc, np.random.default_rng(11)) for _ in range(20)]
    b = [sample(disc, np.random.default_rng(11)) for _ in range(20)]
    assert a == b


def test_sample_uniform_mean_within_three_standard_errors():
    draws = sample_array(Uniform(0, 1), np.random.default_rng(123), 1_000_000)
    sigma = math.sqrt(1.0 / 12.0)
    assert abs(draws.mean() - 0.5) <= 3 * sigma / math.sqrt(len(draws))


def test_sample_tail_fraction_tracks_prob_ge():
    d = Uniform(-40, 60)
    draws = sample_array(d, np.random.default_rng(222), 1_000_000)
    p = prob_ge(d, 0.0)
    se = math.sqrt(p * (1 - p) / len(draws))
    assert abs((draws >= 0.0).mean() - p) <= 3 * se


def test_sample_positive_part_tracks_analytic_value():
    d = Uniform(-40, 60)
    draws = sample_array(d, np.random.default_rng(321), 1_000_000)
    clipped = np.maximum(draws, 0.0)
    se = clipped.std(ddof=1) / math.sqrt(len(clipped))
    assert abs(clipped.mean() - expected_positive_part(d)) <= 3 * se


def test_sample_array_discrete_matches_weights():
    d = Discrete(((-1.0, 0.25), (1.0, 0.75)))
    draws = sample_array(d, np.random.default_rng(5), 200_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs((draws == 1.0).mean() - 0.75) < 0.005


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_prob_ge_refuses_a_threshold_that_is_not_finite(t):
    with pytest.raises(ValueError, match=f"^threshold must be finite, got {t!r}$"):
        prob_ge(Discrete(((-1.0, 0.5), (1.0, 0.5))), t)


def test_sample_array_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^sample count must be non-negative$"):
        sample_array(Uniform(-1.0, 1.0), np.random.default_rng(0), -1)
