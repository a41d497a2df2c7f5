"""Batched CRPS kernels against references computed apart from them.

``_quantile_reference`` is a verbatim copy of the scalar quantile estimator
as it was before the kernels (input validation stripped): the quantile
kernel must score each row of a batch bit-for-bit as it scores that row
alone.  The empirical-distribution kernel ``_sample`` (behind both "ecdf"
and "sample") is held to ``_exact``, the same CRPS in exact rational
arithmetic, within a few roundings of the largest deviation |s_i - x|.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scorecast.crps import ESTIMATORS, _crps_batch, _quantile, _sample


def _quantile_reference(samples, x, n_quantiles=20):
    s = samples
    alphas = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    q = np.quantile(s, alphas, method="linear")
    losses = (alphas - (x < q)) * (x - q)
    return float(2.0 * losses.mean())


def _exact(samples, x, unbiased=False):
    """E|X - x| - 0.5 E|X - X'| over all S^2 ordered pairs (S (S - 1) when
    ``unbiased``), with every float read as the exact rational it is."""
    values = [Fraction(float(v)) for v in [*samples, x]]
    scale = max(f.denominator for f in values)  # floats are dyadic: a common denominator
    *ints, y = (int(f * scale) for f in values)
    n = len(ints)
    obs_term = Fraction(sum(abs(a - y) for a in ints), n * scale)
    pair_sum = sum(abs(a - b) for a in ints for b in ints)
    return obs_term - Fraction(pair_sum, 2 * scale * (n * (n - 1) if unbiased else n * n))


# Bound on |kernel - exact| per unit of max |s_i - x|: a few roundings (the
# worst seen over 3000 random draws of ``batches()`` was 7.3e-16).
ORACLE_REL = 1e-15


def _assert_near_exact(got, samples, obs, unbiased=False):
    for value, row, x in zip(got, samples, obs):
        exact = _exact(row, x, unbiased)
        reach = float(np.max(np.abs(row - x)))
        assert abs(Fraction(float(value)) - exact) <= Fraction(ORACLE_REL * reach), (
            value, float(exact), reach
        )


@st.composite
def batches(draw, sizes=st.integers(2, 140)):
    """A (B, S) sample batch and (B,) observations.

    Values are offset + scale * z: offsets up to 1e8, scales down to 1e-20,
    and z either small integers (ties) or floats.  At offset 1e8 and scale
    1e-8 neighbouring samples are ties or adjacent floats.  Each observation
    is either one of its row's samples or a draw of the same form.
    """
    b = draw(st.integers(1, 4))
    n = draw(sizes)
    offset = draw(st.sampled_from([0.0, 2.5, 1e8, -1e8]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-8, 1e-20]))
    z = st.integers(-3, 3).map(float) if draw(st.booleans()) else st.floats(-3.0, 3.0)
    samples = offset + scale * draw(arrays(np.float64, (b, n), elements=z))
    pick = draw(arrays(np.int64, b, elements=st.integers(-1, n - 1)))
    free = offset + scale * draw(arrays(np.float64, b, elements=st.floats(-4.0, 4.0)))
    obs = np.where(pick >= 0, samples[np.arange(b), pick], free)
    return samples, obs


def _rows(reference, samples, obs, *args):
    return [reference(samples[i], obs[i], *args) for i in range(obs.shape[0])]


KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@KERNEL_SETTINGS
@given(batches(), st.sampled_from([1, 2, 7, 20, 37]))
def test_quantile_kernel_matches_scalar_reference(case, n_quantiles):
    samples, obs = case
    got = _quantile(samples, obs, n_quantiles)
    assert np.array_equal(got, _rows(_quantile_reference, samples, obs, n_quantiles))


@KERNEL_SETTINGS
@given(batches(), st.booleans())
def test_sample_kernel_matches_scalar_reference(case, unbiased):
    """The biased and the fair form against the exact rational CRPS of each row."""
    samples, obs = case
    _assert_near_exact(_sample(samples, obs, unbiased), samples, obs, unbiased)


@KERNEL_SETTINGS
@given(batches(sizes=st.just(2)))
def test_kernels_match_references_on_two_samples(case):
    samples, obs = case
    assert np.array_equal(_quantile(samples, obs, 20), _rows(_quantile_reference, samples, obs))
    for unbiased in (False, True):
        _assert_near_exact(_sample(samples, obs, unbiased), samples, obs, unbiased)


def test_ecdf_kernel_on_adjacent_floats():
    """Ties and adjacent floats at 1e8, where a midpoint of two neighbours
    rounds onto one of them: the step integral is still the exact CRPS."""
    base = np.nextafter(1e8, np.inf)
    samples = base + np.spacing(base) * np.array([[0.0, 1.0, 1.0, 2.0, 3.0, 3.0]])
    for obs in (samples[:, 1], samples[:, 2] + np.spacing(base) / 2, samples[:, 5]):
        _assert_near_exact(_crps_batch(samples, obs, "ecdf", 20), samples, obs)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_batch_shape_is_any_leading_shape(rng, estimator):
    """(2, 3, S) scores as its six rows do one at a time."""
    samples = rng.standard_normal((2, 3, 25))
    obs = rng.standard_normal((2, 3))
    got = _crps_batch(samples, obs, estimator, 20)
    flat = [
        _crps_batch(np.ascontiguousarray(s), o, estimator, 20)
        for s, o in zip(samples.reshape(6, 25), obs.reshape(6))
    ]
    assert got.shape == (2, 3)
    assert np.array_equal(got.reshape(6), flat)
