"""Batched CRPS kernels against the scalar estimator bodies they replaced.

The three ``*_reference`` functions are verbatim copies of the scalar
estimators as they were before the kernels (input validation stripped).  They
stay here as the reference: every kernel must score each row of a batch
bit-for-bit as its reference scores that row alone.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scorecast.crps import ESTIMATORS, _crps_batch, _ecdf, _quantile, _sample


def _ecdf_reference(samples, x):
    s = np.sort(samples)
    points = np.sort(np.append(s, x))
    widths = np.diff(points)
    mids = 0.5 * (points[:-1] + points[1:])
    cdf = np.searchsorted(s, mids, side="right") / s.size
    obs_step = (mids >= x).astype(np.float64)
    return float(np.sum((cdf - obs_step) ** 2 * widths))


def _quantile_reference(samples, x, n_quantiles=20):
    s = samples
    alphas = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    q = np.quantile(s, alphas, method="linear")
    losses = (alphas - (x < q)) * (x - q)
    return float(2.0 * losses.mean())


def _sample_reference(samples, x, unbiased=False):
    s = np.sort(samples)
    n = s.size
    term_obs = np.abs(s - x).mean()
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pair_sum = 2.0 * np.sum((2.0 * ranks - n - 1.0) * s)
    denom = n * (n - 1) if unbiased else n * n
    value = term_obs - pair_sum / (2.0 * denom)
    return max(0.0, float(value))


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
@given(batches())
def test_ecdf_kernel_matches_scalar_reference(case):
    samples, obs = case
    assert np.array_equal(_ecdf(samples, obs), _rows(_ecdf_reference, samples, obs))


@KERNEL_SETTINGS
@given(batches(), st.sampled_from([1, 2, 7, 20, 37]))
def test_quantile_kernel_matches_scalar_reference(case, n_quantiles):
    samples, obs = case
    got = _quantile(samples, obs, n_quantiles)
    assert np.array_equal(got, _rows(_quantile_reference, samples, obs, n_quantiles))


@KERNEL_SETTINGS
@given(batches(), st.booleans())
def test_sample_kernel_matches_scalar_reference(case, unbiased):
    samples, obs = case
    got = _sample(samples, obs, unbiased)
    assert np.array_equal(got, _rows(_sample_reference, samples, obs, unbiased))


@KERNEL_SETTINGS
@given(batches(sizes=st.just(2)))
def test_kernels_match_references_on_two_samples(case):
    samples, obs = case
    assert np.array_equal(_ecdf(samples, obs), _rows(_ecdf_reference, samples, obs))
    assert np.array_equal(_quantile(samples, obs, 20), _rows(_quantile_reference, samples, obs))
    assert np.array_equal(_sample(samples, obs), _rows(_sample_reference, samples, obs))


def test_ecdf_kernel_on_adjacent_floats():
    """A midpoint of two adjacent floats rounds onto one of them; the count of
    samples below it must still be the reference's searchsorted count."""
    base = np.nextafter(1e8, np.inf)
    samples = base + np.spacing(base) * np.array([[0.0, 1.0, 1.0, 2.0, 3.0, 3.0]])
    for obs in (samples[:, 1], samples[:, 2] + np.spacing(base) / 2, samples[:, 5]):
        assert np.array_equal(_ecdf(samples, obs), _rows(_ecdf_reference, samples, obs))


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
