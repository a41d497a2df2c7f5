"""Univariate CRPS estimators.

The continuous ranked probability score of a predictive distribution F
against a scalar observation x is

    CRPS(F, x) = integral over y of (F(y) - 1{x <= y})^2 dy.

This module provides three sample-based estimators of that integral
(empirical-CDF step integration, quantile/pinball approximation, and the
expectation form E|X - x| - 0.5 E|X - X'|) plus the closed form for a
Gaussian predictive distribution.  The step integral and the expectation
form with S^2 pair normalization are one functional, the CRPS of the
samples' empirical distribution, so they share one batched kernel; the
quantile estimator has the other.  That kernel takes every level's quantile
from one sort, by numpy's linear rule, equal bit for bit to
``np.quantile(..., method="linear")``, NaN rule included.  Both kernels
score along the last axis of any batch shape; the public functions are
validated scalar wrappers around them.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "pinball_loss",
    "crps_empirical_cdf",
    "crps_quantile",
    "crps_sample_estimate",
    "crps_gaussian_analytic",
]

# Sample-based estimators by the names used on the CLI; the order is also the
# estimator index of the convergence study's random streams.
ESTIMATORS = ("ecdf", "quantile", "sample")

_SQRT_PI = math.sqrt(math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _as_sample_vector(samples: ArrayLike) -> NDArray[np.float64]:
    """Validate and convert forecast samples to a 1-D float64 array."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"need at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return arr


def _check_observation(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x}")
    return x


def pinball_loss(alpha: float, q: float, x: float) -> float:
    """Pinball (quantile) loss of a predicted quantile q at level alpha.

    Lambda_alpha(q, x) = (alpha - 1{x < q}) * (x - q)

    Args:
        alpha: quantile level in [0, 1].
        q: predicted quantile value.
        x: realized observation.

    Returns:
        Non-negative loss; 0 when x == q.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"predicted quantile must be finite, got {q}")
    x = _check_observation(x)
    indicator = 1.0 if x < q else 0.0
    return (alpha - indicator) * (x - q)


def _check_n_quantiles(n_quantiles: int) -> int:
    n_quantiles = int(n_quantiles)
    if n_quantiles < 1:
        raise ValueError(f"n_quantiles must be positive, got {n_quantiles}")
    return n_quantiles


def _nonnegative(scores: NDArray[np.float64]) -> NDArray[np.float64]:
    """Clamp rounding below 0 of a score that is >= 0 by the triangle
    inequality; an overflowed (non-finite) score becomes NaN, never 0."""
    return np.where(np.isfinite(scores), np.maximum(0.0, scores), np.nan)


# --------------------------------------------------------------------------
# Batched kernels: samples (..., S) and observations (...) -> scores (...).
# Inputs are not validated.  Callers pass C-contiguous samples: then every
# sort and sum runs along a contiguous last axis, in the order of a 1-D call,
# so each batch entry scores bit-for-bit as it would alone.
# --------------------------------------------------------------------------

def _quantile(
    samples: NDArray[np.float64], obs: NDArray[np.float64], n_quantiles: int
) -> NDArray[np.float64]:
    """Quantile (pinball) CRPS of every batch entry at ``n_quantiles`` levels.

    One sort gives every level's quantile at once, bit for bit as
    ``np.quantile(..., method="linear")`` gives it: level alpha lies at
    position (S - 1) alpha between the order statistics a = s_(lo) and
    b = s_(lo + 1), lo its floor and gamma its fraction, and is numpy's
    ``a + (b - a) gamma``, or ``b - (b - a)(1 - gamma)`` where gamma >= 0.5.
    As in ``np.quantile``, an entry holding NaN has NaN quantiles, so it
    scores NaN even where no level reads its last order statistic.
    """
    alphas = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    s = np.sort(samples, axis=-1)
    n = s.shape[-1]
    position = (n - 1) * alphas
    below = np.floor(position)
    gamma = position - below
    lo = below.astype(np.intp)  # <= S - 2, since every alpha < 1
    a, b = s[..., lo], s[..., lo + 1]
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    np.copyto(q, np.nan, where=np.isnan(s[..., -1:]))  # a NaN sorts last
    # C order, so the mean below sums each entry's losses in the order of a 1-D call.
    q = np.ascontiguousarray(q)
    x = np.expand_dims(obs, -1)
    losses = (alphas - (x < q)) * (x - q)
    scores = 2.0 * losses.mean(axis=-1)
    return np.where(np.isfinite(scores), scores, np.nan)  # an overflow is NaN, as in _sample


def _sample(
    samples: NDArray[np.float64], obs: NDArray[np.float64], unbiased: bool = False
) -> NDArray[np.float64]:
    """CRPS of the empirical distribution of every batch entry; NaN stays NaN.

    With d the sorted deviations s_i - x, E|X - x| is the mean of |d|, and
    half the mean pair distance is sum_k w_k * d_(k) with the rank weights
    w_k = (2k - S - 1) / S^2 (or / (S (S - 1)) when ``unbiased``).  Centring
    on the observation first keeps every term on the scale of the deviations,
    so a large common offset costs no precision, and forming the weights
    before the products keeps them from overflowing.
    """
    d = np.sort(samples - np.expand_dims(obs, -1), axis=-1)
    n = d.shape[-1]
    weights = (2.0 * np.arange(1, n + 1) - n - 1.0) / (n * (n - 1) if unbiased else n * n)
    return _nonnegative(np.abs(d).mean(axis=-1) - (weights * d).sum(axis=-1))


def _crps_batch(
    samples: NDArray[np.float64], obs: NDArray[np.float64], estimator: str, n_quantiles: int
) -> NDArray[np.float64]:
    """CRPS of every batch entry with the estimator named in ``ESTIMATORS``."""
    if estimator == "quantile":
        return _quantile(samples, obs, n_quantiles)
    return _sample(samples, obs)


def crps_empirical_cdf(samples: ArrayLike, x: float) -> float:
    """CRPS via exact integration of the empirical-CDF step function.

    The empirical CDF F_hat(y) = (1/n) sum_i 1{s_i <= y} and the observation
    step 1{x <= y} are both piecewise constant, so the squared-difference
    integral is a finite sum over the intervals between consecutive points
    of sorted(samples + [x]).  That sum equals the expectation form of
    ``crps_sample_estimate`` with S^2 normalization, which is how it is
    computed: the two functions return the same value bit for bit.

    Args:
        samples: forecast samples (length >= 2, finite).
        x: observation.

    Returns:
        Exact CRPS of the empirical distribution of the samples.
    """
    return float(_sample(_as_sample_vector(samples), _check_observation(x)))


def crps_quantile(samples: ArrayLike, x: float, n_quantiles: int = 20) -> float:
    """CRPS approximated from pinball losses at equally spaced levels.

    Uses CRPS(F, x) = integral over alpha in (0,1) of 2 * pinball(alpha) and
    approximates the integral at midpoint levels alpha_k = (k - 0.5) / N with
    empirical quantiles obtained by linear interpolation between order
    statistics.  One sort gives all N quantiles, each by numpy's linear rule
    at position (S - 1) alpha_k, so they equal ``np.quantile(samples,
    alphas, method="linear")`` bit for bit; as there, a NaN among the
    samples makes every quantile NaN (the public function rejects
    non-finite samples before that).

    Args:
        samples: forecast samples (length >= 2, finite).
        x: observation.
        n_quantiles: number N of quantile levels (positive).

    Returns:
        Quantile-based CRPS estimate (non-negative).
    """
    n_quantiles = _check_n_quantiles(n_quantiles)
    return float(_quantile(_as_sample_vector(samples), _check_observation(x), n_quantiles))


def crps_sample_estimate(samples: ArrayLike, x: float, unbiased: bool = False) -> float:
    """CRPS via the expectation form E|X - x| - 0.5 E|X - X'|.

    Both expectations are taken under the empirical distribution of the
    samples: the default divides the all-pairs sum (including i == j terms,
    which contribute zero) by S^2; ``unbiased=True`` divides by S * (S - 1)
    instead.

    The pairwise sum is computed in O(S log S) through the sorted-sample
    identity sum_{i,j} |s_i - s_j| = 2 * sum_k (2k - S - 1) * d_(k), on the
    deviations d_i = s_i - x from the observation.

    Args:
        samples: forecast samples (length >= 2, finite).
        x: observation.
        unbiased: use the S * (S - 1) pair normalization.

    Returns:
        CRPS estimate (non-negative for either normalization).
    """
    return float(_sample(_as_sample_vector(samples), _check_observation(x), unbiased))


def crps_gaussian_analytic(mu: float, sigma: float, x: float) -> float:
    """Closed-form CRPS of a Gaussian predictive distribution N(mu, sigma^2).

    CRPS = sigma * (z * (2 * Phi(z) - 1) + 2 * phi(z) - 1 / sqrt(pi)),
    with z = (x - mu) / sigma and Phi, phi the standard normal CDF / PDF.

    Args:
        mu: mean of the predictive Gaussian.
        sigma: standard deviation (strictly positive).
        x: observation.

    Returns:
        Exact CRPS value; equals about 0.2337 at mu=0, sigma=1, x=0.
    """
    mu = float(mu)
    sigma = float(sigma)
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError("mu and sigma must be finite")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be strictly positive, got {sigma}")
    x = _check_observation(x)

    z = (x - mu) / sigma
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / _SQRT_TWO_PI
    return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / _SQRT_PI)
