"""Univariate CRPS estimators against hand-computed and quadrature oracles.

The small-vector expected values below were worked out independently of the
implementation: step-function integrals by hand (they are piecewise
polynomial), all-pairs sums by explicit enumeration, and the Gaussian closed
form against adaptive quadrature of the defining integral.
"""
import math

import numpy as np
import pytest

from scorecast import (
    crps_empirical_cdf,
    crps_gaussian_analytic,
    crps_quantile,
    crps_sample_estimate,
    pinball_loss,
)

NINE_OVER = 26.0 / 9.0  # integral for samples {-3, -1, 0.5} vs x = 2.5


# ---------------------------------------------------------------------------
# empirical-CDF estimator: exact step integrals
# ---------------------------------------------------------------------------

def test_ecdf_two_samples_observation_at_sample():
    # F jumps 0 -> 1/2 -> 1 at 0 and 1; obs at 0: integral of (1/2)^2 on [0,1)
    assert crps_empirical_cdf([0.0, 1.0], 0.0) == 0.25


def test_ecdf_observation_between_samples():
    assert crps_empirical_cdf([0.0, 2.0], 1.0) == 0.5


def test_ecdf_duplicate_samples_merge():
    assert crps_empirical_cdf([0.0, 2.0, 0.0, 2.0], 1.0) == 0.5


def test_ecdf_four_samples_midpoint():
    assert crps_empirical_cdf([0.0, 1.0, 2.0, 3.0], 1.5) == 0.375


def test_ecdf_observation_outside_support():
    got = crps_empirical_cdf([-3.0, -1.0, 0.5], 2.5)
    assert got == pytest.approx(NINE_OVER, rel=1e-14)


def test_ecdf_unsorted_input_allowed():
    assert crps_empirical_cdf([3.0, 0.0, 2.0, 1.0], 1.5) == 0.375


def test_ecdf_scale_by_two_is_exact():
    assert crps_empirical_cdf([0.0, 2.0], 0.0) == 0.5


# ---------------------------------------------------------------------------
# sample (all-pairs) estimator
# ---------------------------------------------------------------------------

def test_sample_estimate_two_points():
    # E|X - 1| = 1, half mean pair distance (incl. diagonal) = 1/2
    assert crps_sample_estimate([0.0, 2.0], 1.0) == 0.5
    assert crps_sample_estimate([0.0, 2.0], 1.0, unbiased=True) == 0.0


def test_sample_estimate_degenerate_ensemble_is_zero():
    assert crps_sample_estimate([5.0, 5.0, 5.0], 5.0) == 0.0
    assert crps_sample_estimate([5.0, 5.0, 5.0], 5.0, unbiased=True) == 0.0


def test_sample_estimate_three_points_enumerated():
    """Hand enumeration: E|X-x| = 11/3, all-pairs term 7/9 (biased), 7/6 (unbiased)."""
    assert crps_sample_estimate([-3.0, -1.0, 0.5], 2.5) == pytest.approx(
        NINE_OVER, rel=1e-14
    )
    assert crps_sample_estimate([-3.0, -1.0, 0.5], 2.5, unbiased=True) == pytest.approx(
        2.5, rel=1e-14
    )


def test_unbiased_never_exceeds_biased(rng):
    for _ in range(50):
        s = rng.standard_normal(rng.integers(2, 40))
        x = float(rng.standard_normal())
        assert crps_sample_estimate(s, x, unbiased=True) <= crps_sample_estimate(s, x) + 1e-15


def test_sample_estimate_non_negative(rng):
    for _ in range(100):
        s = rng.standard_normal(5)
        assert crps_sample_estimate(s, float(rng.standard_normal())) >= 0.0
        assert crps_sample_estimate(s, float(rng.standard_normal()), unbiased=True) >= 0.0


def test_sample_estimate_overflow_is_nan_not_zero():
    """An unweighted pair sum (2.4e308) would overflow at +-6e307; the rank
    weights are applied first, so the true 3e307 comes out (0 in the fair
    form).  At +-1.7e308 E|X - x| itself overflows: NaN, never a clamped 0."""
    for fn in (crps_sample_estimate, crps_empirical_cdf):
        assert fn([-6e307, 6e307], 0.0) == 3e307
    assert crps_sample_estimate([-6e307, 6e307], 0.0, unbiased=True) == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for unbiased in (False, True):
            assert math.isnan(crps_sample_estimate([-1.7e308, 1.7e308], 0.0, unbiased))


def test_ecdf_equals_all_pairs_estimate(rng):
    """The step integral and the (biased) all-pairs form are the same
    functional, computed by one kernel: equal bit for bit."""
    for _ in range(200):
        s = rng.standard_normal(rng.integers(2, 60)) * rng.uniform(0.1, 5.0)
        x = float(rng.standard_normal() * 2.0)
        assert crps_empirical_cdf(s, x) == crps_sample_estimate(s, x)


# ---------------------------------------------------------------------------
# quantile (pinball) estimator
# ---------------------------------------------------------------------------

def test_quantile_four_levels_dyadic_case_is_exact():
    # levels 1/8, 3/8, 5/8, 7/8 on samples 0..3: every pinball term is 0.140625
    assert crps_quantile([0.0, 1.0, 2.0, 3.0], 1.5, n_quantiles=4) == 0.28125


@pytest.mark.parametrize("members", [2, 13, 400])
@pytest.mark.parametrize("value", [3e-20, 2.5, 1e8])
@pytest.mark.parametrize("fn", [crps_empirical_cdf, crps_quantile, crps_sample_estimate])
def test_constant_ensemble_at_observation_scores_zero(fn, value, members):
    """A point mass at the observation scores exactly 0, at any scale."""
    assert fn([value] * members, value) == 0.0


def test_quantile_matches_manual_interpolation_oracle():
    """Frozen value recomputed with hand-rolled linear interpolation + pinball."""
    draws = np.random.default_rng(11).standard_normal(500)
    assert crps_quantile(draws, 0.0, n_quantiles=20) == pytest.approx(
        0.22417588717726172, abs=1e-13
    )


def test_quantile_count_validation():
    with pytest.raises(ValueError):
        crps_quantile([0.0, 1.0], 0.5, n_quantiles=0)


def test_estimators_agree_on_moderate_ensembles(rng):
    """All three estimators target the same functional; with a few hundred
    samples they should sit within a hundredth of each other."""
    s = rng.standard_normal(800)
    x = 0.4
    e = crps_empirical_cdf(s, x)
    q = crps_quantile(s, x, n_quantiles=50)
    p = crps_sample_estimate(s, x)
    assert abs(e - q) < 0.01
    assert abs(e - p) < 1e-12


# ---------------------------------------------------------------------------
# pinball loss
# ---------------------------------------------------------------------------

def test_pinball_above_quantile():
    assert pinball_loss(0.5, 1.0, 2.0) == 0.5


def test_pinball_below_quantile():
    assert pinball_loss(0.9, 3.0, 1.0) == pytest.approx(0.2)


def test_pinball_boundary_levels_allowed():
    assert pinball_loss(0.0, 1.0, 0.0) == 1.0
    assert pinball_loss(1.0, 1.0, 2.0) == 1.0


def test_pinball_level_out_of_range():
    with pytest.raises(ValueError):
        pinball_loss(1.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        pinball_loss(-0.01, 0.0, 0.0)


def test_pinball_non_negative(rng):
    for _ in range(100):
        a = float(rng.uniform(0, 1))
        q, x = rng.standard_normal(2)
        assert pinball_loss(a, float(q), float(x)) >= 0.0


# ---------------------------------------------------------------------------
# Gaussian closed form (verified against quadrature of the defining integral)
# ---------------------------------------------------------------------------

QUAD_CHECKED = [
    # (mu, sigma, x, integral value)
    (0.0, 1.0, 0.0, 0.23369497725510105),
    (0.0, 1.0, 1.3, 0.826866340626),
    (2.5, 0.7, 1.9, 0.357060988280),
    (-4.0, 3.0, -4.0, 0.701084931765),
    (0.0, 1.0, -2.2, 1.645584433088),
]


@pytest.mark.parametrize("mu,sigma,x,expected", QUAD_CHECKED)
def test_gaussian_closed_form_matches_quadrature(mu, sigma, x, expected):
    assert crps_gaussian_analytic(mu, sigma, x) == pytest.approx(expected, abs=5e-12)


def test_gaussian_standard_constant():
    # closed form at (0, 1, 0) reduces to (sqrt(2) - 1) / sqrt(pi)
    want = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi)
    assert crps_gaussian_analytic(0.0, 1.0, 0.0) == pytest.approx(want, rel=1e-15)


def test_gaussian_location_scale_relation(rng):
    for _ in range(20):
        mu = float(rng.normal(0, 3))
        sigma = float(rng.uniform(0.2, 4.0))
        x = float(rng.normal(0, 3))
        z = (x - mu) / sigma
        assert crps_gaussian_analytic(mu, sigma, x) == pytest.approx(
            sigma * crps_gaussian_analytic(0.0, 1.0, z), rel=1e-12
        )


def test_gaussian_sigma_must_be_positive():
    with pytest.raises(ValueError):
        crps_gaussian_analytic(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        crps_gaussian_analytic(0.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# invariances and input validation
# ---------------------------------------------------------------------------

def test_translation_invariance_exact_on_dyadic_inputs():
    s = np.array([0.25, 1.5, -2.0, 0.75])
    for fn in (crps_empirical_cdf, crps_sample_estimate):
        assert fn(s + 0.5, 1.0) == fn(s, 0.5)


def test_translation_invariance_general(rng):
    s = rng.standard_normal(30)
    shift = 17.3
    for fn in (crps_empirical_cdf, crps_sample_estimate):
        assert fn(s + shift, 0.9 + shift) == pytest.approx(fn(s, 0.9), rel=1e-10)
    assert crps_quantile(s + shift, 0.9 + shift) == pytest.approx(
        crps_quantile(s, 0.9), rel=1e-10
    )


def test_scale_equivariance(rng):
    s = rng.standard_normal(25)
    x = -0.3
    base = crps_sample_estimate(s, x)
    # powers of two scale without any rounding at all
    assert crps_sample_estimate(2.0 * s, 2.0 * x) == 2.0 * base
    assert crps_sample_estimate(3.7 * s, 3.7 * x) == pytest.approx(3.7 * base, rel=1e-12)


@pytest.mark.parametrize(
    "fn", [crps_empirical_cdf, crps_quantile, crps_sample_estimate]
)
class TestInputValidation:
    def test_rejects_single_sample(self, fn):
        with pytest.raises(ValueError):
            fn([1.0], 0.0)

    def test_rejects_nan_sample(self, fn):
        with pytest.raises(ValueError):
            fn([0.0, float("nan")], 0.0)

    def test_rejects_matrix_input(self, fn):
        with pytest.raises(ValueError):
            fn(np.zeros((3, 2)), 0.0)

    def test_rejects_non_finite_observation(self, fn):
        with pytest.raises(ValueError):
            fn([0.0, 1.0], float("inf"))
