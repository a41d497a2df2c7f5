"""Energy score, CRPS-Sum, and the window-level score report."""
import numpy as np
import pytest

from scorecast import (
    crps_sample_estimate,
    crps_matrix,
    crps_per_dimension,
    crps_sum,
    crps_sum_series,
    energy_score,
    energy_score_window,
    energy_series,
    score_report,
)
from scorecast.multivariate import ESTIMATORS, ScoreReport, _energy_batch


# ---------------------------------------------------------------------------
# energy score
# ---------------------------------------------------------------------------

def test_energy_score_two_diagonal_samples():
    """Enumerated by hand: E||X-x|| = sqrt(2), half mean pair distance sqrt(2)/2."""
    samples = np.array([[0.0, 0.0], [2.0, 2.0]])
    obs = np.array([1.0, 1.0])
    assert energy_score(samples, obs) == pytest.approx(0.7071067811865476, rel=1e-13)


def test_energy_score_general_exponent():
    samples = np.array([[0.0, 0.0], [2.0, 2.0]])
    obs = np.array([1.0, 1.0])
    assert energy_score(samples, obs, beta=1.5) == pytest.approx(
        0.492585715504708, rel=1e-13
    )


def test_energy_score_perfect_point_forecast_is_zero():
    samples = np.array([[1.0, -2.0], [1.0, -2.0], [1.0, -2.0]])
    assert energy_score(samples, np.array([1.0, -2.0])) == 0.0


def test_energy_univariate_reduces_to_crps(rng):
    """With beta = 1 in one dimension the two scores are the same statistic."""
    for _ in range(25):
        s = rng.standard_normal((rng.integers(2, 40), 1))
        x = rng.standard_normal(1)
        assert energy_score(s, x) == pytest.approx(
            crps_sample_estimate(s[:, 0], float(x[0])), rel=1e-13, abs=1e-15
        )


def test_energy_score_beta_domain():
    samples = np.zeros((3, 2))
    obs = np.zeros(2)
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            energy_score(samples, obs, beta=bad)
    # interior values are fine
    energy_score(samples, obs, beta=0.1)
    energy_score(samples, obs, beta=1.999)


def test_energy_score_sample_order_invariant(rng):
    s = rng.standard_normal((30, 4))
    x = rng.standard_normal(4)
    shuffled = s[rng.permutation(30)]
    assert energy_score(shuffled, x) == pytest.approx(energy_score(s, x), rel=1e-12)


def test_energy_score_coordinate_permutation_invariant(rng):
    s = rng.standard_normal((25, 5))
    x = rng.standard_normal(5)
    perm = rng.permutation(5)
    assert energy_score(s[:, perm], x[perm]) == pytest.approx(
        energy_score(s, x), rel=1e-12
    )


def test_energy_score_shape_validation():
    with pytest.raises(ValueError):
        energy_score(np.zeros((3, 2)), np.zeros(3))  # obs dim mismatch
    with pytest.raises(ValueError):
        energy_score(np.zeros((1, 2)), np.zeros(2))  # single sample
    with pytest.raises(ValueError):
        energy_score(np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros(2))


def _energy_direct(samples, obs, beta=1.0):
    """Reference ES: norms over the whole (S, S, D) array of pair differences."""
    obs_dist = np.linalg.norm(samples - obs, axis=1)
    pair_dist = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=2)
    if beta != 1.0:
        obs_dist = obs_dist**beta
        pair_dist = pair_dist**beta
    return max(0.0, float(obs_dist.mean() - pair_dist.sum() / (2.0 * samples.shape[0] ** 2)))


def _energy_three_ways(ens, obs, beta):
    """energy_score per step, energy_series and the batch kernel on (S, H, D)."""
    return (
        np.array([energy_score(ens[:, t], obs[t], beta) for t in range(obs.shape[0])]),
        energy_series(ens, obs, beta),
        _energy_batch(np.ascontiguousarray(ens.transpose(1, 0, 2)), obs, beta),
    )


# S = 600 is wider than one tile, so those windows are scored in row blocks.
@pytest.mark.parametrize(
    "S, D, beta",
    [(2, 1, 1.0), (21, 2, 1.0), (64, 3, 1.5), (600, 2, 1.0), (600, 7, 1.5),
     (400, 8, 1.0), (600, 9, 1.5), (50, 16, 1.0)],
)
def test_energy_kernel_matches_direct_form(S, D, beta):
    """Bit-for-bit below D = 8; from D = 8 the norm may sum in another order."""
    gen = np.random.default_rng(S * 100 + D)
    ens = gen.standard_normal((S, 3, D))
    obs = gen.standard_normal((3, D))
    want = np.array([_energy_direct(ens[:, t], obs[t], beta) for t in range(3)])
    for got in _energy_three_ways(ens, obs, beta):
        if D < 8:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("D", [2, 8])
def test_energy_point_mass_at_observation_is_exactly_zero(D):
    obs = np.linspace(-3.0, 5.0, 2 * D).reshape(2, D)
    ens = np.broadcast_to(obs, (600, 2, D)).copy()
    for got in _energy_three_ways(ens, obs, 1.0):
        assert np.array_equal(got, [0.0, 0.0])


def test_energy_overflow_is_nan_not_zero():
    samples = np.array([[1e200, 0.0], [-1e200, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        es = energy_score(samples, [0.0, 0.0])
        series = energy_series(samples[:, None, :], np.zeros((1, 2)))
    assert np.isnan(es)
    assert np.array_equal(series, [es], equal_nan=True)


# ---------------------------------------------------------------------------
# window-level scores
# ---------------------------------------------------------------------------

@pytest.fixture
def window_case(rng):
    ens = rng.standard_normal((64, 5, 3))
    obs = rng.standard_normal((5, 3))
    return ens, obs


def test_energy_series_matches_per_step_scores(window_case):
    ens, obs = window_case
    series = energy_series(ens, obs)
    assert series.shape == (5,)
    for t in range(5):
        assert series[t] == pytest.approx(energy_score(ens[:, t, :], obs[t]), rel=1e-13)


def test_energy_window_mean_vs_flatten(window_case):
    ens, obs = window_case
    mean_mode = energy_score_window(ens, obs)
    assert mean_mode == pytest.approx(float(energy_series(ens, obs).mean()), rel=1e-13)
    flat_mode = energy_score_window(ens, obs, flatten=True)
    want = energy_score(ens.reshape(64, -1), obs.reshape(-1))
    assert flat_mode == pytest.approx(want, rel=1e-13)
    assert flat_mode != pytest.approx(mean_mode, rel=1e-3)  # genuinely different stats


def test_crps_matrix_matches_univariate_calls(window_case):
    ens, obs = window_case
    mat = crps_matrix(ens, obs, estimator="sample")
    assert mat.shape == (5, 3)
    assert mat[2, 1] == pytest.approx(
        crps_sample_estimate(ens[:, 2, 1], obs[2, 1]), rel=1e-13
    )
    assert np.all(mat >= 0.0)


def test_crps_per_dimension_aggregation(window_case):
    ens, obs = window_case
    per_dim, aggregate = crps_per_dimension(ens, obs, estimator="sample")
    mat = crps_matrix(ens, obs, estimator="sample")
    np.testing.assert_allclose(per_dim, mat.mean(axis=0), rtol=1e-13)
    assert aggregate == pytest.approx(mat.mean(), rel=1e-13)


def test_unknown_estimator_rejected(window_case):
    ens, obs = window_case
    with pytest.raises(ValueError, match="estimator"):
        crps_matrix(ens, obs, estimator="parametric")


# ---------------------------------------------------------------------------
# CRPS-Sum
# ---------------------------------------------------------------------------

def test_crps_sum_composition_oracle():
    """Frozen expected values computed with a hand-rolled summed-signal scorer."""
    gen = np.random.default_rng(19)
    ens = gen.normal(size=(512, 4, 3))
    obs = gen.normal(size=(4, 3))
    series = crps_sum_series(ens, obs, estimator="quantile", n_quantiles=20)
    np.testing.assert_allclose(
        series,
        [0.5536118068224933, 0.937370495413577, 0.747735750544275, 1.0779241970768814],
        rtol=1e-12,
    )
    assert crps_sum(ens, obs) == pytest.approx(0.8291605624643066, rel=1e-12)


def test_crps_sum_is_score_of_summed_signal(window_case):
    ens, obs = window_case
    series = crps_sum_series(ens, obs, estimator="sample")
    for t in range(obs.shape[0]):
        want = crps_sample_estimate(ens[:, t, :].sum(axis=1), obs[t].sum())
        assert series[t] == pytest.approx(want, rel=1e-13)


def test_crps_sum_cancellation_on_anticorrelated_pairs(rng):
    """Mirrored dimensions sum to exactly zero, so the summed signal carries
    no information and CRPS-Sum vanishes even for a poor per-dim forecast."""
    base_obs = rng.standard_normal(6)
    obs = np.stack([base_obs, -base_obs], axis=1)  # (H, 2), rows sum to 0
    base_samples = rng.standard_normal((40, 6)) + 3.0  # clearly biased
    ens = np.stack([base_samples, -base_samples], axis=2)  # (S, H, 2)

    assert crps_sum(ens, obs, estimator="sample") == 0.0
    assert crps_sum(ens, obs, estimator="quantile") == 0.0
    per_dim, _ = crps_per_dimension(ens, obs, estimator="sample")
    assert np.all(per_dim > 0.1)


# ---------------------------------------------------------------------------
# score report and normalization
# ---------------------------------------------------------------------------

def test_score_report_raw_aggregation(window_case):
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="sample", normalization="raw")
    mat = crps_matrix(ens, obs, estimator="sample")
    assert rep.crps_aggregate == pytest.approx(mat.mean(), rel=1e-13)
    assert rep.crps_sum == pytest.approx(
        crps_sum_series(ens, obs, estimator="sample").mean(), rel=1e-13
    )
    assert rep.energy_score == pytest.approx(energy_series(ens, obs).mean(), rel=1e-13)
    assert rep.normalization_mode == "raw"
    np.testing.assert_allclose(rep.crps_per_dim, mat.mean(axis=0), rtol=1e-13)


def test_score_report_target_normalization(window_case):
    """Target mode divides accumulated score by accumulated |target|."""
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="sample", normalization="target")
    mat = crps_matrix(ens, obs, estimator="sample")
    cs = crps_sum_series(ens, obs, estimator="sample")
    es = energy_series(ens, obs)

    assert rep.crps_aggregate == pytest.approx(mat.sum() / np.abs(obs).sum(), rel=1e-13)
    assert rep.crps_sum == pytest.approx(
        cs.sum() / np.abs(obs.sum(axis=1)).sum(), rel=1e-13
    )
    assert rep.energy_score == pytest.approx(es.sum() / np.abs(obs).sum(), rel=1e-13)
    np.testing.assert_allclose(
        rep.crps_per_dim, mat.sum(axis=0) / np.abs(obs).sum(axis=0), rtol=1e-13
    )
    assert rep.normalization_mode == "target-normalized"


def test_target_normalization_rejects_zero_magnitude_targets():
    ens = np.random.default_rng(5).standard_normal((8, 2, 2))
    with pytest.raises(ValueError, match="normalization"):
        score_report(ens, np.zeros((2, 2)), normalization="target")


def test_score_report_perfect_forecast_all_zero():
    obs = np.array([[1.0, 2.0], [3.0, -1.0]])
    ens = np.broadcast_to(obs, (16, 2, 2)).copy()
    for mode in ("raw", "target"):
        rep = score_report(ens, obs, estimator="sample", normalization=mode)
        assert rep.crps_aggregate == 0.0
        assert rep.crps_sum == 0.0
        assert rep.energy_score == 0.0
        assert np.all(rep.crps_per_dim == 0.0)


def test_score_report_round_trips_metadata(window_case):
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="quantile", n_quantiles=17, seed=42)
    assert rep.estimator == "quantile"
    assert rep.n_quantiles == 17
    assert rep.seed == 42
    row = rep.csv_row()
    assert len(row) == len(ScoreReport.CSV_COLUMNS)
    assert row[0] == rep.crps_sum and row[1] == rep.crps_aggregate
    d = rep.to_dict()
    assert d["crps"] == rep.crps_aggregate
    assert d["crps_per_dim"] == [float(v) for v in rep.crps_per_dim]


def test_estimator_registry_consistent(rng):
    """Every registered estimator is the matching public function."""
    s = rng.standard_normal(50)
    x = 0.2
    assert set(ESTIMATORS) == {"ecdf", "quantile", "sample"}
    assert ESTIMATORS["sample"](s, x, 20) == pytest.approx(
        crps_sample_estimate(s, x), rel=1e-13
    )


def test_ensemble_shape_validation(rng):
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3)), rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3, 2)), rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3, 2)), rng.standard_normal((3, 5)))
