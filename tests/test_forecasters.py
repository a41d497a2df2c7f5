"""Dummy persistence-style forecasters, split evaluation, and the noise sweep."""
import os
from dataclasses import asdict

import numpy as np
import pytest

from scorecast import crps, forecasters, multivariate
from scorecast.cli import main
from scorecast.data import make_rolling_splits
from scorecast.forecasters import (
    DEFAULT_SIGMA_LIST,
    DUMMY_KINDS,
    DummyConfig,
    ensemble_to_csv,
    evaluate_dummy_on_splits,
    forecast_and_score_splits,
    make_dummy_forecast,
    sigma_sweep,
)

from conftest import BAD_SCORING_OPTIONS, assert_no_children, fail_on_read


@pytest.fixture
def input_window():
    # last row is [1, 2, 3] -> per-dim anchors 1, 2, 3; row mean 2.0
    return np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_dummy_config_defaults_and_echo():
    cfg = DummyConfig(kind="multivariate")
    assert cfg.sigma == 1e-4
    assert cfg.n_samples == 400
    assert cfg.seed == 0
    echo = asdict(cfg)
    assert echo["kind"] == "multivariate" and echo["sigma"] == 1e-4


def test_dummy_config_validation():
    with pytest.raises(ValueError):
        DummyConfig(kind="persistence")
    with pytest.raises(ValueError):
        DummyConfig(kind="univariate", sigma=0.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite"):
            DummyConfig(kind="univariate", sigma=sigma)
    with pytest.raises(ValueError):
        DummyConfig(kind="univariate", n_samples=1)
    with pytest.raises(ValueError):
        DummyConfig(kind="univariate", seed=-3)
    assert DUMMY_KINDS == ("univariate", "multivariate")


# ---------------------------------------------------------------------------
# the two dummies
# ---------------------------------------------------------------------------

def test_univariate_dummy_anchors_every_dimension_to_the_row_mean(input_window):
    cfg = DummyConfig(kind="univariate", sigma=1e-6, n_samples=200, seed=8)
    ens = make_dummy_forecast(input_window, horizon=4, cfg=cfg)
    assert ens.shape == (200, 4, 3)
    # with sigma ~ 1e-6 every entry hugs the scalar anchor 2.0
    np.testing.assert_allclose(ens, 2.0, atol=1e-5)


def test_multivariate_dummy_anchors_each_dimension_separately(input_window):
    cfg = DummyConfig(kind="multivariate", sigma=1e-6, n_samples=200, seed=8)
    ens = make_dummy_forecast(input_window, horizon=4, cfg=cfg)
    assert ens.shape == (200, 4, 3)
    np.testing.assert_allclose(ens.mean(axis=(0, 1)), [1.0, 2.0, 3.0], atol=1e-5)
    anchors = np.tile([1.0, 2.0, 3.0], (200, 1))
    np.testing.assert_allclose(ens[:, 2, :], anchors, atol=1e-5)


def test_dummy_noise_scale_is_respected(input_window):
    cfg = DummyConfig(kind="multivariate", sigma=0.5, n_samples=4000, seed=8)
    ens = make_dummy_forecast(input_window, horizon=2, cfg=cfg)
    centered = ens - np.array([1.0, 2.0, 3.0])  # remove per-dim anchors
    assert centered.std() == pytest.approx(0.5, rel=0.05)


def test_dummies_are_deterministic(input_window):
    cfg = DummyConfig(kind="univariate", sigma=1e-3, n_samples=16, seed=21)
    a = make_dummy_forecast(input_window, 3, cfg)
    b = make_dummy_forecast(input_window, 3, cfg)
    np.testing.assert_array_equal(a, b)


def test_make_dummy_forecast_dispatch(input_window):
    uni = make_dummy_forecast(input_window, 2, DummyConfig(kind="univariate", seed=5))
    multi = make_dummy_forecast(input_window, 2, DummyConfig(kind="multivariate", seed=5))
    assert uni.shape == multi.shape == (400, 2, 3)
    # the two laws genuinely differ on a window whose last row is not constant
    assert abs(uni[:, 0, 0].mean() - multi[:, 0, 0].mean()) > 0.5


def test_dummy_horizon_validation(input_window):
    with pytest.raises(ValueError):
        make_dummy_forecast(input_window, 0, DummyConfig(kind="univariate"))
    with pytest.raises(ValueError):
        make_dummy_forecast(np.zeros(3), 2, DummyConfig(kind="multivariate"))


def test_ensemble_csv_dump(tmp_path, rng):
    ens = rng.standard_normal((3, 2, 2))
    path = tmp_path / "dump.csv"
    ensemble_to_csv(ens, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,t,dim,value"
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    assert [first[0], first[1], first[2]] == ["0", "0", "0"]
    assert float(first[3]) == ens[0, 0, 0]


# ---------------------------------------------------------------------------
# split evaluation and pooling
# ---------------------------------------------------------------------------

@pytest.fixture
def splits(synthetic_series):
    return make_rolling_splits(synthetic_series, n_batches=2, horizon=30, input_length=30)


def test_evaluate_produces_one_report_per_split(splits):
    cfg = DummyConfig(kind="multivariate", sigma=1e-4, n_samples=60, seed=0)
    per_split, pooled = evaluate_dummy_on_splits(splits, cfg)
    assert len(per_split) == 2
    for rep in per_split + [pooled]:
        assert rep.normalization_mode == "target-normalized"
        assert rep.crps_aggregate > 0
        assert rep.crps_sum > 0
        assert rep.energy_score > 0


def test_unknown_normalization_is_rejected_before_scoring(splits, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("scored before checking normalization")

    monkeypatch.setattr(multivariate, "_energy_batch", unreachable)
    with pytest.raises(ValueError, match="normalization"):
        forecast_and_score_splits(splits, DummyConfig(n_samples=8), normalization="bogus")


def test_bad_beta_is_rejected_before_forecasting(splits, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("forecast or scored before checking beta")

    monkeypatch.setattr(multivariate, "_crps_batch", unreachable)
    monkeypatch.setattr(forecasters, "make_dummy_forecast", unreachable)
    with pytest.raises(ValueError, match="beta"):
        forecast_and_score_splits(splits, DummyConfig(n_samples=8), beta=3.0)


@pytest.mark.parametrize("options, match", BAD_SCORING_OPTIONS)
@pytest.mark.parametrize("evaluate", [
    lambda splits, **options: forecast_and_score_splits(splits, DummyConfig(n_samples=8),
                                                        **options),
    lambda splits, **options: sigma_sweep("multivariate", [1e-3], splits, n_samples=8,
                                          **options),
], ids=["forecast_and_score_splits", "sigma_sweep"])
def test_split_evaluations_check_every_option_before_reading_arrays(splits, monkeypatch,
                                                                    evaluate, options, match):
    monkeypatch.setattr(multivariate, "_as_ensemble", fail_on_read)
    with pytest.raises(ValueError, match=match):
        evaluate(splits, **options)


def test_evaluate_is_deterministic(splits):
    cfg = DummyConfig(kind="univariate", sigma=1e-4, n_samples=40, seed=4)
    a_split, a_pool = evaluate_dummy_on_splits(splits, cfg)
    b_split, b_pool = evaluate_dummy_on_splits(splits, cfg)
    assert a_pool.to_dict() == b_pool.to_dict()
    assert [r.to_dict() for r in a_split] == [r.to_dict() for r in b_split]


def test_pooled_scores_weight_splits_by_target_magnitude(splits):
    """Pooling = total score mass / total target magnitude, which equals the
    denominator-weighted average of the per-split ratios."""
    cfg = DummyConfig(kind="multivariate", sigma=1e-3, n_samples=50, seed=2)
    per_split, pooled = evaluate_dummy_on_splits(splits, cfg)

    point_denoms = [np.abs(s.target_window).sum() for s in splits]
    sum_denoms = [np.abs(s.target_window.sum(axis=1)).sum() for s in splits]

    want_crps = sum(r.crps_aggregate * d for r, d in zip(per_split, point_denoms)) / sum(
        point_denoms
    )
    want_es = sum(r.energy_score * d for r, d in zip(per_split, point_denoms)) / sum(
        point_denoms
    )
    want_cs = sum(r.crps_sum * d for r, d in zip(per_split, sum_denoms)) / sum(sum_denoms)

    assert pooled.crps_aggregate == pytest.approx(want_crps, rel=1e-12)
    assert pooled.energy_score == pytest.approx(want_es, rel=1e-12)
    assert pooled.crps_sum == pytest.approx(want_cs, rel=1e-12)


def test_evaluate_raw_mode_pools_by_plain_mean(splits):
    cfg = DummyConfig(kind="multivariate", sigma=1e-3, n_samples=50, seed=2)
    per_split, pooled = evaluate_dummy_on_splits(splits, cfg, normalization="raw")
    # equal-length splits: pooled raw mean is the mean of per-split means
    assert pooled.crps_aggregate == pytest.approx(
        np.mean([r.crps_aggregate for r in per_split]), rel=1e-12
    )
    assert pooled.normalization_mode == "raw"


def test_evaluate_rejects_empty_split_list():
    with pytest.raises(ValueError):
        evaluate_dummy_on_splits([], DummyConfig(kind="univariate"))


# ---------------------------------------------------------------------------
# noise-scale sweep
# ---------------------------------------------------------------------------

def test_default_sigma_list_spans_twenty_decades():
    assert len(DEFAULT_SIGMA_LIST) == 20
    assert DEFAULT_SIGMA_LIST[0] == 1e-1
    assert DEFAULT_SIGMA_LIST[-1] == pytest.approx(1e-20)


def test_sigma_sweep_shares_random_streams(splits):
    """Repeated sigmas give exactly equal rows: the draw underlying each
    split does not depend on sigma."""
    rows = sigma_sweep("multivariate", [1e-4, 1e-4], splits, n_samples=30, seed=6)
    assert rows[0].crps_sum == rows[1].crps_sum
    assert rows[0].crps == rows[1].crps
    assert rows[0].es == rows[1].es


def test_sigma_sweep_scores_stabilize_for_small_noise(splits):
    """Once sigma is far below the data scale the scores stop moving."""
    rows = sigma_sweep(
        "multivariate", [1e-3, 1e-4, 1e-5, 1e-20], splits, n_samples=60, seed=0
    )
    by_sigma = {r.sigma: r for r in rows}
    for field in ("crps_sum", "crps", "es"):
        tiny = getattr(by_sigma[1e-5], field)
        tinier = getattr(by_sigma[1e-20], field)
        assert tiny == pytest.approx(tinier, rel=0.02)
        assert getattr(by_sigma[1e-3], field) == pytest.approx(
            getattr(by_sigma[1e-4], field), rel=0.10
        )


def test_sigma_sweep_univariate_kind(splits):
    rows = sigma_sweep("univariate", [1e-4], splits, n_samples=30, seed=1)
    assert len(rows) == 1 and rows[0].crps > 0


def test_sigma_sweep_checks_every_sigma_before_scoring(splits, monkeypatch):
    """A bad sigma late in the list is rejected before the first one is scored."""
    def unreachable(*args, **kwargs):
        raise AssertionError("scored before checking every sigma")

    monkeypatch.setattr(multivariate, "_energy_batch", unreachable)
    with pytest.raises(ValueError, match="sigma must be finite"):
        sigma_sweep("multivariate", [0.1, 0.01, float("nan")], splits, n_samples=8)


def test_sigma_sweep_of_no_sigmas_checks_the_splits_first():
    """An empty sigma list is checked as a full one is; it returned [] for
    any arguments."""
    with pytest.raises(ValueError, match="no evaluation splits"):
        sigma_sweep("bogus", [], [], n_samples=-3, seed=-1, estimator="nope",
                    normalization="x", beta=9)


@pytest.mark.parametrize("kind, options, match", [
    ("multivariate", {"estimator": "nope"}, "unknown estimator"),
    ("bogus", {}, "unknown dummy kind"),
    ("multivariate", {"n_samples": 1}, "at least 2 samples"),
    ("multivariate", {"seed": -1}, "non-negative"),
])
def test_sigma_sweep_of_no_sigmas_checks_each_argument(splits, kind, options, match):
    with pytest.raises(ValueError, match=match):
        sigma_sweep(kind, [], splits, **options)


def test_sigma_sweep_of_no_sigmas_draws_nothing(splits, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew for an empty sigma list")

    monkeypatch.setattr(forecasters, "_stream", unreachable)
    assert sigma_sweep("univariate", [], splits, n_samples=8) == []


@pytest.mark.parametrize("kind", DUMMY_KINDS)
@pytest.mark.parametrize("sigma", [1e-20, 1e-12, 1e-2, 3.7])
def test_dummy_forecast_is_a_normal_draw(kind, sigma):
    """``loc + sigma * z`` is ``rng.normal(loc, sigma, size)`` on the same stream, bit for bit."""
    window = 1.5 + np.random.default_rng(3).standard_normal((5, 8))
    stream = np.random.SeedSequence(entropy=(9, 2))
    cfg = DummyConfig(kind=kind, sigma=sigma, n_samples=50, seed=9)
    got = make_dummy_forecast(window, 30, cfg, np.random.default_rng(stream))
    loc = float(window[-1].mean()) if kind == "univariate" else window[-1]
    want = np.random.default_rng(stream).normal(loc, sigma, size=(50, 30, 8))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", DUMMY_KINDS)
@pytest.mark.parametrize("estimator", crps.ESTIMATORS)
def test_sigma_sweep_rows_are_the_evaluations_at_each_sigma(splits, kind, estimator):
    """One draw per split, scaled by each sigma, scores as a fresh evaluation
    at that sigma, bit for bit."""
    sigmas = [1e-2, 1e-12, 1e-20]
    rows = sigma_sweep(kind, sigmas, splits, n_samples=40, seed=5, estimator=estimator)
    for sigma, row in zip(sigmas, rows):
        cfg = DummyConfig(kind=kind, sigma=sigma, n_samples=40, seed=5)
        _, pooled = evaluate_dummy_on_splits(splits, cfg, estimator=estimator)
        assert (row.sigma, row.crps_sum, row.crps, row.es) == (
            sigma, pooled.crps_sum, pooled.crps_aggregate, pooled.energy_score
        )


@pytest.mark.parametrize("n_sigmas", [1, 4])
def test_sigma_sweep_draws_once_per_split(splits, monkeypatch, n_sigmas):
    streams = []
    stream = forecasters._stream

    def spy(*key):
        streams.append(key)
        return stream(*key)

    monkeypatch.setattr(forecasters, "_stream", spy)
    sigma_sweep("multivariate", [1e-3] * n_sigmas, splits, n_samples=8, seed=2)
    assert streams == [(2, s.split_index) for s in splits]


def test_each_split_is_validated_once(splits, monkeypatch):
    """The split evaluation checks each ensemble once, not once per score."""
    checked = []
    as_ensemble = multivariate._as_ensemble

    def spy(ensemble):
        checked.append(1)
        return as_ensemble(ensemble)

    monkeypatch.setattr(multivariate, "_as_ensemble", spy)
    forecast_and_score_splits(splits, DummyConfig(n_samples=8))
    assert len(checked) == len(splits)
    checked.clear()
    # One worker, so that every check is made in this process, where it is counted.
    monkeypatch.setattr(forecasters, "_workers", lambda n_tasks: 1)
    sigma_sweep("multivariate", [1e-3, 1e-4, 1e-5], splits, n_samples=8)
    assert len(checked) == 3 * len(splits)


@pytest.mark.parametrize("kind", DUMMY_KINDS)
def test_sigma_sweep_is_the_same_for_any_worker_count(splits, synthetic_series_file, monkeypatch,
                                                      tmp_path, kind):
    """The rows, bit for bit, and the CLI's report bytes are the same in one
    process and over two or three workers; no worker outlives the sweep."""
    rows, reports = {}, {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(forecasters, "_workers", lambda n_tasks, w=workers: w)
        rows[workers] = repr(sigma_sweep(kind, [1e-2, 1e-7, 1e-20], splits, n_samples=24,
                                         seed=4, estimator="sample"))
        assert_no_children()
        # One --out for every run: the reports echo it.
        assert main(["sigma-sweep", "--data", str(synthetic_series_file), "--kind", kind,
                     "--sigmas", "1e-2,1e-9,1e-20", "--batches", "2", "--samples", "40",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        reports[workers] = {name: (tmp_path / name).read_bytes()
                            for name in ("sigma_sweep.csv", "sigma_sweep.json")}
        assert_no_children()
    assert rows[1] == rows[2] == rows[3]
    assert reports[1] == reports[2] == reports[3]


def test_an_error_in_a_sweep_worker_reaches_the_caller(splits, monkeypatch):
    caller = os.getpid()
    scores = forecasters._scores

    def failing(ensemble, *args):
        if os.getpid() != caller:
            raise ValueError(f"scoring failed in process {os.getpid()}")
        return scores(ensemble, *args)

    monkeypatch.setattr(forecasters, "_scores", failing)
    monkeypatch.setattr(forecasters, "_workers", lambda n_tasks: 2)
    with pytest.raises(ValueError, match="scoring failed in process") as info:
        sigma_sweep("multivariate", [1e-3, 1e-4], splits, n_samples=8)
    assert int(str(info.value).rsplit(" ", 1)[1]) != caller  # raised in a worker
    assert_no_children()
