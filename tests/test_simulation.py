"""Correlated sampling, the sensitivity grid, and the convergence study."""
import math

import numpy as np
import pytest

from scorecast.simulation import (
    CONVERGENCE_ESTIMATORS,
    CSV_COLUMNS_SENSITIVITY,
    DEFAULT_RHO_GRID,
    DEFAULT_VARRHO_GRID,
    SCALES,
    GaussianSpec,
    SensitivityConfig,
    _crps_quantile_batch,
    _energy_batch,
    bivariate_correlation_spec,
    relative_change,
    run_convergence_study,
    run_sensitivity_cell,
    run_sensitivity_grid,
    sample_gaussian,
)
from scorecast import crps_quantile, energy_score


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------

def test_sample_shape_and_determinism():
    spec = bivariate_correlation_spec(0.3)
    a = sample_gaussian(spec, 50, seed=9)
    b = sample_gaussian(spec, 50, seed=9)
    assert a.shape == (50, 2)
    np.testing.assert_array_equal(a, b)
    c = sample_gaussian(spec, 50, seed=10)
    assert not np.array_equal(a, c)


def test_perfect_positive_correlation_exact():
    x = sample_gaussian(bivariate_correlation_spec(1.0), 5000, seed=3)
    assert np.all(x[:, 0] == x[:, 1])


def test_perfect_negative_correlation_exact():
    """Degenerate rho = -1 must give exactly mirrored coordinates."""
    x = sample_gaussian(bivariate_correlation_spec(-1.0), 5000, seed=4)
    assert np.all(x[:, 0] + x[:, 1] == 0.0)


def test_independent_coordinates_uncorrelated():
    x = sample_gaussian(bivariate_correlation_spec(0.0), 100_000, seed=5)
    assert abs(np.corrcoef(x.T)[0, 1]) < 0.01


def test_sample_moments_converge():
    spec = bivariate_correlation_spec(0.6)
    x = sample_gaussian(spec, 200_000, seed=6)
    np.testing.assert_allclose(x.mean(axis=0), [0.0, 0.0], atol=0.01)
    np.testing.assert_allclose(np.cov(x.T), spec.cov, atol=0.02)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(3), cov=np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        bivariate_correlation_spec(1.2)


# ---------------------------------------------------------------------------
# relative change
# ---------------------------------------------------------------------------

def test_relative_change_values():
    assert relative_change(0.5, 0.5) == 0.0
    assert relative_change(0.6, 0.5) == pytest.approx(0.2, rel=1e-14)
    assert relative_change(0.45, 0.5) == pytest.approx(-0.1, rel=1e-14)


def test_relative_change_domain():
    with pytest.raises(ValueError):
        relative_change(0.5, 0.0)
    with pytest.raises(ValueError):
        relative_change(0.5, -1.0)
    with pytest.raises(ValueError):
        relative_change(float("nan"), 1.0)


# ---------------------------------------------------------------------------
# vectorized batch scoring helpers
# ---------------------------------------------------------------------------

def test_quantile_batch_matches_scalar_calls(rng):
    samples = rng.standard_normal((12, 33))
    obs = rng.standard_normal(12)
    got = _crps_quantile_batch(samples, obs, 20)
    want = [crps_quantile(samples[i], float(obs[i]), 20) for i in range(12)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_energy_batch_matches_scalar_calls(rng):
    samples = rng.standard_normal((9, 21, 2))
    obs = rng.standard_normal((9, 2))
    got = _energy_batch(samples, obs)
    want = [energy_score(samples[i], obs[i]) for i in range(9)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_energy_batch_chunking_is_invisible(rng):
    """A batch scores each window exactly as a batch of that window alone,
    both with many windows per tile (w=15) and in row blocks (w=300)."""
    for w in (15, 300):
        samples = rng.standard_normal((10, w, 3))
        obs = rng.standard_normal((10, 3))
        alone = [_energy_batch(samples[i : i + 1], obs[i : i + 1])[0] for i in range(10)]
        np.testing.assert_array_equal(_energy_batch(samples, obs), alone)


def test_energy_batch_general_beta(rng):
    samples = rng.standard_normal((6, 18, 2))
    obs = rng.standard_normal((6, 2))
    got = _energy_batch(samples, obs, beta=1.5)
    want = [energy_score(samples[i], obs[i], beta=1.5) for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# sensitivity cells and grid
# ---------------------------------------------------------------------------

def test_cell_scores_deterministic_and_sane():
    a = run_sensitivity_cell(0.5, 0.2, n_windows=128, window_size=32, seed=11)
    b = run_sensitivity_cell(0.5, 0.2, n_windows=128, window_size=32, seed=11)
    assert a == b
    assert a.crps_sum_mean > 0 and a.es_mean > 0
    assert a.crps_sum_stderr > 0 and a.es_stderr > 0
    assert (a.n_windows, a.window_size) == (128, 32)


def test_mismatched_model_scores_worse():
    """A strongly wrong model correlation should raise the energy score
    far beyond Monte Carlo error (properness, writ small)."""
    ref = run_sensitivity_cell(0.0, 0.0, n_windows=4096, window_size=128, seed=101)
    off = run_sensitivity_cell(0.0, 0.9, n_windows=4096, window_size=128, seed=202)
    gap = off.es_mean - ref.es_mean
    assert gap > 3.0 * math.hypot(off.es_stderr, ref.es_stderr)


def test_single_cell_grid_has_zero_deltas():
    cfg = SensitivityConfig(
        rho_list=(0.0,), varrho_list=(0.0,), n_windows=64, window_size=16, seed=1
    )
    rep = run_sensitivity_grid(cfg)
    assert len(rep.cells) == 1
    assert rep.cells[0].delta_rel_crps_sum == 0.0
    assert rep.cells[0].delta_rel_es == 0.0


@pytest.fixture(scope="module")
def micro_grid():
    cfg = SensitivityConfig(
        rho_list=(-1.0, 0.0, 0.5),
        varrho_list=(-1.0, 0.0, 0.5),
        n_windows=96,
        window_size=24,
        seed=7,
    )
    return cfg, run_sensitivity_grid(cfg)


def test_grid_is_complete(micro_grid):
    cfg, rep = micro_grid
    assert len(rep.cells) == len(cfg.rho_list) * len(cfg.varrho_list)
    seen = {(c.rho, c.varrho) for c in rep.cells}
    assert seen == {(r, v) for r in cfg.rho_list for v in cfg.varrho_list}


def test_grid_reference_cells_have_zero_delta(micro_grid):
    _, rep = micro_grid
    for r in (-1.0, 0.0, 0.5):
        cell = rep.cell(r, r)
        assert cell.delta_rel_crps_sum == 0.0
        assert cell.delta_rel_es == 0.0


def test_degenerate_row_yields_nan_crps_sum_deltas(micro_grid):
    """At rho = -1 the summed observations are identically zero, so the
    reference CRPS-Sum is 0 and relative changes are undefined off-reference."""
    _, rep = micro_grid
    ref = rep.cell(-1.0, -1.0)
    assert ref.crps_sum_mean == 0.0
    for v in (0.0, 0.5):
        cell = rep.cell(-1.0, v)
        assert math.isnan(cell.delta_rel_crps_sum)
        assert math.isfinite(cell.delta_rel_es)
    # ES deltas stay well defined on the whole grid
    assert all(math.isfinite(c.delta_rel_es) for c in rep.cells)


def test_grid_deterministic(micro_grid):
    cfg, rep = micro_grid
    again = run_sensitivity_grid(cfg)
    # rows contain NaN deltas, so compare with NaN-tolerant equality
    np.testing.assert_equal(rep.rows(), again.rows())


def test_grid_rows_match_csv_columns(micro_grid):
    cfg, rep = micro_grid
    rows = rep.rows()
    assert len(rows) == len(rep.cells)
    assert len(rows[0]) == len(CSV_COLUMNS_SENSITIVITY)
    lookup = dict(zip(CSV_COLUMNS_SENSITIVITY, rows[0]))
    assert lookup["rho"] == rep.cells[0].rho
    assert lookup["seed"] == cfg.seed
    assert lookup["n_windows"] == cfg.n_windows


def test_grid_cell_lookup_missing():
    cfg = SensitivityConfig(
        rho_list=(0.0,), varrho_list=(0.0,), n_windows=16, window_size=8, seed=0
    )
    rep = run_sensitivity_grid(cfg)
    with pytest.raises(KeyError):
        rep.cell(0.5, 0.0)


def test_sensitivity_config_scales():
    assert SCALES["paper"] == (2**14, 2**9)
    assert SCALES["desk"] == (2**12, 2**7)
    cfg = SensitivityConfig(scale="desk")
    assert (cfg.n_windows, cfg.window_size) == (2**12, 2**7)
    cfg = SensitivityConfig(scale="paper")
    assert (cfg.n_windows, cfg.window_size) == (2**14, 2**9)
    # explicit overrides beat the scale presets
    cfg = SensitivityConfig(scale="desk", n_windows=10, window_size=4)
    assert (cfg.n_windows, cfg.window_size) == (10, 4)


def test_sensitivity_config_validation():
    with pytest.raises(ValueError):
        SensitivityConfig(scale="laptop")
    with pytest.raises(ValueError):
        SensitivityConfig(seed=-1)
    with pytest.raises(ValueError):
        SensitivityConfig(rho_list=(1.5,))
    with pytest.raises(ValueError):
        SensitivityConfig(window_size=1)


def test_default_grids():
    assert len(DEFAULT_RHO_GRID) == 11
    assert len(DEFAULT_VARRHO_GRID) == 21
    assert DEFAULT_RHO_GRID[0] == -1.0 and DEFAULT_RHO_GRID[-1] == 1.0
    assert DEFAULT_VARRHO_GRID[0] == -1.0 and DEFAULT_VARRHO_GRID[-1] == 1.0
    assert DEFAULT_RHO_GRID[6] == pytest.approx(0.2)
    assert DEFAULT_VARRHO_GRID[1] == pytest.approx(-0.9)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_study():
    return run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10, 20), repeats=6, seed=3
    )


def test_convergence_row_layout(small_study):
    # ecdf and sample get one row per size; quantile one per (size, count)
    assert len(small_study.rows) == 2 + 2 + 4
    kinds = {(r.estimator, r.sample_size, r.n_quantiles) for r in small_study.rows}
    assert ("ecdf", 50, None) in kinds
    assert ("sample", 200, None) in kinds
    assert ("quantile", 200, 10) in kinds


def test_convergence_values_in_plausible_band(small_study):
    for row in small_study.rows:
        assert 0.15 < row.mean < 0.35
        assert row.std > 0.0


def test_convergence_row_lookup(small_study):
    row = small_study.row("quantile", 50, 20)
    assert row.estimator == "quantile" and row.n_quantiles == 20
    with pytest.raises(KeyError):
        small_study.row("quantile", 50, 99)


def test_convergence_deterministic(small_study):
    again = run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10, 20), repeats=6, seed=3
    )
    assert small_study.rows == again.rows


def test_convergence_rows_independent_of_selection():
    """A row's values depend only on its own configuration, not on which
    other configurations were requested alongside it."""
    alone = run_convergence_study(
        estimators=("sample",), sample_sizes=(200,), repeats=5, seed=3
    )
    combined = run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10,), repeats=5, seed=3
    )
    assert alone.row("sample", 200) == combined.row("sample", 200)


def test_convergence_validation():
    with pytest.raises(ValueError):
        run_convergence_study(repeats=1)
    with pytest.raises(ValueError):
        run_convergence_study(estimators=("parametric",), repeats=3)
    with pytest.raises(ValueError):
        run_convergence_study(sample_sizes=(1,), repeats=3)
    assert set(CONVERGENCE_ESTIMATORS) == {"ecdf", "quantile", "sample"}
