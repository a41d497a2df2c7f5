"""Acceptance gate: one test per numbered release criterion.

Each test prints a single machine-greppable verdict line (run pytest with -s
to see them live) and then asserts, so a failing criterion is both visible
and red.  The sensitivity-grid criteria share one desk-scale grid run; expect
the module to take a few minutes in total.

Criterion 9 and 10 need the daily exchange-rate table, which is not shipped
with the repository; they skip with placement instructions when it is absent.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from scorecast import (
    crps_matrix,
    crps_sample_estimate,
    crps_sum,
    energy_score,
)
from scorecast.cli import main as cli_main
from scorecast.data import load_exchange_rate, make_rolling_splits
from scorecast.forecasters import DummyConfig, evaluate_dummy_on_splits, sigma_sweep
from scorecast.simulation import (
    SensitivityConfig,
    run_convergence_study,
    run_sensitivity_grid,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
ANALYTIC = 0.2337  # four-digit analytic CRPS of N(0,1) scored at x = 0

EXCHANGE_RATE_CANDIDATES = (
    "data/exchange_rate.txt",
    "data/exchange_rate.txt.gz",
    "data/exchange_rate.csv",
    "data/exchange_rate.csv.gz",
)

# Published reference constants for the exchange-rate audit (target-normalized).
GP_COPULA = {"crps_sum": 0.0070, "crps": 0.0092, "es": 0.0043}
EXPECTED_DUMMY = {
    "multivariate": {"crps_sum": 0.0048, "crps": 0.0077, "es": 0.0032},
    "univariate": {"crps_sum": 0.0049, "crps": 0.4425, "es": 0.2037},
}


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def convergence():
    started = time.perf_counter()
    report = run_convergence_study(
        sample_sizes=(200, 500, 1000, 2000, 5000),
        n_quantiles=(20,),
        repeats=50,
        seed=0,
    )
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def desk_grid():
    config = SensitivityConfig(seed=0, scale="desk")
    started = time.perf_counter()
    report = run_sensitivity_grid(config)
    return config, report, time.perf_counter() - started


@pytest.fixture(scope="module")
def exchange_splits():
    for rel in EXCHANGE_RATE_CANDIDATES:
        path = REPO_ROOT / rel
        if path.exists():
            series = load_exchange_rate(path)
            return make_rolling_splits(series, n_batches=5, horizon=30, input_length=30)
    pytest.skip(
        "exchange-rate table not found; place the headerless 8-column daily "
        "CSV at one of "
        + ", ".join(EXCHANGE_RATE_CANDIDATES)
        + " under the repository root (gzip accepted). See README 'Exchange-rate data'."
    )


def _rows(report) -> dict:
    """Convergence rows by (estimator, sample size, quantile count)."""
    return {(r.estimator, r.sample_size, r.n_quantiles): r for r in report.rows}


def _cell(config, report, rho, varrho):
    """Grid cell (rho, varrho): the cells run row-major over the two lists."""
    i, j = config.rho_list.index(rho), config.varrho_list.index(varrho)
    return report.cells[i * len(config.varrho_list) + j]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_analytic_constant_at_largest_size(convergence):
    report, elapsed = convergence
    rows = _rows(report)
    worst = max(
        abs(rows[est, 5000, 20 if est == "quantile" else None].mean - ANALYTIC)
        for est in ("ecdf", "quantile", "sample")
    )
    ok = worst < 0.01 and elapsed < 60.0
    verdict(
        1,
        ok,
        f"every estimator mean at S=5000 within 0.01 of {ANALYTIC} "
        f"(worst |bias| {worst:.5f}); study wall time {elapsed:.2f}s < 60s",
    )


def test_criterion_02_ecdf_variance_below_sample_variance(convergence):
    rows = _rows(convergence[0])
    pairs = {
        size: (rows["ecdf", size, None].std, rows["sample", size, None].std)
        for size in (1000, 2000, 5000)
    }
    ok = all(e < s for e, s in pairs.values())
    detail = ", ".join(
        f"S={size}: {e:.6f} {'<' if e < s else '>='} {s:.6f}" for size, (e, s) in pairs.items()
    )
    verdict(2, ok, f"across-seed std of ecdf vs sample estimator ({detail})")


def test_criterion_03_quantile_estimator_efficient_at_500(convergence):
    bias = abs(_rows(convergence[0])["quantile", 500, 20].mean - ANALYTIC)
    verdict(3, bias < 0.02, f"quantile estimator (500 samples, 20 levels) |bias| {bias:.5f} < 0.02")


def test_criterion_04_energy_score_collapses_to_crps_in_1d():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        scale = float(rng.uniform(0.2, 8.0))
        samples = rng.standard_normal(n) * scale
        x = float(rng.standard_normal() * scale)
        es = energy_score(samples[:, None], np.array([x]))
        cr = crps_sample_estimate(samples, x)
        worst = max(worst, abs(es - cr) / cr)
    verdict(4, worst < 1e-12, f"1000 random 1-D instances, worst |ES - CRPS|/CRPS = {worst:.2e}")


def test_criterion_05_energy_score_proper_on_grid(desk_grid):
    config, report, _ = desk_grid
    worst_z, worst_at = -math.inf, None
    for rho in config.rho_list:
        ref = _cell(config, report, rho, rho)
        for varrho in config.varrho_list:
            if varrho == rho:
                continue
            cell = _cell(config, report, rho, varrho)
            z = (ref.es_mean - cell.es_mean) / math.hypot(ref.stderr_es, cell.stderr_es)
            if z > worst_z:
                worst_z, worst_at = z, (rho, varrho)
    ok = worst_z <= 3.0
    verdict(
        5,
        ok,
        f"matched-model ES minimal per row up to 3 SE (worst excess z {worst_z:+.2f} "
        f"at rho={worst_at[0]}, varrho={worst_at[1]})",
    )


def _delta_es_se(cell, ref) -> float:
    """Delta-method standard error of (cell - ref)/ref with independent MC errors."""
    return math.hypot(
        cell.stderr_es / ref.es_mean,
        cell.es_mean * ref.stderr_es / ref.es_mean**2,
    )


def test_criterion_06_energy_score_surface_symmetric(desk_grid):
    config, report, elapsed = desk_grid
    worst_z, worst_at = -math.inf, None
    for rho in config.rho_list:
        ref_a = _cell(config, report, rho, rho)
        ref_b = _cell(config, report, -rho, -rho)
        for varrho in config.varrho_list:
            a = _cell(config, report, rho, varrho)
            b = _cell(config, report, -rho, -varrho)
            se = math.hypot(_delta_es_se(a, ref_a), _delta_es_se(b, ref_b))
            z = abs(a.delta_rel_es - b.delta_rel_es) / se
            if z > worst_z:
                worst_z, worst_at = z, (rho, varrho)
    ok = worst_z < 3.0 and elapsed < 900.0
    verdict(
        6,
        ok,
        f"|d_rel(ES; r, v) - d_rel(ES; -r, -v)| < 3 combined SE at all "
        f"{len(report.cells)} cells (worst z {worst_z:.2f} at rho={worst_at[0]}, "
        f"varrho={worst_at[1]}); grid wall time {elapsed:.0f}s < 900s",
    )


def test_criterion_07_crps_sum_asymmetry_factor(desk_grid):
    config, report, _ = desk_grid

    def row(rho, column):
        return [getattr(_cell(config, report, rho, v), column) for v in config.varrho_list]

    # The asymmetry is taken between the row means of d_rel over the whole
    # varrho grid, which converge as the grid is refined (closed form 4.16 on
    # this grid, 4.60 in the limit).  Row maxima cannot carry it: for the
    # exact CRPS, d_rel depends only on r = (1 + varrho) / (1 + rho), and the
    # rho = +0.8 maximum is the point-mass limit varrho -> -1, sqrt(2) - 1 in
    # every row, so the ratio of maxima is 1.275 on any grid holding both
    # endpoints.  ES is mirror-symmetric (criterion 6): its mean ratio is 1.
    neg, pos = row(-0.8, "delta_rel_crps_sum"), row(0.8, "delta_rel_crps_sum")
    ratio = np.mean(neg) / np.mean(pos)
    max_ratio = max(neg) / max(pos)
    es_ratio = np.mean(row(-0.8, "delta_rel_es")) / np.mean(row(0.8, "delta_rel_es"))
    ok = ratio >= 2.0
    verdict(
        7,
        ok,
        f"mean d_rel(CRPS-Sum) over the varrho grid: rho=-0.8 is {np.mean(neg):.4f}, "
        f"rho=+0.8 is {np.mean(pos):.4f}: ratio {ratio:.3f} (needs >= 2); diagnostics: "
        f"ratio of row maxima {max_ratio:.3f}, ES mean ratio {es_ratio:.3f}",
    )


def test_criterion_08_crps_sum_cancellation():
    rng = np.random.default_rng(42)
    base_obs = rng.standard_normal(8)
    obs = np.stack([base_obs, -base_obs], axis=1)  # every row sums to exactly 0
    base_samples = rng.standard_normal((64, 8)) + 2.0  # deliberately biased forecast
    ens = np.stack([base_samples, -base_samples], axis=2)

    cs = crps_sum(ens, obs, estimator="quantile")
    per_dim = crps_matrix(ens, obs, estimator="quantile").mean(axis=0)
    ok = cs == 0.0 and bool(np.all(per_dim > 0.0))
    verdict(
        8,
        ok,
        f"anti-correlated construction: CRPS-Sum == {cs} exactly while "
        f"min per-dimension CRPS = {per_dim.min():.4f} > 0",
    )


def _audit(kind: str, splits) -> dict:
    cfg = DummyConfig(kind=kind, sigma=1e-4, n_samples=400, seed=0)
    _, pooled = evaluate_dummy_on_splits(
        splits, cfg, estimator="quantile", n_quantiles=20, normalization="target"
    )
    return {"crps_sum": pooled.crps_sum, "crps": pooled.crps_aggregate, "es": pooled.energy_score}


def test_criterion_09_exchange_rate_dummy_audit(exchange_splits):
    got = {kind: _audit(kind, exchange_splits) for kind in EXPECTED_DUMMY}
    rel_errs = {
        f"{kind}.{metric}": abs(got[kind][metric] - want) / want
        for kind, metrics in EXPECTED_DUMMY.items()
        for metric, want in metrics.items()
    }
    worst_key = max(rel_errs, key=rel_errs.get)
    within = rel_errs[worst_key] <= 0.25
    ordering = (
        got["multivariate"]["crps_sum"] < GP_COPULA["crps_sum"]
        and got["univariate"]["crps_sum"] < GP_COPULA["crps_sum"]
        and got["univariate"]["crps"] > GP_COPULA["crps"]
        and got["univariate"]["es"] > GP_COPULA["es"]
    )
    ok = within and ordering
    verdict(
        9,
        ok,
        "dummy audit vs published constants: worst rel err "
        f"{rel_errs[worst_key]:.1%} ({worst_key}), headline ordering "
        f"{'holds' if ordering else 'violated'} "
        f"(multi {got['multivariate']}, uni {got['univariate']})",
    )


def test_criterion_10_sigma_sweep_convergence(exchange_splits):
    worst_small, worst_coarse = 0.0, 0.0
    for kind in ("multivariate", "univariate"):
        rows = sigma_sweep(
            kind, [1e-3, 1e-4, 1e-5, 1e-20], exchange_splits, n_samples=400, seed=0
        )
        by_sigma = {r.sigma: r for r in rows}
        for metric in ("crps_sum", "crps", "es"):
            a = getattr(by_sigma[1e-5], metric)
            b = getattr(by_sigma[1e-20], metric)
            worst_small = max(worst_small, abs(a - b) / b)
            c = getattr(by_sigma[1e-3], metric)
            d = getattr(by_sigma[1e-4], metric)
            worst_coarse = max(worst_coarse, abs(c - d) / d)
    ok = worst_small <= 0.02 and worst_coarse <= 0.10
    verdict(
        10,
        ok,
        f"noise-scale stability: max rel gap sigma 1e-5 vs 1e-20 = {worst_small:.2%} "
        f"(<= 2%), sigma 1e-3 vs 1e-4 = {worst_coarse:.2%} (<= 10%)",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    # synthetic inputs so every command can run without the external dataset
    gen = np.random.default_rng(7)
    t = np.arange(150)[:, None]
    values = 1.5 + 0.3 * np.sin(0.05 * t + np.linspace(0, 2, 8)[None, :])
    values = values + 0.01 * gen.standard_normal(values.shape)
    data_file = tmp_path / "rates.csv"
    data_file.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    ens_file = tmp_path / "ens.csv"
    obs_file = tmp_path / "obs.csv"
    from scorecast.forecasters import ensemble_to_csv

    ensemble_to_csv(gen.standard_normal((12, 3, 2)) + 1.0, ens_file)
    obs_file.write_text("1.0,2.0\n0.5,-1.0\n2.0,0.25\n")

    commands = {
        "convergence": ["convergence", "--sizes", "50,100", "--repeats", "3", "--seed", "1"],
        "sensitivity": ["sensitivity", "--n-windows", "16", "--window-size", "8", "--seed", "2"],
        "exchange-eval": [
            "exchange-eval", "--data", str(data_file), "--batches", "2",
            "--samples", "30", "--seed", "3", "--dump-samples",
        ],
        "sigma-sweep": [
            "sigma-sweep", "--data", str(data_file), "--sigmas", "1e-3,1e-5",
            "--batches", "2", "--samples", "30", "--seed", "4",
        ],
        "score": ["score", "--ensemble", str(ens_file), "--obs", str(obs_file)],
    }

    mismatches = []
    checked = 0
    for name, argv in commands.items():
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)]) == 0
        snapshot = {
            f.name: f.read_bytes()
            for f in out.iterdir()
            if f.name != "run_manifest.json"
        }
        assert cli_main(argv + ["--out", str(out)]) == 0
        for fname, payload in snapshot.items():
            checked += 1
            if (out / fname).read_bytes() != payload:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches and checked >= 10
    verdict(
        11,
        ok,
        f"all 5 commands rerun byte-identical across {checked} report files"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
