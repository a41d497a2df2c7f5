"""End-to-end CLI runs on small configurations and synthetic data."""
import json
import subprocess
import sys

import numpy as np
import pytest

from scorecast.cli import _read_ensemble_csv, main
from scorecast.data import MultivariateSeries
from scorecast.forecasters import ensemble_to_csv
from scorecast.multivariate import score_report
from scorecast.simulation import CSV_COLUMNS_CONVERGENCE, CSV_COLUMNS_SENSITIVITY

from conftest import read_report_csv


def run_ok(argv):
    assert main(argv) == 0


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_writes_reports(tmp_path):
    out = tmp_path / "conv"
    run_ok([
        "convergence", "--sizes", "50,100", "--n-quantiles", "10",
        "--repeats", "3", "--seed", "1", "--out", str(out),
    ])
    meta, header, rows = read_report_csv(out / "convergence.csv")
    assert header == list(CSV_COLUMNS_CONVERGENCE)
    assert len(rows) == 6  # (ecdf + sample) x 2 sizes + quantile x 2 sizes x 1 count
    assert meta["seed"] == "1"
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["config"]["repeats"] == 3
    assert (out / "run_manifest.json").exists()


def test_convergence_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "conv"
    argv = [
        "convergence", "--sizes", "50", "--repeats", "3", "--seed", "9",
        "--out", str(out),
    ]
    run_ok(argv)
    first = {
        name: (out / name).read_bytes()
        for name in ("convergence.csv", "convergence.json")
    }
    run_ok(argv)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repeats": 4, "sizes": "50", "seed": 5}))
    out = tmp_path / "conv"
    # --repeats overrides the config file; seed comes from the file
    run_ok([
        "convergence", "--config", str(cfg), "--repeats", "3", "--out", str(out),
    ])
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["config"]["repeats"] == 3
    assert doc["config"]["seed"] == 5


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_windows": 3}))
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["convergence", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def test_sensitivity_tiny_grid(tmp_path):
    out = tmp_path / "sens"
    run_ok([
        "sensitivity", "--n-windows", "24", "--window-size", "8",
        "--seed", "2", "--out", str(out),
    ])
    meta, header, rows = read_report_csv(out / "sensitivity.csv")
    assert header == list(CSV_COLUMNS_SENSITIVITY)
    assert len(rows) == 11 * 21
    # the degenerate anti-correlated data row carries NaN relative changes
    nan_rows = [r for r in rows if r[4] == "nan"]
    assert {r[0] for r in nan_rows} == {"-1.0"}
    doc = json.loads((out / "sensitivity.json").read_text())
    assert doc["config"]["n_windows"] == 24
    # NaNs must be legal-JSON null, not bare NaN tokens
    assert "NaN" not in (out / "sensitivity.json").read_text()


def test_sensitivity_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sens"
    argv = [
        "sensitivity", "--n-windows", "16", "--window-size", "8",
        "--seed", "3", "--out", str(out),
    ]
    run_ok(argv)
    first = {
        name: (out / name).read_bytes()
        for name in ("sensitivity.csv", "sensitivity.json")
    }
    run_ok(argv)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_sensitivity_scale_choice_rejected_cleanly(capsys):
    with pytest.raises(SystemExit):
        main(["sensitivity", "--scale", "galactic"])  # argparse choice error


# ---------------------------------------------------------------------------
# exchange-eval and sigma-sweep on a synthetic series
# ---------------------------------------------------------------------------

EVAL_ARGS = [
    "--batches", "2", "--horizon", "30", "--input-length", "30",
    "--samples", "40", "--seed", "3",
]


def test_exchange_eval_end_to_end(tmp_path, synthetic_series_file):
    out = tmp_path / "eval"
    run_ok([
        "exchange-eval", "--data", str(synthetic_series_file), "--kind", "multi",
        *EVAL_ARGS, "--dump-samples", "--out", str(out),
    ])
    meta, header, rows = read_report_csv(out / "scores.csv")
    assert header[0] == "split"
    assert [r[0] for r in rows] == ["split_0", "split_1", "pooled"]
    for r in rows:
        assert float(r[1]) > 0 and float(r[2]) > 0 and float(r[3]) > 0
        assert r[4] == "target-normalized"

    _, _, pooled_rows = read_report_csv(out / "pooled_score.csv")
    assert len(pooled_rows) == 1
    assert pooled_rows[0][0] == rows[-1][1]  # same pooled crps_sum

    doc = json.loads((out / "scores.json").read_text())
    assert set(doc["splits"]) == {"split_0", "split_1"}
    assert doc["config"]["kind"] == "multivariate"  # alias resolved

    assert (out / "samples_split_0.csv").exists()
    assert (out / "samples_split_1.csv").exists()


def test_exchange_eval_univariate_alias(tmp_path, synthetic_series_file):
    out = tmp_path / "eval"
    run_ok([
        "exchange-eval", "--data", str(synthetic_series_file), "--kind", "uni",
        *EVAL_ARGS, "--out", str(out),
    ])
    doc = json.loads((out / "scores.json").read_text())
    assert doc["config"]["kind"] == "univariate"


def test_exchange_eval_requires_data(capsys):
    assert main(["exchange-eval"]) == 2
    assert "--data" in capsys.readouterr().err


def test_exchange_eval_missing_file(tmp_path, capsys):
    assert main([
        "exchange-eval", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path)
    ]) == 2
    assert "not found" in capsys.readouterr().err


def test_exchange_eval_rerun_is_byte_identical(tmp_path, synthetic_series_file):
    out = tmp_path / "eval"
    argv = [
        "exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
        "--out", str(out),
    ]
    run_ok(argv)
    names = ("scores.csv", "pooled_score.csv", "scores.json")
    first = {name: (out / name).read_bytes() for name in names}
    run_ok(argv)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_sigma_sweep_end_to_end(tmp_path, synthetic_series_file):
    out = tmp_path / "sweep"
    run_ok([
        "sigma-sweep", "--data", str(synthetic_series_file), "--sigmas", "1e-3,1e-4",
        *EVAL_ARGS, "--out", str(out),
    ])
    _, header, rows = read_report_csv(out / "sigma_sweep.csv")
    assert header == ["sigma", "crps_sum", "crps", "es"]
    assert [float(r[0]) for r in rows] == [1e-3, 1e-4]
    doc = json.loads((out / "sigma_sweep.json").read_text())
    assert len(doc["rows"]) == 2


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

@pytest.fixture
def stored_case(tmp_path, rng):
    ens = rng.standard_normal((25, 4, 3)) + 1.0
    obs = rng.standard_normal((4, 3)) + 1.0
    ens_path = tmp_path / "ens.csv"
    obs_path = tmp_path / "obs.csv"
    ensemble_to_csv(ens, ens_path)
    MultivariateSeries(values=obs).save(obs_path)
    return ens, obs, ens_path, obs_path


def test_ensemble_csv_round_trip(stored_case):
    ens, _, ens_path, _ = stored_case
    np.testing.assert_array_equal(_read_ensemble_csv(str(ens_path)), ens)


def test_score_command_matches_library(tmp_path, stored_case):
    ens, obs, ens_path, obs_path = stored_case
    out = tmp_path / "score"
    run_ok([
        "score", "--ensemble", str(ens_path), "--obs", str(obs_path),
        "--estimator", "sample", "--normalize", "target", "--out", str(out),
    ])
    _, header, rows = read_report_csv(out / "score.csv")
    want = score_report(ens, obs, estimator="sample", normalization="target")
    got = dict(zip(header, rows[0]))
    assert float(got["crps_sum"]) == pytest.approx(want.crps_sum, rel=1e-15)
    assert float(got["crps"]) == pytest.approx(want.crps_aggregate, rel=1e-15)
    assert float(got["es"]) == pytest.approx(want.energy_score, rel=1e-15)


def test_score_perfect_ensemble_is_all_zero(tmp_path):
    obs = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]])
    ens = np.broadcast_to(obs, (10, 3, 2)).copy()
    ens_path, obs_path = tmp_path / "ens.csv", tmp_path / "obs.csv"
    ensemble_to_csv(ens, ens_path)
    MultivariateSeries(values=obs).save(obs_path)
    out = tmp_path / "score"
    run_ok([
        "score", "--ensemble", str(ens_path), "--obs", str(obs_path),
        "--estimator", "sample", "--out", str(out),
    ])
    doc = json.loads((out / "score.json").read_text())
    assert doc["crps_sum"] == 0.0
    assert doc["crps"] == 0.0
    assert doc["es"] == 0.0


def test_score_shape_mismatch_is_reported(tmp_path, stored_case, capsys):
    _, _, ens_path, _ = stored_case
    short_obs = tmp_path / "short.csv"
    short_obs.write_text("1.0,2.0,3.0\n")  # 1 step instead of 4
    assert main([
        "score", "--ensemble", str(ens_path), "--obs", str(short_obs),
        "--out", str(tmp_path / "s"),
    ]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_score_rejects_malformed_ensemble(tmp_path, stored_case, capsys):
    _, _, ens_path, obs_path = stored_case
    broken = tmp_path / "broken.csv"
    lines = ens_path.read_text().splitlines()
    broken.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row
    assert main([
        "score", "--ensemble", str(broken), "--obs", str(obs_path),
        "--out", str(tmp_path / "s"),
    ]) == 2
    assert "complete rows" in capsys.readouterr().err


def test_score_rejects_negative_and_repeated_indices(tmp_path, stored_case, capsys):
    """Every (sample_id, t, dim) cell must be filled exactly once."""
    _, _, ens_path, obs_path = stored_case
    one_value_obs = tmp_path / "obs1.csv"
    one_value_obs.write_text("1.0\n")
    negative = tmp_path / "negative.csv"
    negative.write_text("sample_id,t,dim,value\n-1,0,0,5.0\n1,0,0,7.0\n")
    lines = ens_path.read_text().splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join(lines + [lines[1]]) + "\n")
    for dump, obs in ((negative, one_value_obs), (repeated, obs_path)):
        assert main([
            "score", "--ensemble", str(dump), "--obs", str(obs), "--out", str(tmp_path / "s"),
        ]) != 0
        assert "negative or repeated index" in capsys.readouterr().err


def test_ensemble_header_is_enforced(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n0,0,0,1.0\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("1.0\n")
    assert main([
        "score", "--ensemble", str(bad), "--obs", str(obs), "--out", str(tmp_path / "s")
    ]) == 2
    assert "sample_id,t,dim,value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# process-level entry points
# ---------------------------------------------------------------------------

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "scorecast", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("convergence", "sensitivity", "exchange-eval", "sigma-sweep", "score"):
        assert sub in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "scorecast", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
