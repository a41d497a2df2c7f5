"""End-to-end CLI runs on small configurations and synthetic data."""
import builtins
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import scorecast
from scorecast import __version__, forecasters, reporting, simulation
from scorecast.cli import COMMANDS, _read_ensemble_csv, build_parser, main
from scorecast.crps import ESTIMATORS
from scorecast.data import (
    _bulk_ensemble,
    _dump_rows,
    load_multivariate_csv,
    make_rolling_splits,
)
from scorecast.forecasters import ensemble_to_csv
from scorecast.multivariate import score_report
from scorecast.reporting import artifact_version

from conftest import assert_no_children, read_report_csv, write_table


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
    assert tuple(header) == ("estimator", "sample_size", "n_quantiles", "mean", "std")
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


@pytest.mark.parametrize("text, flag", [
    ('{"repeats": 3, "repeats": 2, "sizes": [20]}', "--repeats"),
    ('{"repeats": 2, "sizes": [20], "n-quantiles": [5], "n_quantiles": [7]}', "--n-quantiles"),
], ids=["one key twice", "two spellings"])
def test_config_names_each_option_once(tmp_path, capsys, text, flag):
    """A config file that gives one option twice, as one key or as its two
    spellings, is one error line, not a run with the last value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --config: {cfg} gives {flag} twice\n"
    assert not out.exists()


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["convergence", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, text", [
    ("convergence", "--sizes", ""),
    ("convergence", "--n-quantiles", " , "),
    ("sigma-sweep", "--sigmas", ","),
])
def test_empty_number_list_rejected(tmp_path, synthetic_series_file, capsys, command, flag, text):
    """An empty list wrote a header-only report and exited 0."""
    data = ["--data", str(synthetic_series_file)] if command == "sigma-sweep" else []
    out = tmp_path / "out"
    assert main([command, *data, flag, text, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: expected at least one number\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config, flag, message", [
    ("exchange-eval", {"samples": None}, None, "--samples: expected an integer, got 'null'"),
    ("convergence", {"repeats": "x"}, "x", "--repeats: expected an integer, got 'x'"),
    ("convergence", {"sizes": [None]}, "null", "--sizes: expected an integer, got 'null'"),
    ("exchange-eval", {"batches": 2.7}, "2.7", "--batches: expected an integer, got '2.7'"),
    ("exchange-eval", {"samples": True}, "true", "--samples: expected an integer, got 'true'"),
    ("exchange-eval", {"dump_samples": "false"}, None,
     '--dump-samples: expected true or false, got "false"'),
    ("sigma-sweep", {"kind": None}, None,
     "--kind: invalid choice 'null' (choose from uni, multi, univariate, multivariate)"),
])
def test_bad_config_value_names_its_flag(tmp_path, synthetic_series_file, capsys,
                                         command, config, flag, message):
    """A config value is rejected as the same value given as its flag is:
    one error line naming the flag, exit 2, and no --out directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    data = [] if command == "convergence" else ["--data", str(synthetic_series_file)]
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *data, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    if flag is not None:
        (name,) = config
        argv = [command, *data, "--" + name.replace("_", "-"), flag, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _every_option(data, ensemble, obs):
    """Each command's options but --out, as typed JSON values."""
    evaluation = {"seed": 3, "data": str(data), "kind": "uni", "samples": 30,
                  "estimator": "ecdf", "n_quantiles": 7, "normalize": "raw",
                  "batches": 2, "horizon": 30, "input_length": 30}
    return {
        "convergence": {"seed": 1, "sizes": [40, 60], "n_quantiles": [5, 10], "repeats": 3},
        "sensitivity": {"seed": 2, "scale": "paper", "n_windows": 8, "window_size": 4,
                        "n_quantiles": 10},
        "exchange-eval": {**evaluation, "sigma": 0.001, "dump_samples": True},
        "sigma-sweep": {**evaluation, "sigmas": [0.01, 1e-20]},
        "score": {"seed": 4, "ensemble": str(ensemble), "obs": str(obs), "estimator": "sample",
                  "n_quantiles": 7, "normalize": "target", "beta": 1.5},
    }


def test_config_file_matches_flags(tmp_path, synthetic_series_file, stored_case):
    """Every option of each command, once as flags and once as typed JSON
    (keys written with "-"), writes the same report bytes into the same --out."""
    _, _, ens_path, obs_path = stored_case
    for command, options in _every_option(synthetic_series_file, ens_path, obs_path).items():
        assert set(options) | {"out"} == set(COMMANDS[command][2]), command
        out = tmp_path / command
        flags = []
        for name, value in options.items():
            flags.append("--" + name.replace("_", "-"))
            if isinstance(value, list):
                flags.append(",".join(map(str, value)))
            elif value is not True:
                flags.append(str(value))
        run_ok([command, *flags, "--out", str(out)])
        from_flags = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
        shutil.rmtree(out)
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({name.replace("_", "-"): value
                                   for name, value in {**options, "out": str(out)}.items()}))
        run_ok([command, "--config", str(cfg)])
        from_config = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
        assert from_config == from_flags, command


def test_config_values_are_echoed_converted(tmp_path, stored_case):
    """A number written as a string is echoed as the number; a null seed,
    whose default is null, means "not given"."""
    _, _, ens_path, obs_path = stored_case
    for given, echoed in (("5", 5), (None, None)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": given, "beta": "1.5"}))
        out = tmp_path / "score"
        run_ok(["score", "--config", str(cfg), "--ensemble", str(ens_path),
                "--obs", str(obs_path), "--out", str(out)])
        doc = json.loads((out / "score.json").read_text())
        assert doc["config"]["seed"] == echoed and doc["seed"] == echoed
        assert doc["config"]["beta"] == 1.5


def test_help_shows_each_default():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command, (_, _, options) in COMMANDS.items():
        helps = {a.dest: a.help for a in subcommands[command]._actions}
        for name, (_, default, _) in options.items():
            shown = default is not None and default is not False
            assert ("(default " in helps[name]) == shown, (command, name)


@pytest.mark.parametrize("flag", ["--config", "--data", "--ensemble", "--obs", "--out"])
def test_bad_path_is_an_error_line(tmp_path, stored_case, synthetic_series_file, capsys,
                                   monkeypatch, flag):
    """A directory where a file is read, or a file where --out goes, exits 2
    with one error line that names the flag; --out is checked before the
    study runs."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the study ran before --out was created")

    monkeypatch.setattr(simulation, "run_sensitivity_grid", unreachable)
    _, _, ens_path, obs_path = stored_case
    directory, a_file = tmp_path / "a_directory", tmp_path / "a_file"
    directory.mkdir()
    a_file.write_text("")
    out = tmp_path / "out"
    argv = {
        "--config": ["convergence", "--config", str(directory), "--out", str(out)],
        "--data": ["exchange-eval", "--data", str(directory), "--out", str(out)],
        "--ensemble": ["score", "--ensemble", str(directory), "--obs", str(obs_path),
                       "--out", str(out)],
        "--obs": ["score", "--ensemble", str(ens_path), "--obs", str(directory),
                  "--out", str(out)],
        "--out": ["sensitivity", "--n-windows", "4", "--window-size", "4", "--out", str(a_file)],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert str(a_file if flag == "--out" else directory) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["convergence", "score", "exchange-eval",
                                     "sensitivity", "sigma-sweep"])
def test_a_rejected_run_leaves_no_out_it_made(tmp_path, stored_case, synthetic_series_file,
                                              capsys, command):
    """Arguments that only the library rejects exit 2 after --out is made;
    the run removes the directories it made and left empty, and only those."""
    _, _, ens_path, obs_path = stored_case
    argv = {
        "convergence": ["convergence", "--repeats", "1", "--sizes", "20"],
        "score": ["score", "--beta", "3", "--ensemble", str(ens_path), "--obs", str(obs_path)],
        "exchange-eval": ["exchange-eval", "--n-quantiles", "0",
                          "--data", str(synthetic_series_file)],
        "sensitivity": ["sensitivity", "--n-windows", "1"],
        "sigma-sweep": ["sigma-sweep", "--n-quantiles", "0", "--data", str(synthetic_series_file)],
    }[command]
    made = tmp_path / "made"
    assert main([*argv, "--out", str(made / "out")]) == 2
    assert not made.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main([*argv, "--out", str(existing)]) == 2
    assert existing.is_dir()
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.startswith("error: ")


def test_an_internal_fault_leaves_no_out_it_made(tmp_path, monkeypatch):
    """A worker that dies is no user error: its RuntimeError leaves ``main``
    with its traceback, after the run removed the directories it made."""
    parent, cell = os.getpid(), simulation.run_sensitivity_cell
    monkeypatch.setattr(simulation, "run_sensitivity_cell",
                        lambda *args, **kwargs: os._exit(3) if os.getpid() != parent
                        else cell(*args, **kwargs))
    monkeypatch.setattr(simulation, "_workers", lambda n: min(2, n))
    made = tmp_path / "a"
    with pytest.raises(RuntimeError, match="exited with status 3"):
        main(["sensitivity", "--n-windows", "4", "--window-size", "4",
              "--out", str(made / "b")])
    assert not made.exists()
    assert_no_children()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_failing_report_write_is_one_error_line(tmp_path, stored_case, synthetic_series_file,
                                                  capsys, monkeypatch, command):
    """A report that cannot be written ends the run with exit 2 and one
    error line, not a traceback."""
    def refuse(path, *args, **kwargs):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(reporting, "write_json", refuse)
    _, _, ens_path, obs_path = stored_case
    data = ["--data", str(synthetic_series_file), *EVAL_ARGS]
    argv = {
        "convergence": ["convergence", "--repeats", "2", "--sizes", "20"],
        "sensitivity": ["sensitivity", "--n-windows", "4", "--window-size", "4"],
        "exchange-eval": ["exchange-eval", *data],
        "sigma-sweep": ["sigma-sweep", *data, "--sigmas", "0.01"],
        "score": ["score", "--ensemble", str(ens_path), "--obs", str(obs_path)],
    }[command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("writer", ["write_json", "write_manifest"])
@pytest.mark.parametrize("command", ["convergence", "exchange-eval"])
def test_a_failing_write_leaves_the_previous_files_whole(tmp_path, synthetic_series_file, capsys,
                                                         monkeypatch, command, writer):
    """A run's files replace an earlier run's only when every one of them is
    written: a write that fails part-way, after the sample dumps and the CSV
    reports, leaves each file as the earlier run wrote it and no temporary."""
    out = tmp_path / "out"
    argv = {
        "convergence": ["convergence", "--repeats", "2", "--sizes", "20"],
        "exchange-eval": ["exchange-eval", "--data", str(synthetic_series_file), "--batches", "2",
                          "--samples", "10", "--dump-samples"],
    }[command] + ["--out", str(out)]
    run_ok([*argv, "--seed", "1"])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == {"convergence": 3, "exchange-eval": 6}[command]

    def refuse(path, *args, **kwargs):
        raise OSError(f"cannot write {Path(path).name}")

    monkeypatch.setattr(reporting, writer, refuse)
    assert main([*argv, "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    report = "convergence.csv" if command == "convergence" else "scores.csv"
    assert read_report_csv(out / report)[0]["seed"] == "1"


def test_config_outside_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xff{"seed": 1}')
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: --config: {cfg}: byte 0xff is not UTF-8\n"


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
    assert tuple(header) == (
        "rho", "varrho", "crps_sum_mean", "es_mean", "delta_rel_crps_sum",
        "delta_rel_es", "stderr_crps_sum", "stderr_es", "n_windows",
        "window_size", "seed",
    )
    assert len(rows) == 11 * 21
    # the degenerate anti-correlated data row carries NaN relative changes
    nan_rows = [r for r in rows if r[4] == "nan"]
    assert {r[0] for r in nan_rows} == {"-1.0"}
    doc = json.loads((out / "sensitivity.json").read_text())
    assert doc["config"]["n_windows"] == 24
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["workers"] == simulation._workers(11 * 21)
    task_s = manifest["task_s"]
    assert list(task_s) == ["min", "median", "max"]
    assert 0 <= task_s["min"] <= task_s["median"] <= task_s["max"] <= manifest["wall_time_s"]
    # NaNs must be legal-JSON null, not bare NaN tokens
    assert "NaN" not in (out / "sensitivity.json").read_text()


def test_a_grid_run_does_not_import_numpy_ma(tmp_path):
    """The grid's task seconds are summed up without ``np.median``, whose
    first call imports ``numpy.ma`` (~14 ms)."""
    code = ("import sys; from scorecast import cli; "
            f"assert cli.main(['sensitivity', '--n-windows', '2', '--window-size', '2', "
            f"'--out', {str(tmp_path)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "False"


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


def test_sensitivity_rejects_zero_quantile_count(tmp_path, capsys):
    out = tmp_path / "sens"
    argv = ["sensitivity", "--n-windows", "4", "--window-size", "4",
            "--n-quantiles", "0", "--out", str(out)]
    assert main(argv) == 2
    assert "n_quantiles" in capsys.readouterr().err
    assert not (out / "sensitivity.csv").exists()


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


def test_exchange_eval_dumps_the_scored_ensembles(tmp_path, synthetic_series_file, monkeypatch):
    """--dump-samples writes the ensembles that were scored: one draw per split."""
    calls = []
    draw = forecasters.make_dummy_forecast

    def counted(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(forecasters, "make_dummy_forecast", counted)
    run_ok([
        "exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
        "--dump-samples", "--out", str(tmp_path / "eval"),
    ])
    assert len(calls) == 2  # --batches 2
    assert sorted(p.name for p in (tmp_path / "eval").glob("samples_split_*.csv")) == [
        "samples_split_0.csv", "samples_split_1.csv",
    ]


def test_dumps_over_one_or_two_workers_are_the_same(tmp_path, synthetic_series_file,
                                                    monkeypatch):
    """main writes the sample dumps over the workers; the dump and report
    bytes in one --out do not depend on their count."""
    out = tmp_path / "eval"
    files = {}
    for workers in (1, 2):
        monkeypatch.setattr(simulation, "_workers", lambda n, w=workers: min(w, n))
        run_ok(["exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
                "--dump-samples", "--out", str(out)])
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == workers
        files[workers] = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "run_manifest.json"}
    assert len(files[1]) == 5 and files[1] == files[2]


def test_a_dump_write_failing_in_a_worker_leaves_no_file(tmp_path, synthetic_series_file,
                                                         capsys, monkeypatch):
    """A worker's write error is the run's error, and neither the dump the
    worker wrote nor any other file or temporary is left."""
    parent, write = os.getpid(), forecasters.ensemble_to_csv

    def fail_in_a_worker(ensemble, path):
        write(ensemble, path)
        if os.getpid() != parent:
            raise OSError(f"cannot write {Path(path).name} in a worker")

    monkeypatch.setattr(forecasters, "ensemble_to_csv", fail_in_a_worker)
    monkeypatch.setattr(simulation, "_workers", lambda n: min(2, n))
    out = tmp_path / "eval"
    out.mkdir()
    assert main(["exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
                 "--dump-samples", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write .samples_split_1.csv.{parent}.tmp in a worker\n")
    assert list(out.iterdir()) == []
    assert_no_children()


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


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_exchange_eval_rejects_a_non_finite_sigma(tmp_path, synthetic_series_file, capsys, sigma):
    assert main([
        "exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
        "--sigma", sigma, "--out", str(tmp_path / "eval"),
    ]) == 2
    assert "sigma must be finite" in capsys.readouterr().err


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


def test_sigma_sweep_rerun_is_byte_identical(tmp_path, synthetic_series_file):
    out = tmp_path / "sweep"
    argv = [
        "sigma-sweep", "--data", str(synthetic_series_file), "--sigmas", "1e-2,1e-20",
        *EVAL_ARGS, "--out", str(out),
    ]
    run_ok(argv)
    names = ("sigma_sweep.csv", "sigma_sweep.json")
    first = {name: (out / name).read_bytes() for name in names}
    run_ok(argv)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_sigma_sweep_manifest_records_its_workers(tmp_path, synthetic_series_file, monkeypatch):
    """The manifest's count is the one the sweep's map ran with."""
    counted = []
    workers = simulation._workers

    def spy(n_tasks):
        counted.append(workers(n_tasks))
        return counted[-1]

    monkeypatch.setattr(simulation, "_workers", spy)
    out = tmp_path / "sweep"
    run_ok(["sigma-sweep", "--data", str(synthetic_series_file), "--sigmas", "1e-3,1e-4",
            *EVAL_ARGS, "--out", str(out)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert counted[0] == manifest["workers"] == workers(2 * 2)  # the first map is the sweep's


@pytest.mark.parametrize("command, mapped", [
    ("sigma-sweep", True), ("exchange-eval --dump-samples", True),
    ("exchange-eval", False), ("convergence", False), ("score", False),
])
def test_a_manifest_records_the_fork_map_of_its_run(tmp_path, synthetic_series_file, stored_case,
                                                    command, mapped):
    """A run that maps its tasks records the map's worker count and the min,
    median and max seconds of a task, within its wall time; a run that maps
    none records neither, also after a mapped run in the same process."""
    _, _, ens_path, obs_path = stored_case
    data = ["--data", str(synthetic_series_file), *EVAL_ARGS]
    argv = {
        "sigma-sweep": ["sigma-sweep", *data, "--sigmas", "1e-3,1e-4"],
        "exchange-eval --dump-samples": ["exchange-eval", *data, "--dump-samples"],
        "exchange-eval": ["exchange-eval", *data],
        "convergence": ["convergence", "--sizes", "20", "--repeats", "2"],
        "score": ["score", "--ensemble", str(ens_path), "--obs", str(obs_path)],
    }[command]
    run_ok(["sensitivity", "--n-windows", "2", "--window-size", "2",
            "--out", str(tmp_path / "grid")])
    run_ok([*argv, "--out", str(tmp_path / "run")])
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    if not mapped:
        assert "workers" not in manifest and "task_s" not in manifest
        return
    assert manifest["workers"] == simulation._workers(4 if command == "sigma-sweep" else 2)
    task_s = manifest["task_s"]
    assert list(task_s) == ["min", "median", "max"]
    assert 0 <= task_s["min"] <= task_s["median"] <= task_s["max"] <= manifest["wall_time_s"]


def test_report_csv_headers_are_the_json_row_keys(tmp_path, synthetic_series_file):
    """Each table's columns are its JSON rows' keys, in the same order; the
    JSON score rows add only the per-dimension CRPS."""
    run_ok(["convergence", "--sizes", "50", "--repeats", "2", "--out", str(tmp_path / "conv")])
    run_ok(["sensitivity", "--n-windows", "4", "--window-size", "4",
            "--out", str(tmp_path / "sens")])
    run_ok(["sigma-sweep", "--data", str(synthetic_series_file), "--sigmas", "1e-3",
            *EVAL_ARGS, "--out", str(tmp_path / "sweep")])
    run_ok(["exchange-eval", "--data", str(synthetic_series_file), *EVAL_ARGS,
            "--out", str(tmp_path / "eval")])
    tables = (
        ("conv/convergence.csv", "conv/convergence.json", lambda doc: doc["rows"][0]),
        ("sens/sensitivity.csv", "sens/sensitivity.json", lambda doc: doc["cells"][0]),
        ("sweep/sigma_sweep.csv", "sweep/sigma_sweep.json", lambda doc: doc["rows"][0]),
        ("eval/pooled_score.csv", "eval/scores.json", lambda doc: doc["pooled"]),
    )
    for csv_name, json_name, first_row in tables:
        _, header, _ = read_report_csv(tmp_path / csv_name)
        keys = list(first_row(json.loads((tmp_path / json_name).read_text())))
        assert header == [k for k in keys if k != "crps_per_dim"], csv_name


def test_sigma_sweep_reports_a_corrupt_gzip_table(tmp_path, capsys):
    table = tmp_path / "rates.csv.gz"
    table.write_text("1,2,3,4,5,6,7,8\n" * 100)  # plain text behind a .gz suffix
    assert main(["sigma-sweep", "--data", str(table), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rates.csv.gz" in err


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
    write_table(obs_path, obs)
    return ens, obs, ens_path, obs_path


def test_ensemble_csv_round_trip(stored_case):
    ens, _, ens_path, _ = stored_case
    np.testing.assert_array_equal(_read_ensemble_csv(str(ens_path)), ens)


def test_score_target_of_an_all_zero_dimension(tmp_path, rng, capsys):
    """An observed dimension of zeros has no target scale: its per-dimension
    value is written as null, with no warning on stderr."""
    ens_path, obs_path = tmp_path / "ens.csv", tmp_path / "obs.csv"
    ensemble_to_csv(rng.standard_normal((20, 3, 2)), ens_path)
    obs = rng.standard_normal((3, 2)) + 1.0
    obs[:, 1] = 0.0
    write_table(obs_path, obs)
    out = tmp_path / "score"
    run_ok(["score", "--ensemble", str(ens_path), "--obs", str(obs_path),
            "--normalize", "target", "--out", str(out)])
    assert capsys.readouterr().err == ""
    per_dim = json.loads((out / "score.json").read_text())["crps_per_dim"]
    assert per_dim[0] > 0.0 and per_dim[1] is None


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


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_score_on_a_dump_reproduces_its_split_row(tmp_path, synthetic_series,
                                                  synthetic_series_file, estimator):
    """``score`` on an ``exchange-eval`` sample dump, against that split's
    target window, writes the split's row of ``scores.csv``."""
    eval_out = tmp_path / "eval"
    run_ok(["exchange-eval", "--data", str(synthetic_series_file), "--kind", "multi",
            "--samples", "200", "--batches", "3", "--seed", "5", "--estimator", estimator,
            "--dump-samples", "--out", str(eval_out)])
    _, _, rows = read_report_csv(eval_out / "scores.csv")
    splits = make_rolling_splits(synthetic_series, n_batches=3, horizon=30, input_length=30)
    for split in splits:
        obs_path = tmp_path / f"obs_{split.split_index}.csv"
        write_table(obs_path, split.target_window)
        out = tmp_path / f"score_{split.split_index}"
        run_ok(["score", "--ensemble", str(eval_out / f"samples_split_{split.split_index}.csv"),
                "--obs", str(obs_path), "--normalize", "target", "--estimator", estimator,
                "--seed", "5", "--out", str(out)])
        _, _, (row,) = read_report_csv(out / "score.csv")
        assert [f"split_{split.split_index}", *row] == rows[split.split_index]


def test_score_rerun_is_byte_identical(tmp_path, stored_case):
    _, _, ens_path, obs_path = stored_case
    out = tmp_path / "score"
    argv = [
        "score", "--ensemble", str(ens_path), "--obs", str(obs_path),
        "--normalize", "target", "--seed", "8", "--out", str(out),
    ]
    run_ok(argv)
    first = {name: (out / name).read_bytes() for name in ("score.csv", "score.json")}
    run_ok(argv)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_score_perfect_ensemble_is_all_zero(tmp_path):
    obs = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25]])
    ens = np.broadcast_to(obs, (10, 3, 2)).copy()
    ens_path, obs_path = tmp_path / "ens.csv", tmp_path / "obs.csv"
    ensemble_to_csv(ens, ens_path)
    write_table(obs_path, obs)
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


def test_score_rejects_rows_without_exactly_four_fields(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("1.0\n")
    for row in ("0,0,0,1.0,99", "0,0,1.0"):
        dump = tmp_path / "dump.csv"
        dump.write_text(f"sample_id,t,dim,value\n{row}\n1,0,0,2.0\n")
        assert main([
            "score", "--ensemble", str(dump), "--obs", str(obs), "--out", str(tmp_path / "s"),
        ]) == 2
        assert "malformed row 2" in capsys.readouterr().err


def test_score_rejects_negative_seed(tmp_path, stored_case, capsys):
    _, _, ens_path, obs_path = stored_case
    assert main([
        "score", "--ensemble", str(ens_path), "--obs", str(obs_path),
        "--seed", "-5", "--out", str(tmp_path / "s"),
    ]) == 2
    assert "--seed: must be non-negative" in capsys.readouterr().err


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
# sample dumps: the bulk write and read against csv.writer and the row loop
# ---------------------------------------------------------------------------

def _csv_writer_dump(ens, path):
    """The dump as ``csv.writer`` wrote it, row by row: the reference bytes."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "t", "dim", "value"])
        for s in range(ens.shape[0]):
            for t in range(ens.shape[1]):
                for d in range(ens.shape[2]):
                    writer.writerow([s, t, d, repr(float(ens[s, t, d]))])


EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-25, 1e25, 0.1, 1 / 3])


def _mixed_values(shape, seed):
    """Edge values and normals scaled by 10**k, k in [-300, 300]."""
    gen = np.random.default_rng(seed)
    values = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 301, shape)
    flat = values.reshape(-1)
    flat[: EDGE_VALUES.size] = EDGE_VALUES[: flat.size]
    return values


# Chunks of 2**14 values: (683, 3, 8) is one sample past the first chunk,
# (2000, 3, 8) spans three chunk boundaries.
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3000, 2), (5000, 1, 1), (2000, 3, 8),
                                   (683, 3, 8), (3, 0, 2), (0, 2, 2)])
def test_ensemble_dump_bytes_match_csv_writer(tmp_path, shape):
    ens = _mixed_values(shape, seed=sum(shape))
    ensemble_to_csv(ens, tmp_path / "bulk.csv")
    _csv_writer_dump(ens, tmp_path / "reference.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 30), st.integers(1, 5), st.integers(1, 4)),
       chunk=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_ensemble_dump_bytes_match_csv_writer_across_chunks(tmp_path, monkeypatch,
                                                            shape, chunk, seed):
    """Small chunks put many chunk boundaries inside small ensembles."""
    monkeypatch.setattr(forecasters, "_CHUNK", chunk)
    ens = _mixed_values(shape, seed)
    ensemble_to_csv(ens, tmp_path / "bulk.csv")
    _csv_writer_dump(ens, tmp_path / "reference.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1), pad=st.sampled_from(["", " ", "\t", "  "]),
       line_end=st.sampled_from(["\r\n", "\n", "\r"]))
def test_bulk_dump_read_matches_row_loop(tmp_path, shape, seed, pad, line_end):
    """Shuffled rows, padded fields and any line end: the bulk pass takes the
    dump and returns the row loop's array bit for bit."""
    gen = np.random.default_rng(seed)
    ens = _mixed_values(shape, seed)
    ens.reshape(-1)[gen.integers(0, ens.size)] = np.nan
    cells = [(s, t, d) for s in range(shape[0]) for t in range(shape[1]) for d in range(shape[2])]
    rows = [f"{pad}{s}{pad},{t}{pad},{pad}{d},{pad}{float(ens[s, t, d])!r}{pad}"
            for s, t, d in (cells[i] for i in gen.permutation(len(cells)))]
    path = tmp_path / "dump.csv"
    path.write_bytes(line_end.join(["sample_id,t,dim,value", *rows, ""]).encode("ascii"))
    bulk = _bulk_ensemble(path.read_bytes())
    assert bulk is not None
    assert bulk.tobytes() == _dump_rows(path.read_bytes()).tobytes()
    assert bulk.tobytes() == ens.tobytes()
    assert _read_ensemble_csv(str(path)).tobytes() == bulk.tobytes()


def _score_dump(tmp_path, text):
    dump, obs = tmp_path / "dump.csv", tmp_path / "obs.csv"
    dump.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    obs.write_text("1.0\n")
    return main(["score", "--ensemble", str(dump), "--obs", str(obs),
                 "--out", str(tmp_path / "s")])


HEADER = "sample_id,t,dim,value\r\n"


@pytest.mark.parametrize("body, message", [
    ("0,0,0,1.0\r\n\r\n1,0,0,2.0\r\n", "malformed row 3: []"),  # blank line
    ("0,0,0,1.0\r\n#1,0,0,2.0\r\n", "malformed row 3: ['#1', '0', '0', '2.0']"),
    ("0,0,0,1.0\r\n1.0,0,0,2.0\r\n", "malformed row 3: ['1.0', '0', '0', '2.0']"),
    ("0,0,0\r\n1,0,0\r\n", "malformed row 2: ['0', '0', '0']"),
    ("0,0,0,1.0,9\r\n1,0,0,2.0,9\r\n", "malformed row 2: ['0', '0', '0', '1.0', '9']"),
    ("0,0,0,1.0\r\n0,0,0,2.0\r\n", "negative or repeated index in row 3: ['0', '0', '0', '2.0']"),
    ("0,0,0,1.0\r\n1_0,0,0,2.0\r\n",  # int() reads 1_0 as 10
     "expected 11 complete rows (11 samples x 1 steps x 1 dims), found 2"),
    ("", "no data rows"),
])
def test_dump_rejections_keep_the_row_loop_message(tmp_path, capsys, body, message):
    assert _score_dump(tmp_path, HEADER + body) == 2
    assert capsys.readouterr().err == f"error: --ensemble: {message}\n"


def test_a_dump_field_over_the_csv_limit_names_its_row(tmp_path, capsys):
    """A field longer than ``csv.field_size_limit()`` in a dump that the bulk
    pass refuses is one error line naming the row, and no --out is left."""
    limit = csv.field_size_limit()
    body = '"0",0,0,1.0\r\n"1",0,0,' + "1" * (limit + 1) + "\r\n"
    assert _score_dump(tmp_path, HEADER + body) == 2
    assert capsys.readouterr().err == (
        f"error: --ensemble: row 3: field larger than field limit ({limit})\n"
    )
    assert not (tmp_path / "s").exists()


def test_dump_accepts_what_the_row_loop_accepts(tmp_path):
    """Quoted fields and Unicode digits pass int() and float(), not loadtxt."""
    dump = tmp_path / "dump.csv"
    dump.write_text(HEADER + '"0",0,0,"1.5"\r\n\u0661,0,0,\u0662.5\r\n', encoding="utf-8")
    assert _bulk_ensemble(dump.read_bytes()) is None
    np.testing.assert_array_equal(_read_ensemble_csv(str(dump)), [[[1.5]], [[2.5]]])


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    """A table and a dump that the bulk passes refuse are read once: their
    row loops parse the bytes the bulk pass had."""
    table, dump = tmp_path / "t.csv", tmp_path / "dump.csv"
    table.write_text("1_0,2\n \t\n3,4.5\n")
    dump.write_text(HEADER + '"0",0,0,"1.5"\r\n1,0,0,2.5\r\n', encoding="utf-8")
    opened, real_open = [], io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == tmp_path:
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    np.testing.assert_array_equal(load_multivariate_csv(table).values, [[10.0, 2.0], [3.0, 4.5]])
    assert opened == ["t.csv"]
    np.testing.assert_array_equal(_read_ensemble_csv(str(dump)), [[[1.5]], [[2.5]]])
    assert opened == ["t.csv", "dump.csv"]


def test_sparse_dump_is_rejected_without_allocating_its_array(tmp_path, capsys):
    text = HEADER + "0,0,0,1.0\r\n1000000000,0,0,2.0\r\n"
    tracemalloc.start()
    try:
        assert _score_dump(tmp_path, text) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("error: --ensemble: expected 1000000001 complete rows "
            "(1000000001 samples x 1 steps x 1 dims), found 2") in capsys.readouterr().err
    assert peak < 8e6


def test_dump_with_a_byte_outside_utf8_names_the_row(tmp_path, capsys):
    body = b"0,0,0,1.0\r\n1,0,0,2.0\xff\r\n"
    assert _score_dump(tmp_path, HEADER.encode("ascii") + body) == 2
    assert capsys.readouterr().err == "error: --ensemble: row 3: byte 0xff is not UTF-8\n"


def test_table_with_a_byte_outside_ascii_names_file_and_row(tmp_path, stored_case, capsys):
    _, _, ens_path, _ = stored_case
    obs = tmp_path / "obs.csv"
    obs.write_text("1.0,2.0\n3.0,4.0\u00e9\n", encoding="utf-8")
    assert main(["score", "--ensemble", str(ens_path), "--obs", str(obs),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: --obs: {obs}: row 2: byte 0xc3 is not ASCII\n"


@pytest.mark.parametrize("command, message", [
    ("score", "--obs: row 2, column 2: could not parse 'x' as a number"),
    ("exchange-eval", "--data: row 1: expected 8 columns, found 2"),
    ("sigma-sweep", "--data: row 1: expected 8 columns, found 2"),
])
def test_a_malformed_table_names_its_flag(tmp_path, stored_case, capsys, command, message):
    """A table that does not parse is named by its flag, as a bad dump is."""
    _, _, ens_path, _ = stored_case
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    inputs = (["--ensemble", str(ens_path), "--obs", str(bad)] if command == "score"
              else ["--data", str(bad)])
    out = tmp_path / "out"
    assert main([command, *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_dump_write_memory_is_bounded(tmp_path):
    """The writer peaks at ~0.6 MB at any ensemble size.  Its text (~18 MB
    here) formatted whole, or its values listed up front (~4 MB), exceed
    the bound."""
    ens = np.random.default_rng(0).standard_normal((500, 30, 8))
    tracemalloc.start()
    try:
        ensemble_to_csv(ens, tmp_path / "dump.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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
    assert proc.stdout.strip() == f"scorecast {__version__} (git describe: {artifact_version()})"


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=cwd, check=True, capture_output=True,
    )


def test_reports_do_not_depend_on_the_checkout(tmp_path, stored_case):
    """Reports are the same bytes from a clean git copy, a dirty one and a
    non-git copy; only the manifest's git_describe tells them apart."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    _, _, ens_path, obs_path = stored_case
    src = Path(scorecast.__file__).resolve().parent
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    for root in (repo, plain):
        shutil.copytree(src, root / "src" / "scorecast",
                        ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "NOTES").write_text("tracked\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "copy")

    out = tmp_path / "out"
    runs = (
        ["convergence", "--sizes", "50", "--repeats", "2", "--seed", "3",
         "--out", str(out / "convergence")],
        ["score", "--ensemble", str(ens_path), "--obs", str(obs_path), "--estimator",
         "sample", "--seed", "4", "--out", str(out / "score")],
    )

    def reports(root):
        # The ceiling keeps git from finding a repository above tmp_path.
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "GIT_CEILING_DIRECTORIES": str(tmp_path)}
        for argv in runs:
            subprocess.run([sys.executable, "-m", "scorecast", *argv],
                           cwd=root, env=env, check=True, capture_output=True)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "run_manifest.json"}
        describe = json.loads((out / "score" / "run_manifest.json").read_text())["git_describe"]
        return files, describe

    clean, clean_describe = reports(repo)
    (repo / "NOTES").write_text("edited\n")
    dirty, dirty_describe = reports(repo)
    non_git, non_git_describe = reports(plain)

    assert len(clean) == 4
    assert clean == dirty == non_git
    # The copies really differ as checkouts, and each ran its own package.
    assert not clean_describe.endswith("-dirty") and clean_describe != f"v{__version__}"
    assert dirty_describe == clean_describe + "-dirty"
    assert non_git_describe == f"v{__version__}"
