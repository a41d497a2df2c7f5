"""Command-line harness.

Subcommands
-----------
convergence    CRPS estimator convergence benchmark on a known Gaussian
sensitivity    correlation sensitivity grid for CRPS-Sum and Energy Score
exchange-eval  dummy-forecaster audit on the daily exchange-rate table
sigma-sweep    dummy-forecaster scores across noise scales
score          score a stored ensemble against stored observations

Configuration precedence: command-line flags > --config JSON file > built-in
defaults.  Environment variables are never consulted.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, forecasters, reporting, simulation
from ._rowloop import dump_rows
from .data import _loadtxt, _plain_lines, load_exchange_rate, load_multivariate_csv, make_rolling_splits
from .multivariate import ESTIMATORS, NORMALIZATION_MODES, ScoreReport, score_report

KIND_ALIASES = {"uni": "univariate", "multi": "multivariate"}


class CliError(Exception):
    """User-facing configuration or input error (exit code 2)."""


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------

def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"--config: file not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"--config: {p} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CliError(f"--config: {p} must contain a JSON object")
    return payload


def _merge_config(defaults: dict, config_file: dict, cli_args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly passed flags."""
    effective = dict(defaults)
    for key, value in config_file.items():
        norm = key.replace("-", "_")
        if norm not in defaults:
            raise CliError(
                f"--config: unknown option {key!r}; allowed: {sorted(defaults)}"
            )
        effective[norm] = value
    for key in defaults:
        value = getattr(cli_args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _parse_number_list(text, kind=float, flag="--sizes"):
    tokens = text if isinstance(text, (list, tuple)) else [
        tok for tok in str(text).split(",") if tok.strip()
    ]
    try:
        values = [kind(tok) for tok in tokens]
    except ValueError:
        raise CliError(f"{flag}: could not parse {text!r} as comma-separated numbers") from None
    if not values:
        raise CliError(f"{flag}: expected at least one number")
    return values


def _out_dir(effective: dict) -> Path:
    out = Path(effective["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_choice(value: str, allowed: Sequence[str], flag: str) -> str:
    if value not in allowed:
        raise CliError(f"{flag}: invalid value {value!r}; allowed: {sorted(allowed)}")
    return value


def _check_seed(effective: dict) -> int:
    try:
        seed = int(effective["seed"])
    except (TypeError, ValueError):
        raise CliError(f"--seed: expected an integer, got {effective['seed']!r}") from None
    if seed < 0:
        raise CliError("--seed: must be non-negative")
    return seed


def _emit(
    out: Path,
    command: str,
    config_echo: dict,
    seed: Optional[int],
    started: float,
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence]]],
    documents: dict[str, dict],
) -> float:
    """Write a run's CSV tables and JSON documents, then its manifest.

    ``tables`` maps file names to (columns, rows), ``documents`` maps file
    names to JSON payloads.  Returns the wall time since ``started``, taken
    after the reports are written and recorded in the manifest.
    """
    for name, (columns, rows) in tables.items():
        reporting.write_csv(out / name, columns, rows, meta={"seed": seed, "config": config_echo})
    for name, payload in documents.items():
        reporting.write_json(out / name, payload, config=config_echo)
    wall = time.perf_counter() - started
    reporting.write_manifest(out / "run_manifest.json", command, config_echo, seed, wall)
    return wall


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_convergence(args: argparse.Namespace) -> int:
    defaults = {
        "seed": 0,
        "sizes": simulation.DEFAULT_SAMPLE_SIZES,
        "n_quantiles": "20",
        "repeats": 50,
        "out": "runs/convergence",
    }
    effective = _merge_config(defaults, _load_config_file(args.config), args)
    seed = _check_seed(effective)
    sizes = _parse_number_list(effective["sizes"], int, "--sizes")
    quantile_counts = _parse_number_list(effective["n_quantiles"], int, "--n-quantiles")
    repeats = int(effective["repeats"])

    started = time.perf_counter()
    report = simulation.run_convergence_study(
        sample_sizes=sizes, n_quantiles=quantile_counts, repeats=repeats, seed=seed
    )

    out = _out_dir(effective)
    config_echo = {**effective, "sizes": sizes, "n_quantiles": quantile_counts}
    wall = _emit(
        out, "convergence", config_echo, seed, started,
        {"convergence.csv": reporting.table(simulation.ConvergenceRow, report.rows)},
        {"convergence.json": asdict(report)},
    )

    print(f"convergence: {len(report.rows)} rows -> {out} ({wall:.1f}s)")
    analytic = 0.23369497725510105
    for r in report.rows:
        print(
            f"  {r.estimator:<9} S={r.sample_size:<6} N={r.n_quantiles or '-':<5}"
            f" mean={r.mean:.6f} (analytic {analytic:.4f}) std={r.std:.6f}"
        )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    defaults = {
        "seed": 0,
        "scale": "desk",
        "n_windows": None,
        "window_size": None,
        "n_quantiles": 20,
        "out": "runs/sensitivity",
    }
    effective = _merge_config(defaults, _load_config_file(args.config), args)
    seed = _check_seed(effective)
    scale = _check_choice(effective["scale"], tuple(simulation.SCALES), "--scale")

    config = simulation.SensitivityConfig(
        n_windows=effective["n_windows"],
        window_size=effective["window_size"],
        seed=seed,
        scale=scale,
        n_quantiles=int(effective["n_quantiles"]),
    )
    started = time.perf_counter()
    report = simulation.run_sensitivity_grid(config)

    out = _out_dir(effective)
    config_echo = asdict(config) | {"out": str(effective["out"])}
    wall = _emit(
        out, "sensitivity", config_echo, seed, started,
        {"sensitivity.csv": reporting.table(simulation.GridCell, report.cells)},
        {"sensitivity.json": asdict(report)},
    )

    print(
        f"sensitivity: {len(report.cells)} cells "
        f"({config.n_windows} windows x {config.window_size} ensemble) -> {out} ({wall:.1f}s)"
    )
    return 0


def _eval_defaults() -> dict:
    return {
        "seed": 0,
        "data": None,
        "kind": "multi",
        "sigma": 1e-4,
        "samples": 400,
        "estimator": "quantile",
        "n_quantiles": 20,
        "normalize": "target",
        "batches": 5,
        "horizon": 30,
        "input_length": 30,
        "out": "runs/exchange-eval",
        "dump_samples": False,
    }


def _load_splits(effective: dict):
    if not effective["data"]:
        raise CliError("--data: path to the exchange-rate CSV is required")
    series = load_exchange_rate(effective["data"])
    return series, make_rolling_splits(
        series,
        n_batches=int(effective["batches"]),
        horizon=int(effective["horizon"]),
        input_length=int(effective["input_length"]),
    )


def _scoring_options(effective: dict) -> tuple[str, int, str, str]:
    estimator = _check_choice(effective["estimator"], tuple(ESTIMATORS), "--estimator")
    normalize = _check_choice(effective["normalize"], NORMALIZATION_MODES, "--normalize")
    kind = effective["kind"]
    kind = KIND_ALIASES.get(kind, kind)
    _check_choice(kind, forecasters.DUMMY_KINDS, "--kind")
    return estimator, int(effective["n_quantiles"]), normalize, kind


def _cmd_exchange_eval(args: argparse.Namespace) -> int:
    effective = _merge_config(_eval_defaults(), _load_config_file(args.config), args)
    seed = _check_seed(effective)
    estimator, n_quantiles, normalize, kind = _scoring_options(effective)

    started = time.perf_counter()
    series, splits = _load_splits(effective)
    cfg = forecasters.DummyConfig(
        kind=kind, sigma=float(effective["sigma"]),
        n_samples=int(effective["samples"]), seed=seed,
    )
    ensembles, per_split, pooled = forecasters.forecast_and_score_splits(
        splits, cfg, estimator=estimator, n_quantiles=n_quantiles, normalization=normalize
    )

    out = _out_dir(effective)
    config_echo = {**effective, "kind": kind, "seed": seed, "series_rows": series.length}
    labeled = [(f"split_{r.split_index}", rep) for r, rep in zip(splits, per_split)]
    if effective["dump_samples"]:
        for split, ens in zip(splits, ensembles):
            forecasters.ensemble_to_csv(ens, out / f"samples_split_{split.split_index}.csv")
    wall = _emit(
        out, "exchange-eval", config_echo, seed, started,
        {
            "scores.csv": (("split", *ScoreReport.CSV_COLUMNS),
                           [(label, *rep.csv_row())
                            for label, rep in [*labeled, ("pooled", pooled)]]),
            "pooled_score.csv": (ScoreReport.CSV_COLUMNS, [pooled.csv_row()]),
        },
        {"scores.json": {"splits": {label: rep.to_dict() for label, rep in labeled},
                         "pooled": pooled.to_dict()}},
    )

    print(f"exchange-eval[{kind}]: {len(splits)} splits -> {out} ({wall:.1f}s)")
    print(
        f"  pooled ({pooled.normalization_mode}): crps_sum={pooled.crps_sum:.6f} "
        f"crps={pooled.crps_aggregate:.6f} es={pooled.energy_score:.6f}"
    )
    return 0


def _cmd_sigma_sweep(args: argparse.Namespace) -> int:
    defaults = _eval_defaults() | {
        "sigmas": forecasters.DEFAULT_SIGMA_LIST,
        "out": "runs/sigma-sweep",
    }
    defaults.pop("sigma")
    defaults.pop("dump_samples")
    effective = _merge_config(defaults, _load_config_file(args.config), args)
    seed = _check_seed(effective)
    estimator, n_quantiles, normalize, kind = _scoring_options(effective)
    sigmas = _parse_number_list(effective["sigmas"], float, "--sigmas")

    started = time.perf_counter()
    series, splits = _load_splits(effective)
    rows = forecasters.sigma_sweep(
        kind, sigmas, splits, n_samples=int(effective["samples"]), seed=seed,
        estimator=estimator, n_quantiles=n_quantiles, normalization=normalize,
    )

    out = _out_dir(effective)
    config_echo = {**effective, "kind": kind, "seed": seed, "sigmas": sigmas,
                   "series_rows": series.length}
    wall = _emit(
        out, "sigma-sweep", config_echo, seed, started,
        {"sigma_sweep.csv": reporting.table(forecasters.SigmaSweepRow, rows)},
        {"sigma_sweep.json": {"rows": [asdict(r) for r in rows]}},
    )

    print(f"sigma-sweep[{kind}]: {len(rows)} noise scales -> {out} ({wall:.1f}s)")
    return 0


_DUMP_HEADER = ["sample_id", "t", "dim", "value"]
_DUMP_ROW = np.dtype([("s", np.int64), ("t", np.int64), ("d", np.int64), ("v", np.float64)])


def _bulk_ensemble(data: bytes) -> Optional[np.ndarray]:
    """The dump's (S, H, D) array from one ``np.loadtxt`` pass, or None where
    the pass or a whole-array check refuses it."""
    lines = _plain_lines(data)
    if not lines or [h.strip() for h in lines[0].split(",")] != _DUMP_HEADER:
        return None
    rows = _loadtxt(lines[1:], _DUMP_ROW, ndmin=1)
    # loadtxt skips blank lines, which the row loop rejects.
    if rows is None or len(rows) != len(lines) - 1:
        return None
    index = (rows["s"], rows["t"], rows["d"])
    if min(int(i.min()) for i in index) < 0:
        return None
    shape = tuple(int(i.max()) + 1 for i in index)
    if shape[0] * shape[1] * shape[2] != len(rows):
        return None
    # A full count of in-range indices fills every cell once unless one repeats.
    flat = np.ravel_multi_index(index, shape)
    seen = np.zeros(len(rows), dtype=bool)
    seen[flat] = True
    if not seen.all():
        return None
    out = np.empty(shape)
    out.reshape(-1)[flat] = rows["v"]
    return out


def _read_ensemble_csv(path: str) -> np.ndarray:
    """Read a sample dump (sample_id, t, dim, value) back into (S, H, D).

    Rows may come in any order.  A dump that the bulk pass refuses is read
    row by row, which returns the same array or names the bad row.
    """
    p = Path(path)
    if not p.exists():
        raise CliError(f"--ensemble: file not found: {p}")
    ensemble = _bulk_ensemble(p.read_bytes())
    if ensemble is None:
        try:
            ensemble = dump_rows(p)
        except ValueError as exc:
            raise CliError(f"--ensemble: {exc}") from None
    return ensemble


def _cmd_score(args: argparse.Namespace) -> int:
    defaults = {
        "seed": None,
        "ensemble": None,
        "obs": None,
        "estimator": "quantile",
        "n_quantiles": 20,
        "normalize": "raw",
        "beta": 1.0,
        "out": "runs/score",
    }
    effective = _merge_config(defaults, _load_config_file(args.config), args)
    estimator = _check_choice(effective["estimator"], tuple(ESTIMATORS), "--estimator")
    normalize = _check_choice(effective["normalize"], NORMALIZATION_MODES, "--normalize")
    if not effective["ensemble"]:
        raise CliError("--ensemble: path to a sample-dump CSV is required")
    if not effective["obs"]:
        raise CliError("--obs: path to a headerless observation CSV is required")

    started = time.perf_counter()
    ensemble = _read_ensemble_csv(effective["ensemble"])
    obs = load_multivariate_csv(effective["obs"]).values
    seed = None if effective["seed"] is None else _check_seed(effective)
    try:
        report = score_report(
            ensemble, obs,
            estimator=estimator, n_quantiles=int(effective["n_quantiles"]),
            beta=float(effective["beta"]), normalization=normalize, seed=seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None

    out = _out_dir(effective)
    _emit(
        out, "score", dict(effective), seed, started,
        {"score.csv": (ScoreReport.CSV_COLUMNS, [report.csv_row()])},
        {"score.json": report.to_dict()},
    )

    print(
        f"score ({report.normalization_mode}): crps_sum={report.crps_sum:.6f} "
        f"crps={report.crps_aggregate:.6f} es={report.energy_score:.6f} -> {out}"
    )
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorecast",
        description="Probabilistic forecast scoring and evaluation studies.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__} (git describe: {reporting.artifact_version()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with option overrides")
        p.add_argument("--seed", type=int, help="master random seed (default 0)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("convergence", help="CRPS estimator convergence benchmark")
    add_common(p)
    p.add_argument("--sizes", help="comma-separated sample sizes (default 200,...,5000)")
    p.add_argument("--n-quantiles", dest="n_quantiles",
                   help="comma-separated quantile counts for the quantile estimator")
    p.add_argument("--repeats", type=int, help="seeds per configuration (default 50)")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("sensitivity", help="correlation sensitivity grid")
    add_common(p)
    p.add_argument("--scale", choices=tuple(simulation.SCALES),
                   help="experiment scale: desk=2^12x2^7, paper=2^14x2^9")
    p.add_argument("--n-windows", dest="n_windows", type=int,
                   help="override experiments per cell")
    p.add_argument("--window-size", dest="window_size", type=int,
                   help="override ensemble size per experiment")
    p.add_argument("--n-quantiles", dest="n_quantiles", type=int,
                   help="quantile count for CRPS-Sum (default 20)")
    p.set_defaults(func=_cmd_sensitivity)

    def add_eval_options(p, with_sigma: bool):
        p.add_argument("--data", help="path to the exchange-rate CSV (required)")
        p.add_argument("--kind", choices=tuple(KIND_ALIASES) + forecasters.DUMMY_KINDS,
                       help="dummy forecaster kind (default multi)")
        if with_sigma:
            p.add_argument("--sigma", type=float, help="noise scale (default 1e-4)")
        p.add_argument("--samples", type=int, help="ensemble size (default 400)")
        p.add_argument("--estimator", choices=tuple(ESTIMATORS),
                       help="univariate CRPS estimator (default quantile)")
        p.add_argument("--n-quantiles", dest="n_quantiles", type=int,
                       help="quantile count (default 20)")
        p.add_argument("--normalize", choices=NORMALIZATION_MODES,
                       help="score normalization (default target)")
        p.add_argument("--batches", type=int, help="number of tail splits (default 5)")
        p.add_argument("--horizon", type=int, help="steps per split (default 30)")
        p.add_argument("--input-length", dest="input_length", type=int,
                       help="conditioning rows per split (default 30)")

    p = sub.add_parser("exchange-eval", help="dummy-forecaster audit on exchange rates")
    add_common(p)
    add_eval_options(p, with_sigma=True)
    p.add_argument("--dump-samples", dest="dump_samples", action="store_const", const=True,
                   help="also write per-split ensemble sample dumps")
    p.set_defaults(func=_cmd_exchange_eval)

    p = sub.add_parser("sigma-sweep", help="dummy scores across noise scales")
    add_common(p)
    add_eval_options(p, with_sigma=False)
    p.add_argument("--sigmas", help="comma-separated noise scales (default 1e-1..1e-20)")
    p.set_defaults(func=_cmd_sigma_sweep)

    p = sub.add_parser("score", help="score a stored ensemble against observations")
    add_common(p)
    p.add_argument("--ensemble", help="sample-dump CSV (sample_id,t,dim,value)")
    p.add_argument("--obs", help="headerless observation CSV (one row per step)")
    p.add_argument("--estimator", choices=tuple(ESTIMATORS))
    p.add_argument("--n-quantiles", dest="n_quantiles", type=int)
    p.add_argument("--normalize", choices=NORMALIZATION_MODES)
    p.add_argument("--beta", type=float, help="energy score exponent in (0,2)")
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
