"""Command-line harness.

Subcommands
-----------
convergence    CRPS estimator convergence benchmark on a known Gaussian
sensitivity    correlation sensitivity grid for CRPS-Sum and Energy Score
exchange-eval  dummy-forecaster audit on the daily exchange-rate table
sigma-sweep    dummy-forecaster scores across noise scales
score          score a stored ensemble against stored observations

Each option is declared once, in ``COMMANDS``, as (converter, default, help);
that table builds the subparsers and the defaults that ``--help`` shows.
Every value passes once through its option's converter, whether it is a
flag's text, a ``--config`` file's JSON value or the default, so a config
value is accepted exactly when the same value given as the flag is, and gives
the same effective value.  A JSON null is accepted only where the default is
null, and there it means "not given".

Configuration precedence: command-line flags > --config JSON file > built-in
defaults.  Environment variables are never consulted.

Each command returns its reports, as a ``_Run``, and writes none of them.
``main`` alone makes --out, runs the command, writes the sample dumps (over
one worker per CPU, ``simulation._fork_map``), the reports and
``run_manifest.json`` (with the run's ``_last_map``), and prints the summary;
a run that fails removes the directories it made and left empty.  The files of a run are
written whole: each goes to a temporary file beside its target, and only
when every one is written are they renamed into place, so a failed write
leaves the previous run's files as they were.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, data, forecasters, reporting, simulation
from .crps import ESTIMATORS, crps_gaussian_analytic
from .data import load_ensemble_csv, load_exchange_rate, load_multivariate_csv, make_rolling_splits
from .multivariate import NORMALIZATION_MODES, ScoreReport, score_report


class CliError(Exception):
    """User-facing configuration or input error (exit code 2)."""


# --------------------------------------------------------------------------
# options: converters (a flag's text or a config file's JSON value -> typed)
# and the config file
# --------------------------------------------------------------------------

def _text(value) -> str:
    """A value as its flag's text: a JSON number, boolean or null is spelt as in JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def _number(kind, noun):
    def number(value):
        try:
            return kind(_text(value))
        except ValueError:
            raise ValueError(f"expected {noun}, got {_text(value)!r}") from None
    return number


_integer, _real = _number(int, "an integer"), _number(float, "a number")


def _seed(value) -> int:
    seed = _integer(value)
    if seed < 0:
        raise ValueError("must be non-negative")
    return seed


def _numbers(convert):
    """A list of ``convert`` values: comma-separated flag text or a JSON list."""
    def numbers(value) -> list:
        tokens = [_text(tok) for tok in (value if isinstance(value, (list, tuple))
                                         else _text(value).split(","))]
        values = [convert(tok) for tok in tokens if tok.strip()]
        if not values:
            raise ValueError("expected at least one number")
        return values
    return numbers


@dataclass
class _Choice:
    """One of ``choices`` (argparse checks a flag against them); an alias
    resolves to the name the library takes."""
    choices: tuple[str, ...]
    aliases: dict[str, str] = field(default_factory=dict)

    def __call__(self, value) -> str:
        text = _text(value)
        if text not in self.choices:
            raise ValueError(f"invalid choice {text!r} (choose from {', '.join(self.choices)})")
        return self.aliases.get(text, text)


def _switch(value) -> bool:
    """A flag without a value; in a config file, a JSON boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {json.dumps(value)}")
    return value


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a path, got {json.dumps(value)}")
    return value


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)

    def members(pairs: list) -> dict:  # of one JSON object, each option at most once
        names = [key.replace("-", "_") for key, _ in pairs]
        for name in names:
            if names.count(name) > 1:
                raise CliError(f"--config: {p} gives {_flag(name)} twice")
        return dict(pairs)

    try:
        payload = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=members)
    except OSError as exc:
        raise CliError(f"--config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"--config: {p}: byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"--config: {p} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CliError(f"--config: {p} must contain a JSON object")
    return payload


def _effective(options: dict, args: argparse.Namespace) -> dict:
    """Every option's flag, else config-file value, else default, converted."""
    config = {}
    for key, value in _load_config_file(args.config).items():
        name = key.replace("-", "_")
        if name not in options:
            raise CliError(f"--config: unknown option {key!r}; allowed: {sorted(options)}")
        config[name] = value
    effective = {}
    for name, (convert, default, _) in options.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name, default)
        try:
            effective[name] = None if value is None and default is None else convert(value)
        except ValueError as exc:
            raise CliError(f"{_flag(name)}: {exc}") from None
    return effective


def _read(flag: str, read, path):
    """``read(path)``; an OSError, such as a directory given as a file, or a
    ValueError, such as a malformed row, names the flag."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"{flag}: {exc}") from None


@dataclass
class _Run:
    """What a command returns: ``main`` writes its reports and prints its summary."""
    config: dict  # the config echo; its "seed" is the run's seed
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence]]]  # CSV file -> (columns, rows)
    documents: dict[str, dict]  # JSON file -> payload
    summary: str  # printed as "<summary> -> <out> (<wall>s)"
    details: list[str] = field(default_factory=list)  # printed under the summary
    dumps: dict[str, np.ndarray] = field(default_factory=dict)  # sample dump file -> ensemble


# --------------------------------------------------------------------------
# subcommands: each takes the typed options, in config-echo order, and
# writes nothing
# --------------------------------------------------------------------------

def _cmd_convergence(effective: dict) -> _Run:
    report = simulation.run_convergence_study(
        sample_sizes=effective["sizes"], n_quantiles=effective["n_quantiles"],
        repeats=effective["repeats"], seed=effective["seed"],
    )
    analytic = crps_gaussian_analytic(0.0, 1.0, 0.0)
    return _Run(
        effective,
        {"convergence.csv": reporting.table(simulation.ConvergenceRow, report.rows)},
        {"convergence.json": asdict(report)},
        f"convergence: {len(report.rows)} rows",
        [f"  {r.estimator:<9} S={r.sample_size:<6} N={r.n_quantiles or '-':<5}"
         f" mean={r.mean:.6f} (analytic {analytic:.4f}) std={r.std:.6f}"
         for r in report.rows],
    )


def _cmd_sensitivity(effective: dict) -> _Run:
    # Every option but --out is a SensitivityConfig field.
    config = simulation.SensitivityConfig(**{k: v for k, v in effective.items() if k != "out"})
    report = simulation.run_sensitivity_grid(config)
    return _Run(
        asdict(config) | {"out": effective["out"]},
        {"sensitivity.csv": reporting.table(simulation.GridCell, report.cells)},
        {"sensitivity.json": asdict(report)},
        f"sensitivity: {len(report.cells)} cells "
        f"({config.n_windows} windows x {config.window_size} ensemble)",
    )


def _load_splits(effective: dict):
    if effective["data"] is None:
        raise CliError("--data: path to the exchange-rate CSV is required")
    series = _read("--data", load_exchange_rate, effective["data"])
    return series, make_rolling_splits(
        series,
        n_batches=effective["batches"],
        horizon=effective["horizon"],
        input_length=effective["input_length"],
    )


def _cmd_exchange_eval(effective: dict) -> _Run:
    cfg = forecasters.DummyConfig(
        kind=effective["kind"], sigma=effective["sigma"],
        n_samples=effective["samples"], seed=effective["seed"],
    )
    series, splits = _load_splits(effective)
    ensembles, per_split, pooled = forecasters.forecast_and_score_splits(
        splits, cfg, estimator=effective["estimator"], n_quantiles=effective["n_quantiles"],
        normalization=effective["normalize"],
    )

    labeled = [(f"split_{r.split_index}", rep) for r, rep in zip(splits, per_split)]
    dumps = {f"samples_split_{split.split_index}.csv": ens
             for split, ens in zip(splits, ensembles)} if effective["dump_samples"] else {}
    return _Run(
        effective | {"series_rows": series.length},
        {
            "scores.csv": (("split", *ScoreReport.CSV_COLUMNS),
                           [(label, *rep.csv_row())
                            for label, rep in [*labeled, ("pooled", pooled)]]),
            "pooled_score.csv": (ScoreReport.CSV_COLUMNS, [pooled.csv_row()]),
        },
        {"scores.json": {"splits": {label: rep.to_dict() for label, rep in labeled},
                         "pooled": pooled.to_dict()}},
        f"exchange-eval[{cfg.kind}]: {len(splits)} splits",
        [f"  pooled ({pooled.normalization_mode}): crps_sum={pooled.crps_sum:.6f} "
         f"crps={pooled.crps_aggregate:.6f} es={pooled.energy_score:.6f}"],
        dumps=dumps,
    )


def _cmd_sigma_sweep(effective: dict) -> _Run:
    series, splits = _load_splits(effective)
    rows = forecasters.sigma_sweep(
        effective["kind"], effective["sigmas"], splits, n_samples=effective["samples"],
        seed=effective["seed"], estimator=effective["estimator"],
        n_quantiles=effective["n_quantiles"], normalization=effective["normalize"],
    )
    return _Run(
        effective | {"series_rows": series.length},
        {"sigma_sweep.csv": reporting.table(forecasters.SigmaSweepRow, rows)},
        {"sigma_sweep.json": {"rows": [asdict(r) for r in rows]}},
        f"sigma-sweep[{effective['kind']}]: {len(rows)} noise scales",
    )


def _read_ensemble_csv(path: str) -> np.ndarray:
    """The (S, H, D) ensemble of the --ensemble dump; any failure is a CliError."""
    return _read("--ensemble", load_ensemble_csv, path)


def _cmd_score(effective: dict) -> _Run:
    if effective["ensemble"] is None:
        raise CliError("--ensemble: path to a sample-dump CSV is required")
    if effective["obs"] is None:
        raise CliError("--obs: path to a headerless observation CSV is required")

    ensemble = _read_ensemble_csv(effective["ensemble"])
    obs = _read("--obs", load_multivariate_csv, effective["obs"]).values
    report = score_report(
        ensemble, obs,
        estimator=effective["estimator"], n_quantiles=effective["n_quantiles"],
        beta=effective["beta"], normalization=effective["normalize"], seed=effective["seed"],
    )
    return _Run(
        effective,
        {"score.csv": (ScoreReport.CSV_COLUMNS, [report.csv_row()])},
        {"score.json": report.to_dict()},
        f"score ({report.normalization_mode}): crps_sum={report.crps_sum:.6f} "
        f"crps={report.crps_aggregate:.6f} es={report.energy_score:.6f}",
    )


# --------------------------------------------------------------------------
# options and parser
# --------------------------------------------------------------------------

_SEED = (_seed, 0, "master random seed")
_ESTIMATOR = (_Choice(ESTIMATORS), "quantile", "univariate CRPS estimator")
_N_QUANTILES = (_integer, 20, "quantile count of the quantile estimator")


def _evaluation(out: str, noise: dict, extra: dict) -> dict:
    """The options of the dummy-forecaster commands, in config-echo order."""
    return {
        "seed": _SEED,
        "data": (_path, None, "path to the exchange-rate CSV (required)"),
        "kind": (_Choice(("uni", "multi", *forecasters.DUMMY_KINDS),
                         {"uni": "univariate", "multi": "multivariate"}),
                 "multi", "dummy forecaster kind"),
        **noise,
        "samples": (_integer, 400, "ensemble size"),
        "estimator": _ESTIMATOR,
        "n_quantiles": _N_QUANTILES,
        "normalize": (_Choice(NORMALIZATION_MODES), "target", "score normalization"),
        "batches": (_integer, 5, "number of tail splits"),
        "horizon": (_integer, 30, "steps per split"),
        "input_length": (_integer, 30, "conditioning rows per split"),
        "out": (_path, out, "output directory"),
        **extra,
    }


# command -> (handler, help, options in config-echo order); an option is
# (converter, default, help), and its flag is its name with "-" for "_".
COMMANDS = {
    "convergence": (_cmd_convergence, "CRPS estimator convergence benchmark", {
        "seed": _SEED,
        "sizes": (_numbers(_integer), simulation.DEFAULT_SAMPLE_SIZES,
                  "comma-separated sample sizes"),
        "n_quantiles": (_numbers(_integer), (20,),
                        "comma-separated quantile counts for the quantile estimator"),
        "repeats": (_integer, 50, "seeds per configuration"),
        "out": (_path, "runs/convergence", "output directory"),
    }),
    "sensitivity": (_cmd_sensitivity, "correlation sensitivity grid", {
        "seed": _SEED,
        "scale": (_Choice(tuple(simulation.SCALES)), "desk",
                  "experiment scale: desk=2^12x2^7, paper=2^14x2^9"),
        "n_windows": (_integer, None, "override the scale's experiments per cell"),
        "window_size": (_integer, None, "override the scale's ensemble size per experiment"),
        "n_quantiles": _N_QUANTILES,
        "out": (_path, "runs/sensitivity", "output directory"),
    }),
    "exchange-eval": (_cmd_exchange_eval, "dummy-forecaster audit on exchange rates", _evaluation(
        "runs/exchange-eval",
        {"sigma": (_real, 1e-4, "noise scale")},
        {"dump_samples": (_switch, False, "also write per-split ensemble sample dumps")},
    )),
    "sigma-sweep": (_cmd_sigma_sweep, "dummy scores across noise scales", _evaluation(
        "runs/sigma-sweep",
        {},
        {"sigmas": (_numbers(_real), forecasters.DEFAULT_SIGMA_LIST, "comma-separated noise scales")},
    )),
    "score": (_cmd_score, "score a stored ensemble against observations", {
        "seed": (_seed, None, "seed recorded in the report"),
        "ensemble": (_path, None, "sample-dump CSV (sample_id,t,dim,value)"),
        "obs": (_path, None, "headerless observation CSV (one row per step)"),
        "estimator": _ESTIMATOR,
        "n_quantiles": _N_QUANTILES,
        "normalize": (_Choice(NORMALIZATION_MODES), "raw", "score normalization"),
        "beta": (_real, 1.0, "energy score exponent in (0,2)"),
        "out": (_path, "runs/score", "output directory"),
    }),
}


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
    for command, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file of option values by name; flags win")
        for name, (convert, default, text) in options.items():
            if convert is _switch:
                p.add_argument(_flag(name), dest=name, action="store_const", const=True, help=text)
                continue
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                text = f"{text} (default {shown})"
            choices = convert.choices if isinstance(convert, _Choice) else None
            p.add_argument(_flag(name), dest=name, choices=choices, help=text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Resolve the options, make --out, run the command, then write its
    sample dumps, reports and run manifest, whole, and print its summary."""
    args = build_parser().parse_args(argv)
    handler, _, options = COMMANDS[args.command]
    made: list[Path] = []  # the --out directories this run creates, deepest first
    try:
        effective = _effective(options, args)
        started = time.perf_counter()
        out = Path(effective["out"])
        made = [d for d in (out, *out.parents) if not d.exists()]
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"--out: {exc}") from None
        simulation._last_map.clear()
        run = handler(effective)
        seed = run.config["seed"]
        staged: dict[Path, Path] = {}  # file -> its temporary beside it

        def stage(name: str) -> Path:
            staged[out / name] = out / f".{name}.{os.getpid()}.tmp"
            return staged[out / name]

        try:
            dumps = [(ensemble, stage(name)) for name, ensemble in run.dumps.items()]
            simulation._fork_map(lambda dump: data.ensemble_to_csv(*dump), dumps)
            for name, (columns, rows) in run.tables.items():
                reporting.write_csv(stage(name), columns, rows,
                                    meta={"seed": seed, "config": run.config})
            for name, payload in run.documents.items():
                reporting.write_json(stage(name), payload, config=run.config)
            wall = time.perf_counter() - started  # recorded in the manifest, so taken before it
            reporting.write_manifest(stage("run_manifest.json"), args.command, run.config, seed,
                                     wall, simulation._last_map)
            for target, temporary in staged.items():
                os.replace(temporary, target)
        finally:
            for temporary in staged.values():
                temporary.unlink(missing_ok=True)
        print("\n".join([f"{run.summary} -> {out} ({wall:.1f}s)", *run.details]))
        return 0
    except BaseException as exc:
        for directory in made:  # leave nothing behind that this run made and left empty
            try:
                directory.rmdir()
            except OSError:
                break
        if not isinstance(exc, (CliError, ValueError, OSError)):
            raise  # an internal fault keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
