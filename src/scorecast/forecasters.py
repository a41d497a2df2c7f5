"""Dummy probabilistic forecasters and the evaluation harness around them.

Two deliberately trivial baselines:

* univariate: every dimension and horizon step gets N(mu_last, sigma^2)
  where mu_last is the cross-dimension mean of the last observed row, so a
  single scalar distribution stands in for the whole system;
* multivariate: dimension i gets N(x_last_i, sigma^2) — persistence of the
  last observed row plus independent noise.

Each ensemble is ``loc + sigma * z`` with z standard normal draws, which is
``rng.normal(loc, sigma, size)`` bit for bit.  Both are scored over rolling
splits, each split's draw from its own random stream,
``simulation._stream(seed, split_index)`` whatever the sigma and kind, and
scores can be pooled across splits.  A sweep over sigma draws each split's
z once and scales it by every sigma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, cycle, repeat
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .data import DUMP_HEADER, EvaluationSplit
from .multivariate import ScoreReport, _check_scoring, _report, _scores
from .simulation import _fork_map, _stream

__all__ = [
    "DummyConfig",
    "make_dummy_forecast",
    "ensemble_to_csv",
    "forecast_and_score_splits",
    "evaluate_dummy_on_splits",
    "SigmaSweepRow",
    "sigma_sweep",
]

DUMMY_KINDS = ("univariate", "multivariate")


@dataclass
class DummyConfig:
    """Configuration of a dummy forecaster."""

    kind: str = "multivariate"  # {univariate, multivariate}
    sigma: float = 1e-4  # noise standard deviation
    n_samples: int = 400  # ensemble size S
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DUMMY_KINDS:
            raise ValueError(f"unknown dummy kind {self.kind!r}; choose from {DUMMY_KINDS}")
        self.sigma = float(self.sigma)
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and strictly positive, got {self.sigma}")
        self.n_samples = int(self.n_samples)
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def make_dummy_forecast(
    input_window,
    horizon: int,
    cfg: DummyConfig,
    rng: np.random.Generator,
) -> NDArray[np.float64]:
    """Ensemble of shape (S, H, D) drawn with ``rng`` from N(loc, sigma^2) for ``cfg.kind``.

    Multivariate: loc is the final input row, so dimension i follows
    N(last_row[i], sigma^2).  Univariate: loc is that row's mean across
    dimensions, one scalar law for every dimension and horizon step.
    """
    loc, z = _draw(input_window, horizon, cfg.kind, cfg.n_samples, rng)
    return loc + cfg.sigma * z


def _draw(input_window, horizon: int, kind: str, n_samples: int, rng: np.random.Generator):
    """The location and the (S, H, D) standard normals of a dummy forecast."""
    arr = np.asarray(input_window, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"input window must be (steps, dims) with >= 1 row, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input window contains non-finite values")
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    loc = float(arr[-1].mean()) if kind == "univariate" else arr[-1]
    return loc, rng.standard_normal((n_samples, horizon, arr.shape[1]))


# Values formatted per write, which bounds the dump's memory for any ensemble
# size.  2**14 writes as fast as 2**16 and holds a quarter of the memory.
_CHUNK = 1 << 14


def ensemble_to_csv(ensemble: NDArray[np.float64], path: Union[str, Path]) -> None:
    """Dump an (S, H, D) ensemble as tidy rows: sample_id, t, dim, value.

    Rows run in C order with ``\\r\\n`` line ends and shortest-repr floats,
    the bytes ``csv.writer`` writes for them.
    """
    ens = np.asarray(ensemble, dtype=np.float64)
    if ens.ndim != 3:
        raise ValueError(f"ensemble must be (S, H, D), got {ens.shape}")
    n_s, n_t, n_d = ens.shape
    cells = [f",{t},{d}," for t in range(n_t) for d in range(n_d)]
    step = max(1, _CHUNK // max(1, len(cells)))
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(DUMP_HEADER + "\r\n")
        for start in range(0, n_s, step):
            chunk = ens[start:start + step]
            sample_ids = chain.from_iterable(
                repeat(str(s), len(cells)) for s in range(start, start + len(chunk))
            )
            fh.writelines(map(
                "{}{}{}\r\n".format, sample_ids, cycle(cells), map(repr, chunk.ravel().tolist())
            ))


def _check_evaluation(
    splits: Sequence[EvaluationSplit], estimator: str, n_quantiles: int, beta: float,
    normalization: str,
) -> float:
    """Check the splits and scoring options of a split evaluation; returns beta."""
    if not splits:
        raise ValueError("no evaluation splits given")
    return _check_scoring(estimator, n_quantiles, beta, normalization)


def forecast_and_score_splits(
    splits: Sequence[EvaluationSplit],
    cfg: DummyConfig,
    estimator: str = "quantile",
    n_quantiles: int = 20,
    beta: float = 1.0,
    normalization: str = "target",
) -> tuple[list[NDArray[np.float64]], list[ScoreReport], ScoreReport]:
    """Forecast and score every split; also pool scores across splits.

    Each split's ensemble is drawn once, from the split's own stream.
    Pooling concatenates the per-step score series of all splits (and their
    observation windows) and aggregates once, so the target-normalized pooled
    scores are total score mass divided by total target magnitude rather than
    a mean of per-split ratios.

    Returns:
        (ensembles, per_split_reports, pooled_report), where ensembles[k] is
        the (S, H, D) forecast scored for splits[k].
    """
    beta = _check_evaluation(splits, estimator, n_quantiles, beta, normalization)
    ensembles = []
    scored = []  # (mat, cs, es, window) per split
    for split in splits:
        rng = _stream(cfg.seed, split.split_index)
        ensemble = make_dummy_forecast(split.input_window, split.target_window.shape[0], cfg, rng)
        ensembles.append(ensemble)
        scored.append(_scores(ensemble, split.target_window, estimator, n_quantiles, beta))
    per_split = [_report([parts], normalization, estimator, n_quantiles, cfg.seed)
                 for parts in scored]
    return ensembles, per_split, _report(scored, normalization, estimator, n_quantiles, cfg.seed)


def evaluate_dummy_on_splits(
    splits: Sequence[EvaluationSplit],
    cfg: DummyConfig,
    estimator: str = "quantile",
    n_quantiles: int = 20,
    beta: float = 1.0,
    normalization: str = "target",
) -> tuple[list[ScoreReport], ScoreReport]:
    """``forecast_and_score_splits`` without the ensembles:
    (per_split_reports, pooled_report)."""
    _, per_split, pooled = forecast_and_score_splits(
        splits, cfg, estimator, n_quantiles, beta, normalization
    )
    return per_split, pooled


@dataclass
class SigmaSweepRow:
    sigma: float
    crps_sum: float
    crps: float
    es: float


# Noise scales spanning 20 decades; scores are expected to stabilize once
# sigma falls below the resolution of the data.
DEFAULT_SIGMA_LIST = tuple(10.0 ** (-k) for k in range(1, 21))


def sigma_sweep(
    kind: str,
    sigma_list: Sequence[float],
    splits: Sequence[EvaluationSplit],
    n_samples: int = 400,
    seed: int = 0,
    estimator: str = "quantile",
    n_quantiles: int = 20,
    beta: float = 1.0,
    normalization: str = "target",
) -> list[SigmaSweepRow]:
    """Pooled dummy-forecast scores for each noise scale in sigma_list.

    Each split's standard normals z are drawn once, from the split's own
    stream, and every sigma scores ``loc + sigma * z``: the ensembles of
    ``evaluate_dummy_on_splits`` at that sigma, bit for bit.  So score
    differences across the sweep reflect the noise scale alone.  The
    splits, the scoring options, the kind, the ensemble size, the seed and
    every sigma are checked before anything is drawn, also for an empty
    sigma list.  The draws are made here, in split order; the (sigma, split)
    scorings run over one worker per CPU (``simulation._fork_map``), with the
    same rows for any count.
    """
    beta = _check_evaluation(splits, estimator, n_quantiles, beta, normalization)
    base = DummyConfig(kind=kind, n_samples=n_samples, seed=seed)  # checks all but sigma
    configs = [replace(base, sigma=sigma) for sigma in sigma_list]
    if not configs:
        return []
    draws = [_draw(split.input_window, split.target_window.shape[0], base.kind,
                   base.n_samples, _stream(base.seed, split.split_index))
             for split in splits]

    def score(task: tuple[float, int]) -> tuple:
        sigma, k = task
        loc, z = draws[k]
        return _scores(loc + sigma * z, splits[k].target_window, estimator, n_quantiles, beta)

    tasks = [(cfg.sigma, k) for cfg in configs for k in range(len(splits))]
    scored = _fork_map(score, tasks)  # (mat, cs, es, window) per task
    rows = []
    for i, cfg in enumerate(configs):
        parts = scored[i * len(splits):(i + 1) * len(splits)]
        pooled = _report(parts, normalization, estimator, n_quantiles, cfg.seed)
        rows.append(SigmaSweepRow(sigma=cfg.sigma, crps_sum=pooled.crps_sum,
                                  crps=pooled.crps_aggregate, es=pooled.energy_score))
    return rows
