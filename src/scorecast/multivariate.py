"""Multivariate scoring: Energy Score, CRPS-Sum and per-dimension CRPS.

Forecasts are sample ensembles with shape (S, H, D): S sample paths over a
horizon of H steps for D dimensions.  Observations are (H, D) windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .crps import crps_empirical_cdf, crps_quantile, crps_sample_estimate

__all__ = [
    "ESTIMATORS",
    "ScoreReport",
    "energy_score",
    "energy_score_window",
    "crps_matrix",
    "crps_sum_series",
    "energy_series",
    "crps_sum",
    "crps_per_dimension",
    "score_report",
]

# Univariate estimator registry keyed by the names used on the CLI.
ESTIMATORS: dict[str, Callable[..., float]] = {
    "ecdf": lambda s, x, n_quantiles: crps_empirical_cdf(s, x),
    "quantile": lambda s, x, n_quantiles: crps_quantile(s, x, n_quantiles),
    "sample": lambda s, x, n_quantiles: crps_sample_estimate(s, x),
}

NORMALIZATION_MODES = ("raw", "target")


def _as_ensemble(ensemble: ArrayLike) -> NDArray[np.float64]:
    arr = np.asarray(ensemble, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(
            f"ensemble must have shape (S, H, D), got {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 sample paths, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ensemble contains non-finite values")
    return arr


def _as_observation_window(obs: ArrayLike, ensemble: NDArray[np.float64]) -> NDArray[np.float64]:
    arr = np.asarray(obs, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"observations must have shape (H, D), got {arr.shape}")
    if arr.shape != ensemble.shape[1:]:
        raise ValueError(
            f"observation window {arr.shape} does not match ensemble steps/dims "
            f"{ensemble.shape[1:]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations contain non-finite values")
    return arr


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 2.0:
        raise ValueError(f"beta must lie in the open interval (0, 2), got {beta}")
    return beta


def _check_estimator(estimator: str) -> str:
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        )
    return estimator


_TILE = 1 << 16  # doubles per temporary of the ES pair term: 512 KB, a core's share of L2


def _energy_batch(
    samples: NDArray[np.float64], obs: NDArray[np.float64], beta: float = 1.0
) -> NDArray[np.float64]:
    """Energy scores for a batch: samples (n, w, D), obs (n, D) -> (n,).

    Squared pair distances are summed one dimension at a time in temporaries
    of at most ``_TILE`` doubles: ``_TILE // w**2`` windows, or ``_TILE // w``
    rows of one wider window.  Each window's mean sums its (w, w) distances
    in one order whatever the tiling.  An overflow gives NaN, not 0.
    """
    n, w, D = samples.shape
    obs_dist = np.linalg.norm(samples - obs[:, None, :], axis=2)
    if beta != 1.0:
        obs_dist = obs_dist**beta
    term_obs = obs_dist.mean(axis=1)

    m = max(1, _TILE // (w * w))
    rows = max(1, _TILE // w)
    term_pair = np.empty(n)
    for start in range(0, n, m):
        cols = np.ascontiguousarray(samples[start : start + m].transpose(0, 2, 1))  # (m, D, w)
        dist = np.empty((cols.shape[0], w, w))
        for i in range(0, w, rows):
            sq = dist[:, i : i + rows]
            sq.fill(0.0)
            diff = np.empty_like(sq)
            for d in range(D):
                np.subtract(cols[:, d, i : i + rows, None], cols[:, d, None, :], out=diff)
                diff *= diff
                sq += diff
            np.sqrt(sq, out=sq)
        if beta != 1.0:
            dist **= beta
        term_pair[start : start + m] = dist.mean(axis=(1, 2))

    return np.maximum(0.0, term_obs - 0.5 * term_pair)


def energy_score(samples: ArrayLike, obs: ArrayLike, beta: float = 1.0) -> float:
    """Energy score of a single-step ensemble against a D-dimensional observation.

    ES(F, x) = E ||X - x||^beta - 0.5 E ||X - X'||^beta  with Euclidean norm,
    estimated with all sample pairs.  At beta=1 and D=1 this coincides with the
    sample-estimate form of the CRPS.

    Args:
        samples: (S, D) array of ensemble members.
        obs: length-D observation vector.
        beta: norm exponent in (0, 2); default 1.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"samples must have shape (S, D), got {s.shape}")
    if s.shape[0] < 2:
        raise ValueError(f"need at least 2 sample paths, got {s.shape[0]}")
    x = np.asarray(obs, dtype=np.float64).reshape(-1)
    if x.shape[0] != s.shape[1]:
        raise ValueError(f"observation has {x.shape[0]} dims, samples have {s.shape[1]}")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
        raise ValueError("non-finite values in samples or observation")
    return float(_energy_batch(s[None], x[None], _check_beta(beta))[0])


def energy_series(ensemble: ArrayLike, obs: ArrayLike, beta: float = 1.0) -> NDArray[np.float64]:
    """Per-step energy scores over the horizon: returns an (H,) array."""
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    return _energy_batch(np.ascontiguousarray(ens.transpose(1, 0, 2)), window, _check_beta(beta))


def energy_score_window(
    ensemble: ArrayLike, obs: ArrayLike, beta: float = 1.0, flatten: bool = False
) -> float:
    """Energy score of a multi-step ensemble.

    By default the per-step scores are averaged over the horizon.  With
    ``flatten=True`` each sample path is treated as one (H*D)-dimensional
    vector and a single score is computed.
    """
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    if flatten:
        flat = ens.reshape(ens.shape[0], -1)
        return energy_score(flat, window.reshape(-1), beta=beta)
    return float(energy_series(ens, window, beta=beta).mean())


def crps_matrix(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> NDArray[np.float64]:
    """Pointwise CRPS for every (step, dimension) cell: returns (H, D)."""
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    score = ESTIMATORS[_check_estimator(estimator)]
    H, D = window.shape
    out = np.empty((H, D))
    for t in range(H):
        for d in range(D):
            out[t, d] = score(ens[:, t, d], window[t, d], n_quantiles)
    return out


def crps_sum_series(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> NDArray[np.float64]:
    """Per-step CRPS of the dimension-summed series: returns (H,).

    Materializes the summed signal explicitly (samples summed across D for
    each path, observations summed across D) and scores it with the chosen
    univariate estimator.
    """
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    score = ESTIMATORS[_check_estimator(estimator)]
    summed_samples = ens.sum(axis=2)  # (S, H)
    summed_obs = window.sum(axis=1)  # (H,)
    return np.array(
        [
            score(summed_samples[:, t], summed_obs[t], n_quantiles)
            for t in range(window.shape[0])
        ]
    )


def crps_sum(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> float:
    """CRPS-Sum: mean over the horizon of the summed-series CRPS."""
    return float(crps_sum_series(ensemble, obs, estimator, n_quantiles).mean())


def crps_per_dimension(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> tuple[NDArray[np.float64], float]:
    """Horizon-averaged CRPS per dimension plus the overall aggregate.

    Returns:
        (per_dim, aggregate): per_dim[d] is the mean CRPS of dimension d over
        the horizon; aggregate is the mean over all (step, dimension) cells.
    """
    mat = crps_matrix(ensemble, obs, estimator, n_quantiles)
    return mat.mean(axis=0), float(mat.mean())


@dataclass
class ScoreReport:
    """Complete multivariate score summary for one evaluation window."""

    crps_per_dim: NDArray[np.float64]
    crps_aggregate: float
    crps_sum: float
    energy_score: float
    normalization_mode: str
    estimator: str
    n_quantiles: int
    seed: Optional[int] = None

    CSV_COLUMNS = ("crps_sum", "crps", "es", "normalization_mode", "estimator",
                   "n_quantiles", "seed")

    def csv_row(self) -> tuple:
        return (
            self.crps_sum,
            self.crps_aggregate,
            self.energy_score,
            self.normalization_mode,
            self.estimator,
            self.n_quantiles,
            self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "crps_sum": self.crps_sum,
            "crps": self.crps_aggregate,
            "es": self.energy_score,
            "crps_per_dim": [float(v) for v in self.crps_per_dim],
            "normalization_mode": self.normalization_mode,
            "estimator": self.estimator,
            "n_quantiles": self.n_quantiles,
            "seed": self.seed,
        }


def _aggregate_scores(
    mat: NDArray[np.float64],
    cs_series: NDArray[np.float64],
    es_series: NDArray[np.float64],
    window: NDArray[np.float64],
    normalization: str,
) -> tuple[NDArray[np.float64], float, float, float]:
    """Aggregate pointwise scores into report values, raw or target-normalized.

    Target normalization divides accumulated scores by the accumulated
    absolute magnitude of the corresponding targets: pointwise CRPS and the
    energy score by sum |obs|, summed-series CRPS by sum |sum_d obs|.
    """
    if normalization == "raw":
        return mat.mean(axis=0), float(mat.mean()), float(cs_series.mean()), float(es_series.mean())
    if normalization != "target":
        raise ValueError(
            f"unknown normalization {normalization!r}; choose from {NORMALIZATION_MODES}"
        )

    abs_obs = np.abs(window)
    denom_point = abs_obs.sum()
    denom_sum = np.abs(window.sum(axis=1)).sum()
    if denom_point <= 0.0 or denom_sum <= 0.0:
        raise ValueError("target normalization undefined: observations sum to zero magnitude")
    per_dim = mat.sum(axis=0) / abs_obs.sum(axis=0)
    return (
        per_dim,
        float(mat.sum() / denom_point),
        float(cs_series.sum() / denom_sum),
        float(es_series.sum() / denom_point),
    )


def score_report(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
    beta: float = 1.0,
    normalization: str = "raw",
    seed: Optional[int] = None,
    es_flatten: bool = False,
) -> ScoreReport:
    """Score an ensemble against observations and bundle all metrics.

    Args:
        ensemble: (S, H, D) forecast sample paths.
        obs: (H, D) realized observations.
        estimator: univariate CRPS estimator for pointwise and summed scores.
        n_quantiles: quantile count for the quantile estimator.
        beta: energy-score exponent.
        normalization: "raw" (plain means) or "target" (score sums divided by
            absolute target sums).
        seed: optional seed recorded for provenance (the seed that generated
            the ensemble); not used for any computation here.
        es_flatten: score the energy distance on flattened (H*D)-vectors
            instead of averaging per-step scores.
    """
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    _check_estimator(estimator)

    mat = crps_matrix(ens, window, estimator, n_quantiles)
    cs = crps_sum_series(ens, window, estimator, n_quantiles)
    if es_flatten:
        es_vals = np.array([energy_score_window(ens, window, beta=beta, flatten=True)])
    else:
        es_vals = energy_series(ens, window, beta=beta)

    # With the flat variant there is a single window-level ES value; both
    # normalization modes treat it as a one-element series.
    per_dim, aggregate, cs_value, es_value = _aggregate_scores(
        mat, cs, es_vals, window, normalization
    )

    mode = "target-normalized" if normalization == "target" else "raw"
    return ScoreReport(
        crps_per_dim=per_dim,
        crps_aggregate=aggregate,
        crps_sum=cs_value,
        energy_score=es_value,
        normalization_mode=mode,
        estimator=estimator,
        n_quantiles=n_quantiles,
        seed=seed,
    )
