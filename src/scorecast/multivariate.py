"""Multivariate scoring: Energy Score, CRPS-Sum and per-dimension CRPS.

Forecasts are sample ensembles with shape (S, H, D): S sample paths over a
horizon of H steps for D dimensions.  Observations are (H, D) windows.
"""
from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .crps import ESTIMATORS, _check_n_quantiles, _crps_batch, _nonnegative

__all__ = [
    "ScoreReport",
    "energy_score",
    "crps_matrix",
    "crps_sum_series",
    "energy_series",
    "crps_sum",
    "score_report",
]

NORMALIZATION_MODES = ("raw", "target")


def _as_ensemble(ensemble: ArrayLike) -> NDArray[np.float64]:
    # C order makes every sum and transpose below independent of the caller's layout.
    arr = np.ascontiguousarray(ensemble, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(
            f"ensemble must have shape (S, H, D), got {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 sample paths, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise ValueError(f"need at least 1 horizon step, got {arr.shape[1]}")
    if arr.shape[2] < 1:
        raise ValueError(f"need at least 1 dimension, got {arr.shape[2]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ensemble contains non-finite values")
    return arr


def _as_observation_window(obs: ArrayLike, ensemble: NDArray[np.float64]) -> NDArray[np.float64]:
    arr = np.ascontiguousarray(obs, dtype=np.float64)
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


def _check_estimator(estimator: str, n_quantiles: int) -> None:
    """Reject an unknown estimator, and a quantile count below 1 for "quantile"."""
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        )
    if estimator == "quantile":
        _check_n_quantiles(n_quantiles)


def _check_scoring(estimator: str, n_quantiles: int, beta: float, normalization: str) -> float:
    """Check a report's scoring options, before any array is read; returns beta."""
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(
            f"unknown normalization {normalization!r}; choose from {NORMALIZATION_MODES}"
        )
    beta = _check_beta(beta)
    _check_estimator(estimator, n_quantiles)
    return beta


# Doubles per block of the ES pair term (512 KB, a core's share of L2).  A
# block is a band of rows of the upper triangle of k windows' (w, w) distances,
# each band and stack shaped by ``_bands(w)`` from w alone.
_TILE = 1 << 16

# Doubles of scratch that a process keeps from one call to the next (2 MB),
# lent out as a stack: a grid cell's chunk buffers, and inside them the block
# tile and the two stacks of ``_pair_gram``.  Fresh buffers per call, freed
# between calls, made the allocator hand their pages back to the kernel and
# fault them in again, ~20 % of a small grid cell.
_SCRATCH = 1 << 18
_scratch = np.empty(_SCRATCH)
_scratch_lock = threading.RLock()  # held by the thread that uses the scratch
_scratch_used = 0  # doubles lent out, from the front


@contextlib.contextmanager
def _workspace(size: int) -> Iterator[NDArray[np.float64]]:
    """``size`` doubles of scratch: the next ones of the process's kept
    buffer while it has room, else a fresh buffer (a larger request, or a
    call while another thread holds the kept one).  A call inside another
    gets the doubles after the outer one's.  A forked child inherits its own
    copy."""
    global _scratch_used
    if not _scratch_lock.acquire(blocking=False):
        yield np.empty(size)
        return
    used = _scratch_used
    try:
        if used + size > _SCRATCH:
            yield np.empty(size)
        else:
            _scratch_used = used + size
            yield _scratch[used : used + size]
    finally:
        _scratch_used = used
        _scratch_lock.release()


def _bands(w: int) -> tuple[int, int]:
    """(r, k) for windows of w members: bands of r rows, stacks of k windows,
    with k * r * w <= max(_TILE, w).  Narrow bands waste little of the block
    on the r x r corner below the diagonal; deep stacks amortize the per-call
    cost of small windows."""
    r = max(1, min(_TILE // w, max(8, w // 16)))
    return r, max(1, _TILE // (r * w))


def _pair_gram(x: NDArray[np.float64], beta: float) -> NDArray[np.float64]:
    """Mean pair distance of each window in a stack (k, w, D), from the upper
    triangle of its Gram products in row bands: returns (k,).

    The members are centred on the first one, so that nearly equal members
    keep their differences exactly and a point mass gives exact zeros; a
    stack of point masses skips the bands.
    With ``left = [-2a | sq | 1]`` (k, w, D + 2) and ``right = [a | 1 | sq]``
    transposed to (k, D + 2, w), one stacked matmul gives
    ``|a_i|**2 + |a_j|**2 - 2 a_i.a_j`` for rows [i, i + r) and columns
    j >= i of every window.  The block is clamped at 0, and the diagonal and
    the corner below it in the leading r x r square are zeroed, so each pair
    is computed and rooted once; the mean over all w**2 pairs is twice the
    triangle's sum over w**2.  Each window's sum is over its own contiguous
    rows of the block, so a window scores the same bits in any stack.  The
    triangle keeps the precision limit of the full Gram form, no better and
    no worse: two tight clusters far apart lose ~eps * |a|**2 before the
    root, ~1e-9 relative at a 100 x 2 window of clusters 1000 apart.
    """
    k, w, d = x.shape
    a = x - x[:, :1]
    if not a.any():  # every window a point mass: the bands below would give +0.0
        return np.zeros(k)
    sq = np.einsum("kij,kij->ki", a, a)
    size = k * w * (d + 2)
    tile = max(_TILE, w)
    with _workspace(tile + 2 * size) as work:  # the block tile, then the two stacks
        left = work[tile : tile + size].reshape(k, w, d + 2)
        np.multiply(a, -2.0, out=left[..., :d])  # exact, so each product is -2 a_i.a_j to the last bit
        left[..., d] = sq
        left[..., d + 1] = 1.0
        # C order: each block's columns j >= i are then a contiguous run of every row.
        right = work[tile + size :].reshape(k, d + 2, w)
        right[:, :d] = a.transpose(0, 2, 1)
        right[:, d] = 1.0
        right[:, d + 1] = sq
        rows = _bands(w)[0]
        below = np.tri(rows, dtype=bool)  # the diagonal and the corner below it
        total = np.zeros(k)
        for i in range(0, w, rows):
            r = min(rows, w - i)
            blk = work[: k * r * (w - i)].reshape(k, r, w - i)
            np.matmul(left[:, i : i + r], right[:, :, i:], out=blk)
            np.maximum(blk, 0.0, out=blk)
            np.copyto(blk[:, :, :r], 0.0, where=below[:r, :r])
            blk **= 0.5 * beta  # numpy takes np.sqrt for 0.5
            total += blk.reshape(k, -1).sum(axis=1)
    return 2.0 * total / (w * w)


def _energy_batch(
    samples: NDArray[np.float64], obs: NDArray[np.float64], beta: float = 1.0
) -> NDArray[np.float64]:
    """Energy scores for a batch: samples (n, w, D), obs (n, D) -> (n,).

    The windows are scored in stacks of k = ``_bands(w)[1]``: the observation
    term, then ``_pair_gram``'s upper triangle of
    ``|a_i|**2 + |a_j|**2 - 2 a_i.a_j`` over the members centred on the
    first one, one stacked matmul over D + 2 columns per band of rows,
    clamped at 0 and with the diagonal set to 0, each pair computed once; it
    agrees with the (w, w, D) difference form within 1e-13 of the
    observation term.  Every
    stack reuses the process's kept scratch, so no temporary grows with n or
    w**2, and since the stack shape depends on w alone and each window is
    reduced over its own contiguous rows, a batch equals its windows scored
    one by one, bit for bit.  A score that overflows is NaN, never 0.
    """
    n, w, _ = samples.shape
    k = _bands(w)[1]
    scores = np.empty(n)
    for s in range(0, n, k):
        # C order: a strided caller's view would change the order of the means.
        x = np.ascontiguousarray(samples[s : s + k])
        # ``np.linalg.norm``'s own operations, with one temporary fewer.
        diff = x - obs[s : s + k, None]
        np.multiply(diff, diff, out=diff)
        obs_dist = np.sqrt(np.add.reduce(diff, axis=-1))
        obs_dist **= beta  # after the root: (x**2) ** (beta / 2) is other bits for beta != 1
        scores[s : s + k] = obs_dist.mean(axis=1) - 0.5 * _pair_gram(x, beta)
    return _nonnegative(scores)


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
    beta = _check_beta(beta)
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"samples must have shape (S, D), got {s.shape}")
    return float(energy_series(s[:, None], np.reshape(obs, (1, -1)), beta)[0])


# Scores of a validated (S, H, D) ensemble against its (H, D) window.  The
# public functions below check their options, then their arrays, and call
# one of these; ``score_report`` and the dummy forecasters check their
# options once with ``_check_scoring`` and score each window with
# ``_scores``, which checks the window's arrays itself.

def _energy_steps(
    ens: NDArray[np.float64], window: NDArray[np.float64], beta: float
) -> NDArray[np.float64]:
    # A view: the kernel copies each stack of steps to C order.
    return _energy_batch(ens.transpose(1, 0, 2), window, beta)


def _crps_cells(
    ens: NDArray[np.float64], window: NDArray[np.float64], estimator: str, n_quantiles: int
) -> NDArray[np.float64]:
    by_cell = np.ascontiguousarray(ens.transpose(1, 2, 0))  # (H, D, S)
    return _crps_batch(by_cell, window, estimator, n_quantiles)


def _crps_sum_steps(
    ens: NDArray[np.float64], window: NDArray[np.float64], estimator: str, n_quantiles: int
) -> NDArray[np.float64]:
    summed_samples = np.ascontiguousarray(ens.sum(axis=2).T)  # (H, S)
    return _crps_batch(summed_samples, window.sum(axis=1), estimator, n_quantiles)


def _scores(
    ensemble: ArrayLike, obs: ArrayLike, estimator: str, n_quantiles: int, beta: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Pointwise CRPS (H, D), summed-series CRPS (H,), energy scores (H,) and
    the (H, D) window, the ensemble and window checked once; the options
    must have passed ``_check_scoring``."""
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    return (
        _crps_cells(ens, window, estimator, n_quantiles),
        _crps_sum_steps(ens, window, estimator, n_quantiles),
        _energy_steps(ens, window, beta),
        window,
    )


def energy_series(ensemble: ArrayLike, obs: ArrayLike, beta: float = 1.0) -> NDArray[np.float64]:
    """Per-step energy scores over the horizon: returns an (H,) array."""
    beta = _check_beta(beta)
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    return _energy_steps(ens, window, beta)


def crps_matrix(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> NDArray[np.float64]:
    """Pointwise CRPS for every (step, dimension) cell: returns (H, D)."""
    _check_estimator(estimator, n_quantiles)
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    return _crps_cells(ens, window, estimator, n_quantiles)


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
    _check_estimator(estimator, n_quantiles)
    ens = _as_ensemble(ensemble)
    window = _as_observation_window(obs, ens)
    return _crps_sum_steps(ens, window, estimator, n_quantiles)


def crps_sum(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
) -> float:
    """CRPS-Sum: mean over the horizon of the summed-series CRPS."""
    return float(crps_sum_series(ensemble, obs, estimator, n_quantiles).mean())


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
        return tuple(self.to_dict()[c] for c in self.CSV_COLUMNS)

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


def _report(
    scored: list[tuple], normalization: str, estimator: str, n_quantiles: int,
    seed: Optional[int],
) -> ScoreReport:
    """One report of the ``_scores`` tuples of one or more windows: their
    per-step scores and windows are concatenated along the steps and
    aggregated once, raw or target-normalized, so that pooled
    target-normalized scores are total score mass over total target
    magnitude, not a mean of per-window ratios.

    Target normalization divides accumulated scores by the accumulated
    absolute magnitude of the corresponding targets: pointwise CRPS and the
    energy score by sum |obs|, summed-series CRPS by sum |sum_d obs|.  A
    dimension whose observations are all zero has no scale: its per-dimension
    value is NaN.
    """
    mat, cs_series, es_series, window = (np.concatenate(part) for part in zip(*scored))
    if normalization == "raw":
        per_dim = mat.mean(axis=0)
        aggregate, cs_value, es_value = mat.mean(), cs_series.mean(), es_series.mean()
    else:
        abs_obs = np.abs(window)
        denom_point = abs_obs.sum()
        denom_sum = np.abs(window.sum(axis=1)).sum()
        if denom_point <= 0.0 or denom_sum <= 0.0:
            raise ValueError("target normalization undefined: observations sum to zero magnitude")
        dim_scale = abs_obs.sum(axis=0)
        per_dim = np.full(dim_scale.shape, np.nan)
        np.divide(mat.sum(axis=0), dim_scale, out=per_dim, where=dim_scale > 0.0)
        aggregate = mat.sum() / denom_point
        cs_value = cs_series.sum() / denom_sum
        es_value = es_series.sum() / denom_point
    return ScoreReport(
        crps_per_dim=per_dim,
        crps_aggregate=float(aggregate),
        crps_sum=float(cs_value),
        energy_score=float(es_value),
        normalization_mode="target-normalized" if normalization == "target" else "raw",
        estimator=estimator,
        n_quantiles=n_quantiles,
        seed=seed,
    )


def score_report(
    ensemble: ArrayLike,
    obs: ArrayLike,
    estimator: str = "quantile",
    n_quantiles: int = 20,
    beta: float = 1.0,
    normalization: str = "raw",
    seed: Optional[int] = None,
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
    """
    beta = _check_scoring(estimator, n_quantiles, beta, normalization)
    return _report([_scores(ensemble, obs, estimator, n_quantiles, beta)],
                   normalization, estimator, n_quantiles, seed)
