"""Simulation studies: correlated-Gaussian sampling, the correlation
sensitivity grid for CRPS-Sum / Energy Score, and the CRPS estimator
convergence benchmark.

All randomness flows through ``_stream``: every grid cell, audit split and
convergence repeat draws from the Generator of its own entropy key, which
``SeedSequence`` zero-pads to 4 words, so results are reproducible and do not
depend on execution order, and the grid and the sigma sweep give the same
results over any number of worker processes.
"""
from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .crps import ESTIMATORS, _check_n_quantiles, _crps_batch
from .crps import _quantile as _crps_quantile_batch  # the name the traced bench reports
from .multivariate import _TILE, _check_beta, _energy_batch, _workspace

__all__ = [
    "GaussianSpec",
    "bivariate_correlation_spec",
    "relative_change",
    "CellScores",
    "run_sensitivity_cell",
    "SensitivityConfig",
    "GridCell",
    "SensitivityGridReport",
    "run_sensitivity_grid",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_convergence_study",
]

if TYPE_CHECKING:  # annotations alone, so start-up need not import numpy.random
    RngLike = Union[int, np.random.Generator, np.random.SeedSequence]

# Paper-scale and reduced desk-scale experiment sizes (windows, ensemble).
SCALES = {
    "paper": (2**14, 2**9),
    "desk": (2**12, 2**7),
}

# Default correlation grids: data correlation in steps of 0.2, model
# correlation in steps of 0.1, both spanning [-1, 1].
DEFAULT_RHO_GRID = tuple(round(-1.0 + 0.2 * k, 10) for k in range(11))
DEFAULT_VARRHO_GRID = tuple(round(-1.0 + 0.1 * k, 10) for k in range(21))


# --------------------------------------------------------------------------
# Gaussian sampling
# --------------------------------------------------------------------------

@dataclass
class GaussianSpec:
    """Multivariate normal specification (possibly singular covariance)."""

    mu: NDArray[np.float64]  # (D,)
    cov: NDArray[np.float64]  # (D, D), symmetric positive semi-definite

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mu.shape[0]
        if self.cov.shape != (d, d):
            raise ValueError(
                f"covariance shape {self.cov.shape} does not match mean length {d}"
            )
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.cov))):
            raise ValueError("non-finite entries in mean or covariance")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        scale = max(1.0, float(np.abs(self.cov).max()))
        if np.linalg.eigvalsh(self.cov).min() < -1e-9 * scale:
            raise ValueError("covariance matrix must be positive semi-definite")

    def factor(self) -> NDArray[np.float64]:
        """Square-root factor A with A @ A.T == cov.

        Uses the eigendecomposition so that singular covariances (perfect
        correlation) are handled exactly: zero eigenvalues produce exact
        linear constraints in the samples instead of a Cholesky failure.
        """
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs * np.sqrt(eigvals)


def bivariate_correlation_spec(rho: float) -> GaussianSpec:
    """Standard bivariate normal with correlation rho in [-1, 1]."""
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return GaussianSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))


@functools.lru_cache(maxsize=64)
def _bivariate_factor(rho: float) -> NDArray[np.float64]:
    """``bivariate_correlation_spec(rho).factor()``, computed once per rho and
    read-only, since every cell of a grid column or row asks for it again."""
    factor = bivariate_correlation_spec(rho).factor()
    factor.flags.writeable = False
    return factor


def relative_change(score_mean: float, reference_mean: float) -> float:
    """Relative deviation (score - reference) / reference of a score mean.

    The reference must be strictly positive (the mean score of a
    non-degenerate process is positive); otherwise the ratio is undefined.
    """
    score_mean = float(score_mean)
    reference_mean = float(reference_mean)
    if not (math.isfinite(score_mean) and math.isfinite(reference_mean)):
        raise ValueError("score means must be finite")
    if reference_mean <= 0.0:
        raise ValueError(
            f"reference mean must be strictly positive, got {reference_mean}"
        )
    return (score_mean - reference_mean) / reference_mean


# --------------------------------------------------------------------------
# Sensitivity study
# --------------------------------------------------------------------------

@dataclass
class CellScores:
    """Monte Carlo score summary of one (rho, varrho) grid cell."""

    rho: float
    varrho: float
    crps_sum_mean: float
    es_mean: float
    stderr_crps_sum: float
    stderr_es: float
    n_windows: int
    window_size: int


def _check_cell_args(
    n_windows: int, window_size: int, n_quantiles: int, beta: float
) -> tuple[int, int, int, float]:
    """The per-cell sizes and score parameters, validated and converted."""
    n_windows = int(n_windows)
    window_size = int(window_size)
    if n_windows < 2:
        raise ValueError(f"need at least 2 windows, got {n_windows}")
    if window_size < 2:
        raise ValueError(f"ensemble size must be at least 2, got {window_size}")
    return n_windows, window_size, _check_n_quantiles(n_quantiles), _check_beta(beta)


def _chunk_windows(window_size: int) -> int:
    """Windows per chunk of a cell: ~_TILE drawn values, at least one window."""
    return max(1, _TILE // (2 * window_size))


def run_sensitivity_cell(
    rho: float,
    varrho: float,
    n_windows: int,
    window_size: int,
    seed: RngLike,
    n_quantiles: int = 20,
    beta: float = 1.0,
) -> CellScores:
    """Monte Carlo estimate of CRPS-Sum and ES for one grid cell.

    Each of the ``n_windows`` experiments draws one observation from the
    bivariate data distribution (correlation rho) and an ensemble of
    ``window_size`` samples from the model distribution (correlation varrho),
    then scores the ensemble: CRPS-Sum on the coordinate-summed signal with
    the quantile estimator, ES with the Euclidean energy distance.
    """
    n_windows, window_size, n_quantiles, beta = _check_cell_args(
        n_windows, window_size, n_quantiles, beta
    )
    rng = np.random.default_rng(seed)
    data_factor = _bivariate_factor(float(rho))
    model_factor = _bivariate_factor(float(varrho))

    obs = rng.standard_normal((n_windows, 2)) @ data_factor.T
    obs_sum = obs.sum(axis=1)
    cs_values = np.empty(n_windows)
    es_values = np.empty(n_windows)
    # The windows are drawn, transformed and scored a chunk at a time, in
    # scratch reused by every chunk: successive draws continue one stream,
    # and every score is per window, so the values are those of one draw of
    # the whole cell, in memory that does not grow with n_windows.
    chunk = _chunk_windows(window_size)
    size = 2 * min(chunk, n_windows) * window_size
    with _workspace(2 * size) as work:
        z_buf, samples_buf = work[:size], work[size:]
        for s in range(0, n_windows, chunk):
            m = min(chunk, n_windows - s)
            z = z_buf[: 2 * m * window_size].reshape(m, window_size, 2)
            rng.standard_normal(out=z)
            samples = np.matmul(z, model_factor.T, out=samples_buf[: z.size].reshape(z.shape))
            # The sum over D = 2 as one addition, into z's buffer: the same
            # bits as ``sum(axis=2)`` (bar a pair of -0.0s, which a Gaussian
            # draw does not give), without the cost of a reduce over a
            # length-2 axis.
            summed = np.add(samples[..., 0], samples[..., 1],
                            out=z_buf[: m * window_size].reshape(m, window_size))
            cs_values[s : s + m] = _crps_quantile_batch(summed, obs_sum[s : s + m], n_quantiles)
            es_values[s : s + m] = _energy_batch(samples, obs[s : s + m], beta=beta)

    return CellScores(
        rho=float(rho),
        varrho=float(varrho),
        crps_sum_mean=float(cs_values.mean()),
        es_mean=float(es_values.mean()),
        stderr_crps_sum=float(cs_values.std(ddof=1) / math.sqrt(n_windows)),
        stderr_es=float(es_values.std(ddof=1) / math.sqrt(n_windows)),
        n_windows=n_windows,
        window_size=window_size,
    )


@dataclass
class SensitivityConfig:
    """Configuration of the full correlation-sensitivity grid.

    Every data correlation rho must also appear among the model correlations
    (within ``isclose(atol=1e-9)``): the matched-model cell varrho == rho is
    the reference of the relative changes in rho's row.
    """

    rho_list: Sequence[float] = DEFAULT_RHO_GRID  # data correlations
    varrho_list: Sequence[float] = DEFAULT_VARRHO_GRID  # model correlations
    n_windows: Optional[int] = None  # experiments per cell; None -> from scale
    window_size: Optional[int] = None  # ensemble size; None -> from scale
    seed: int = 0
    scale: str = "desk"  # {desk, paper}
    n_quantiles: int = 20
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}")
        default_windows, default_size = SCALES[self.scale]
        if self.n_windows is None:
            self.n_windows = default_windows
        if self.window_size is None:
            self.window_size = default_size
        self.n_windows, self.window_size, self.n_quantiles, self.beta = _check_cell_args(
            self.n_windows, self.window_size, self.n_quantiles, self.beta
        )
        self.rho_list = tuple(float(r) for r in self.rho_list)
        self.varrho_list = tuple(float(v) for v in self.varrho_list)
        if not self.rho_list or not self.varrho_list:
            raise ValueError("rho_list and varrho_list must be non-empty")
        for value in self.rho_list + self.varrho_list:
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"correlations must lie in [-1, 1], got {value}")
        for rho in self.rho_list:
            if not np.isclose(self.varrho_list, rho, atol=1e-9).any():
                raise ValueError(
                    f"rho={rho} has no matching varrho column to serve as its reference"
                )
        if int(self.seed) < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(self.seed)


@dataclass
class GridCell:
    """One row of the sensitivity report."""

    rho: float
    varrho: float
    crps_sum_mean: float
    es_mean: float
    delta_rel_crps_sum: float  # NaN when the reference CRPS-Sum is degenerate
    delta_rel_es: float
    stderr_crps_sum: float
    stderr_es: float
    n_windows: int
    window_size: int
    seed: int


@dataclass
class SensitivityGridReport:
    """All grid cells plus the configuration that produced them."""

    config: SensitivityConfig
    cells: list[GridCell] = field(default_factory=list)  # row-major: rho, then varrho


def _stream(*key: int) -> np.random.Generator:
    """The Generator of one task's entropy key: the master seed, then the
    task's indices.  Grid cell (i, j) is ``(seed, i, j)``, split k of a dummy
    audit ``(seed, k)`` and convergence repeat r ``(seed, estimator index,
    sample size, quantile count or 0, r)``.

    ``SeedSequence`` zero-pads a key shorter than 4 words, so keys equal once
    padded give one stream: ``(s, k)``, ``(s, k, 0)`` and ``(s, k, 0, 0)``, not
    ``(s, k, 0, 0, 0)``; ``default_rng(s)`` is ``(s, 0)``.  Split k's stream is
    thus grid cell (k, 0)'s; no run uses two such keys.  A new family's key
    should put a tag that no key here has, say >= 2**31, right after the seed.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=key))


def _delta(mean: float, ref: float) -> float:
    """Relative change of a cell mean from its reference mean; NaN when the
    reference mean is not strictly positive."""
    return relative_change(mean, ref) if ref > 0.0 else float("nan")


def _workers(n_tasks: int) -> int:
    """One worker process per CPU this process may run on, at most one per
    task; one where there is no task or the CPUs are not told apart."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, n_tasks))


_last_map: dict = {}  # "workers" and "task_s" of this process's last non-empty _fork_map


def _timed(fn: Callable, item):
    """``fn(item)`` and the seconds it took, in whichever process runs it."""
    started = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - started


def _fork_map(fn: Callable, items: Sequence) -> list:
    """``list(map(fn, items))`` over n = ``_workers(len(items))`` processes, in item order.

    This process runs items 0, n, 2n, ...; each of the n - 1 forked children
    runs its own stride and pipes back its results, each timed where it ran
    and pickled, so neither ``fn`` nor an item is ever pickled.  A map over
    any item leaves n and the min, median and max seconds of an item in
    ``_last_map``.  An exception raised in a child is raised here, with its
    type and message; a child that ends without a readable result is a
    RuntimeError naming its exit status.  No child outlives the call: on an
    error the read ends are closed, so that a child blocked writing gets
    EPIPE, and each child is terminated and waited for.  A child whose
    parent has died stops before its next item.
    """
    workers = _workers(len(items))
    sys.stdout.flush()  # else a child's copy of a buffer could be written twice
    sys.stderr.flush()
    parent = os.getpid()
    children: list[tuple[int, int]] = []  # (pid, read end), in stride order
    waited = 0  # children read to the end and waited for, from the first
    try:
        for stride in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_stride(fn, items[stride::workers], parent, write,
                                [read, *(r for _, r in children)])
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, read))
        results: list = [None] * len(items)
        results[::workers] = [_timed(fn, item) for item in items[::workers]]
        for stride, (pid, read) in enumerate(children, 1):
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            waited = stride
            try:
                ok, value = pickle.loads(b"".join(chunks))
            except Exception:
                raise RuntimeError(
                    f"worker {pid} exited with status {os.waitstatus_to_exitcode(status)} "
                    "without a readable result"
                ) from None
            if not ok:
                raise value
            results[stride::workers] = value
        seconds = sorted(s for _, s in results)
        if seconds:  # the median by hand: np.median imports numpy.ma, ~14 ms
            n = len(seconds)
            _last_map["workers"] = workers
            median = (seconds[(n - 1) // 2] + seconds[n // 2]) / 2
            _last_map["task_s"] = {"min": round(seconds[0], 4), "median": round(median, 4),
                                   "max": round(seconds[-1], 4)}
        return [result for result, _ in results]
    finally:
        for _, read in children:
            os.close(read)
        for pid, _ in children[waited:]:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def _run_stride(fn: Callable, items: Sequence, parent: int, write: int,
                reads: list[int]) -> NoReturn:
    """A forked child's whole life: ``fn`` over its items, then the pickled
    ``(True, [(result, seconds), ...])`` or ``(False, exception)`` written to
    ``write``; it ends with ``os._exit``, so none of the parent's code runs."""
    status = 1
    try:
        for read in reads:  # its own read end and its elder siblings'
            os.close(read)
        try:
            results = []
            for item in items:
                if os.getppid() != parent:
                    return  # an orphan: its results have no reader
                results.append(_timed(fn, item))
            payload = pickle.dumps((True, results))
        except BaseException as exc:  # raised again in the parent
            payload = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def run_sensitivity_grid(config: SensitivityConfig) -> SensitivityGridReport:
    """Run every (rho, varrho) cell and attach relative changes.

    The cells run over one worker per CPU, this process and forked children
    (``_fork_map``), each cell on its own stream, so the report is the same
    for any worker count.  The reference for each data correlation rho is its
    matched-model cell varrho == rho (the last such column).  The relative
    change of the reference cell itself is 0 by construction; when a
    reference mean is not strictly positive (a degenerate summed signal at
    rho == -1 has CRPS-Sum exactly 0) the relative change is reported as NaN.
    """
    import numpy.random  # noqa: F401  (once here, not in every forked worker)

    def run_cell(task: tuple[int, int]) -> CellScores:
        i, j = task
        return run_sensitivity_cell(
            config.rho_list[i], config.varrho_list[j], config.n_windows, config.window_size,
            seed=_stream(config.seed, i, j),
            n_quantiles=config.n_quantiles, beta=config.beta,
        )

    n_cols = len(config.varrho_list)
    tasks = [(i, j) for i in range(len(config.rho_list)) for j in range(n_cols)]
    scores = _fork_map(run_cell, tasks)
    report = SensitivityGridReport(config=config)
    for i, rho in enumerate(config.rho_list):
        cells = scores[i * n_cols:(i + 1) * n_cols]
        ref_j = np.flatnonzero(np.isclose(config.varrho_list, rho, atol=1e-9))[-1]
        ref = cells[ref_j]
        report.cells += [
            GridCell(
                **asdict(cell),
                delta_rel_crps_sum=(
                    0.0 if j == ref_j else _delta(cell.crps_sum_mean, ref.crps_sum_mean)
                ),
                delta_rel_es=0.0 if j == ref_j else _delta(cell.es_mean, ref.es_mean),
                seed=config.seed,
            )
            for j, cell in enumerate(cells)
        ]
    return report


# --------------------------------------------------------------------------
# Estimator convergence study
# --------------------------------------------------------------------------

DEFAULT_SAMPLE_SIZES = (200, 500, 1000, 2000, 5000)


@dataclass
class ConvergenceRow:
    estimator: str
    sample_size: int
    n_quantiles: Optional[int]  # None for estimators that take no quantile count
    mean: float
    std: float


@dataclass
class ConvergenceReport:
    repeats: int
    seed: int
    rows: list[ConvergenceRow]


def run_convergence_study(
    estimators: Sequence[str] = ESTIMATORS,
    sample_sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES,
    n_quantiles: Sequence[int] = (20,),
    repeats: int = 50,
    seed: int = 0,
) -> ConvergenceReport:
    """Convergence of the CRPS estimators on a known Gaussian target.

    For every configuration (estimator, sample size, and quantile count for
    the quantile estimator) and every repeat, a fresh batch of samples is
    drawn from N(0, 1) and scored against the observation x = 0, whose exact
    CRPS is analytic (about 0.2337).  Each configuration uses its own derived
    random stream, so rows are reproducible independently of which other
    configurations run.
    """
    repeats = int(repeats)
    if repeats < 2:
        raise ValueError(f"need at least 2 repeats, got {repeats}")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATORS}")
    sizes = [int(s) for s in sample_sizes]
    if any(s < 2 for s in sizes):
        raise ValueError("sample sizes must be at least 2")
    quantile_counts = [_check_n_quantiles(n) for n in n_quantiles]

    rows: list[ConvergenceRow] = []
    for est in estimators:
        est_index = ESTIMATORS.index(est)
        nq_values: Sequence[Optional[int]] = quantile_counts if est == "quantile" else [None]
        for size in sizes:
            for nq in nq_values:
                draws = np.stack([_stream(seed, est_index, size, nq or 0, r).standard_normal(size)
                                  for r in range(repeats)])
                values = _crps_batch(draws, np.zeros(repeats), est, nq)
                rows.append(
                    ConvergenceRow(
                        estimator=est,
                        sample_size=size,
                        n_quantiles=nq,
                        mean=float(values.mean()),
                        std=float(values.std(ddof=1)),
                    )
                )
    return ConvergenceReport(rows=rows, repeats=repeats, seed=seed)
