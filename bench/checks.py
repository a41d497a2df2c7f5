"""Checks of scorecast reports against values computed here with numpy alone.

Nothing in this module imports scorecast.  Every expected value comes from a
closed form, a numerical expectation or a direct numpy evaluation of the
score definitions, so a fault in a shared kernel cannot hide itself.  Reports
are parsed and their numbers compared; bytes are never compared, because
every report embeds the `git describe` version string.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_QUANTILES = 20  # the CLI default, used by every workload

_erfc = np.frompyfunc(math.erfc, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def _cdf(x):
    return _erfc(-np.asarray(x, dtype=np.float64) / math.sqrt(2.0)).astype(np.float64) / 2.0


def _pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _close(label: str, got, want, rtol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{label}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    limit = rtol * np.abs(want)
    if not np.all(err <= limit):
        i = int(np.argmax(err - limit))
        raise CheckError(
            f"{label}: {got.flat[i]!r} differs from {want.flat[i]!r} "
            f"(abs {err.flat[i]:.3g}, allowed {limit.flat[i]:.3g})"
        )


def read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable report ({exc})") from None


def read_report_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a report CSV, skipping '# key=value' lines."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"{path}: unreadable report ({exc})") from None
    rows = list(csv.reader(line for line in lines if line and not line.startswith("#")))
    if not rows:
        raise CheckError(f"{path}: no header")
    return rows[0], rows[1:]


def _csv_float(cell: str) -> float:
    return float(cell) if cell else math.nan


# --------------------------------------------------------------------------
# Sample scores evaluated directly (sample axis 0)
# --------------------------------------------------------------------------

def crps_exact(ens: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """CRPS of the empirical distribution, E|X - x| - 0.5 E|X - X'| with
    S^2 pair normalisation; the pair sum uses the sorted-sample identity."""
    s = np.sort(ens, axis=0)
    n = s.shape[0]
    weights = (2.0 * np.arange(1, n + 1) - n - 1.0).reshape((n,) + (1,) * (s.ndim - 1))
    pair = 2.0 * (weights * s).sum(axis=0)
    return np.abs(ens - obs).mean(axis=0) - pair / (2.0 * n * n)


def crps_pinball(ens: np.ndarray, obs: np.ndarray, n_quantiles: int = N_QUANTILES) -> np.ndarray:
    """Quantile CRPS: twice the mean pinball loss at the midpoint levels,
    with linearly interpolated sample quantiles."""
    alphas = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    q = np.quantile(ens, alphas, axis=0)
    a = alphas.reshape((-1,) + (1,) * obs.ndim)
    return 2.0 * ((a - (obs < q)) * (obs - q)).mean(axis=0)


CRPS_BY_ESTIMATOR = {"ecdf": crps_exact, "sample": crps_exact, "quantile": crps_pinball}


def pair_distance_sums(ens: np.ndarray, rows: int = 256) -> np.ndarray:
    """sum_{i,j} ||x_i - x_j|| for an (S, H, D) ensemble, per step: (H,).

    Direct coordinate differences, in blocks of ``rows`` members so that the
    buffer stays at rows x S x D."""
    n, h, _ = ens.shape
    out = np.zeros(h)
    for t in range(h):
        x = ens[:, t, :]
        for start in range(0, n, rows):
            diff = x[start : start + rows, None, :] - x[None, :, :]
            out[t] += np.sqrt((diff * diff).sum(axis=2)).sum()
    return out


def energy_steps(ens: np.ndarray, obs: np.ndarray, pair_sums: np.ndarray | None = None) -> np.ndarray:
    """Energy score per step (beta = 1) of an (S, H, D) ensemble: (H,)."""
    if pair_sums is None:
        pair_sums = pair_distance_sums(ens)
    n = ens.shape[0]
    obs_term = np.sqrt(((ens - obs[None]) ** 2).sum(axis=2)).mean(axis=0)
    return obs_term - pair_sums / (2.0 * n * n)


def window_scores(ens: np.ndarray, obs: np.ndarray, estimator: str,
                  pair_sums: np.ndarray | None = None) -> dict:
    """Pointwise CRPS (H, D), summed-series CRPS (H,) and ES (H,) of one window."""
    crps = CRPS_BY_ESTIMATOR[estimator]
    return {
        "crps": crps(ens, obs),
        "crps_sum": crps(ens.sum(axis=2), obs.sum(axis=1)),
        "es": energy_steps(ens, obs, pair_sums),
    }


def aggregate(windows: list[dict], obs_windows: list[np.ndarray], normalization: str) -> dict:
    """Report values of one or more windows, raw means or target-normalised sums."""
    mat = np.concatenate([w["crps"] for w in windows], axis=0)
    cs = np.concatenate([w["crps_sum"] for w in windows])
    es = np.concatenate([w["es"] for w in windows])
    obs = np.concatenate(obs_windows, axis=0)
    if normalization == "raw":
        return {"crps_per_dim": mat.mean(axis=0), "crps": mat.mean(),
                "crps_sum": cs.mean(), "es": es.mean()}
    point = np.abs(obs)
    return {
        "crps_per_dim": mat.sum(axis=0) / point.sum(axis=0),
        "crps": mat.sum() / point.sum(),
        "crps_sum": cs.sum() / np.abs(obs.sum(axis=1)).sum(),
        "es": es.sum() / point.sum(),
    }


def check_score_dict(label: str, report: dict, want: dict, estimator: str,
                     mode: str, rtol: float = 1e-9) -> None:
    if report.get("estimator") != estimator or report.get("normalization_mode") != mode:
        raise CheckError(
            f"{label}: estimator/mode {report.get('estimator')}/"
            f"{report.get('normalization_mode')}, expected {estimator}/{mode}"
        )
    for key in ("crps_sum", "crps", "es", "crps_per_dim"):
        if report.get(key) is None:
            raise CheckError(f"{label}: missing {key}")
        _close(f"{label}.{key}", report[key], want[key], rtol)


# --------------------------------------------------------------------------
# Sample dumps
# --------------------------------------------------------------------------

def read_dump(path: Path, shape: tuple[int, int, int]) -> np.ndarray:
    """Read a (sample_id, t, dim, value) dump and require exactly S*H*D rows
    covering every index of ``shape`` once."""
    path = Path(path)
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable dump ({exc})") from None
    if header != "sample_id,t,dim,value":
        raise CheckError(f"{path}: header {header!r}")
    n_rows = shape[0] * shape[1] * shape[2]
    if table.shape != (n_rows, 4):
        raise CheckError(f"{path}: {table.shape[0]} rows, expected {n_rows}")
    idx = table[:, :3].astype(np.int64)
    if np.any(idx < 0) or np.any(idx >= np.array(shape)):
        raise CheckError(f"{path}: index out of range for shape {shape}")
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    if np.unique(flat).size != n_rows:
        raise CheckError(f"{path}: repeated (sample_id, t, dim) entries")
    out = np.empty(n_rows)
    out[flat] = table[:, 3]
    return out.reshape(shape)


# --------------------------------------------------------------------------
# grid: Gaussian expectations of each cell
# --------------------------------------------------------------------------

def _mean_norm(cov: np.ndarray, points: int = 4096) -> float:
    """E ||Z|| for Z ~ N(0, cov) in 2-D: with Z = r (sqrt(l1) cos t, sqrt(l2) sin t),
    r Rayleigh (mean sqrt(pi/2)) and t uniform, by the midpoint rule in t."""
    l1, l2 = np.clip(np.linalg.eigvalsh(cov), 0.0, None)
    theta = (np.arange(points) + 0.5) * (2.0 * math.pi / points)
    radial = np.sqrt(l1 * np.cos(theta) ** 2 + l2 * np.sin(theta) ** 2)
    return math.sqrt(math.pi / 2.0) * float(radial.mean())


@functools.lru_cache(maxsize=None)
def _normal_order_stat_means(n: int) -> np.ndarray:
    """E Z_(i), i = 1..n, of n standard normals, by numerical integration."""
    z = np.linspace(-9.0, 9.0, 18001)
    log_lo = np.log(_cdf(z))
    log_hi = np.log(_cdf(-z))
    i = np.arange(1, n + 1, dtype=np.float64)[:, None]
    log_c = (math.lgamma(n + 1) - _lgamma(i) - _lgamma(n - i + 1)).astype(np.float64)
    dens = np.exp(log_c + (i - 1) * log_lo + (n - i) * log_hi - 0.5 * z * z
                  - 0.5 * math.log(2.0 * math.pi))
    return (dens * z).sum(axis=1) * (z[1] - z[0])


def expected_grid_scores(rho: float, varrho: float, members: int,
                         n_quantiles: int = N_QUANTILES) -> tuple[float, float]:
    """Expected (quantile CRPS-Sum, ES) of one grid experiment.

    CRPS-Sum: the model sum is N(0, s^2), s^2 = 2 + 2 varrho, and the data sum
    N(0, t^2), t^2 = 2 + 2 rho.  The exact CRPS is sqrt(2 (s^2 + t^2) / pi) -
    s / sqrt(pi); the quantile estimator differs from it by the midpoint rule
    and by the finite ensemble.  The latter is taken into account by giving each
    sample quantile the exact mean of the interpolated normal order statistics
    and its asymptotic variance, treating it as Gaussian and independent of
    the observation.

    ES: E||X - Y|| - 0.5 (1 - 1/w) E||X - X'||, the (1 - 1/w) factor coming
    from the zero diagonal of the S^2-normalised pair sum.
    """
    alphas = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    order = _normal_order_stat_means(members)
    h = (members - 1) * alphas
    lo = np.floor(h).astype(int)
    frac = h - lo
    m = (1.0 - frac) * order[lo] + frac * order[np.minimum(lo + 1, members - 1)]
    u = _inv_cdf(alphas).astype(np.float64)
    v = alphas * (1.0 - alphas) / ((members + 2) * _pdf(u) ** 2)

    s2 = max(0.0, 2.0 + 2.0 * varrho)
    t2 = max(0.0, 2.0 + 2.0 * rho)
    delta = -math.sqrt(s2) * m  # mean of Y - q_hat
    omega = np.sqrt(t2 + s2 * v)  # its standard deviation
    if omega.min() > 0.0:
        r = delta / omega
        losses = alphas * delta - delta * _cdf(-r) + omega * _pdf(r)
        crps_sum = 2.0 * float(losses.mean())
    else:
        crps_sum = 0.0

    def cov(c: float) -> np.ndarray:
        return np.array([[1.0, c], [c, 1.0]])

    es = _mean_norm(cov(varrho) + cov(rho)) - 0.5 * (1.0 - 1.0 / members) * _mean_norm(2.0 * cov(varrho))
    return crps_sum, es


# A cell fails when its mean is off its expectation by more than GRID_MAX_REL
# of the expectation and by more than GRID_MAX_Z standard errors: a gross
# error is large in both senses, while chance makes one or the other large.
# The standard error comes from the same 64 skewed per-window scores as the
# mean, so when the windows happen to be alike it is small (seed 405,
# rho=-0.6, varrho=-0.2: a mean 24 % low, z = -8.2), and near a point-mass
# model it is large (seed 407, rho=-0.2, varrho=-0.9: 46 % high, z = 3.7).
# The family of cells is tested by the median of z and of |z|.  Over 98
# grids (seeds 100-149 and 400-447) the median of z was -0.30 to 0.23 and the
# median of |z| 0.54 to 0.81.  Over 50 grids (seeds 150-174 and 405-429) no
# cell came nearer failing than min(|rel| / 0.5, |z| / 6) = 0.73.
GRID_MAX_REL = 0.5
GRID_MAX_Z = 6.0
GRID_MAX_MEDIAN_Z = 0.6
GRID_MAX_MEDIAN_ABS_Z = 1.1


def grid_deviations(cells: list[dict], members: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per score, each cell's (mean - expectation) / expectation and
    (mean - expectation) / reported standard error."""
    expected = np.array([expected_grid_scores(c["rho"], c["varrho"], members) for c in cells])
    out = {}
    for k, score in enumerate(("crps_sum", "es")):
        mean = np.array([c[f"{score}_mean"] for c in cells])
        se = np.array([c[f"stderr_{score}"] for c in cells])
        dev = mean - expected[:, k]
        exact = np.abs(dev) <= 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(exact, 0.0, dev / expected[:, k])
            z = np.where(exact, 0.0, dev / se)
        out[score] = (np.nan_to_num(rel, nan=np.inf), np.nan_to_num(z, nan=np.inf))
    return out


def check_grid(out_dir: Path, rho_list, varrho_list, windows: int, members: int, seed: int) -> None:
    report = read_json(Path(out_dir) / "sensitivity.json")
    cells = report.get("cells")
    if not isinstance(cells, list) or len(cells) != len(rho_list) * len(varrho_list):
        raise CheckError(f"grid: {0 if cells is None else len(cells)} cells, "
                         f"expected {len(rho_list) * len(varrho_list)}")
    for k, c in enumerate(cells):
        rho, varrho = rho_list[k // len(varrho_list)], varrho_list[k % len(varrho_list)]
        if (abs(c["rho"] - rho) > 1e-12 or abs(c["varrho"] - varrho) > 1e-12
                or c["n_windows"] != windows or c["window_size"] != members or c["seed"] != seed):
            raise CheckError(f"grid: cell {k} is {c}, expected rho={rho} varrho={varrho}")
        for key in ("crps_sum_mean", "es_mean", "stderr_crps_sum", "stderr_es"):
            if not (isinstance(c[key], (int, float)) and math.isfinite(c[key]) and c[key] >= 0.0):
                raise CheckError(f"grid: cell {k} {key}={c[key]!r}")

    for score, (rel, z) in grid_deviations(cells, members).items():
        gross = (np.abs(rel) > GRID_MAX_REL) & (np.abs(z) > GRID_MAX_Z)
        if gross.any():
            c = cells[int(np.argmax(gross))]
            raise CheckError(f"grid: {score} at rho={c['rho']} varrho={c['varrho']} is "
                             f"{c[score + '_mean']!r}, off its expectation by more than "
                             f"{GRID_MAX_REL:.0%} and {GRID_MAX_Z:g} standard errors")
        if abs(np.median(z)) > GRID_MAX_MEDIAN_Z or np.median(np.abs(z)) > GRID_MAX_MEDIAN_ABS_Z:
            raise CheckError(f"grid: {score} standard errors from expectation: median "
                             f"{np.median(z):.3f}, median |z| {np.median(np.abs(z)):.3f}")

    # Relative changes against the matched cell of each row, from the report's own means.
    for k, c in enumerate(cells):
        ref = cells[(k // len(varrho_list)) * len(varrho_list) + list(varrho_list).index(c["rho"])]
        for mean_key, delta_key in (("crps_sum_mean", "delta_rel_crps_sum"), ("es_mean", "delta_rel_es")):
            if ref is c:
                want = 0.0
            elif ref[mean_key] > 0.0:
                want = (c[mean_key] - ref[mean_key]) / ref[mean_key]
            else:
                want = None
            got = c[delta_key]
            if want is None:
                if got is not None:
                    raise CheckError(f"grid: cell {k} {delta_key}={got!r}, expected null")
            elif got is None or abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise CheckError(f"grid: cell {k} {delta_key}={got!r}, expected {want!r}")

    header, rows = read_report_csv(Path(out_dir) / "sensitivity.csv")
    if len(rows) != len(cells):
        raise CheckError(f"grid: sensitivity.csv has {len(rows)} rows, expected {len(cells)}")
    for k, (row, c) in enumerate(zip(rows, cells)):
        for name, cell in zip(header, row):
            want = c[name]
            got = _csv_float(cell)
            if not (got == want or (want is None and math.isnan(got))):
                raise CheckError(f"grid: sensitivity.csv row {k} {name}={cell}, json {want!r}")


# --------------------------------------------------------------------------
# sweep: the persistence forecaster re-evaluated from its noise
# --------------------------------------------------------------------------

def tail_windows(table: np.ndarray, batches: int, horizon: int, input_length: int):
    """(last conditioning row, target window) of each tail split."""
    t_total = table.shape[0]
    out = []
    for k in range(batches):
        start = t_total - (batches - k) * horizon
        if start < input_length:
            raise ValueError(f"table of {t_total} rows is too short for {batches} splits")
        out.append((table[start - 1], table[start : start + horizon]))
    return out


def persistence_closed_form(windows) -> dict:
    """Target-normalised scores of a point mass at the last conditioning row."""
    dev = np.concatenate([target - last for last, target in windows], axis=0)
    obs = np.concatenate([target for _, target in windows], axis=0)
    summed_dev = np.concatenate([target.sum(axis=1) - last.sum() for last, target in windows])
    point = np.abs(obs).sum()
    return {
        "crps": np.abs(dev).sum() / point,
        "crps_sum": np.abs(summed_dev).sum() / np.abs(obs.sum(axis=1)).sum(),
        "es": np.sqrt((dev * dev).sum(axis=1)).sum() / point,
    }


class SweepExpectation:
    """Pooled quantile-estimator scores of the multivariate dummy forecaster.

    The forecaster's ensemble for split k is last_row + sigma * z with z the
    standard normals of the stream SeedSequence(entropy=(seed, k)), shared by
    every sigma.  The pair sums of z are computed once; the pair sums of an
    ensemble are sigma times those (rounding of last_row + sigma * z moves them
    by less than 1e-13 relative to any pooled score here).
    """

    def __init__(self, windows, samples: int, seed: int):
        self.windows = windows
        self.noise = []
        for k, (last, target) in enumerate(windows):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, k)))
            z = rng.standard_normal((samples,) + target.shape)
            self.noise.append((z, pair_distance_sums(z)))

    def scores(self, sigma: float) -> dict:
        per_window = []
        for (last, target), (z, pairs) in zip(self.windows, self.noise):
            ens = last + sigma * z
            per_window.append(window_scores(ens, target, "quantile", sigma * pairs))
        return aggregate(per_window, [t for _, t in self.windows], "target")


def check_sweep(out_dir: Path, sigmas, expectation: SweepExpectation, closed_form: dict) -> None:
    report = read_json(Path(out_dir) / "sigma_sweep.json")
    rows = report.get("rows")
    if not isinstance(rows, list) or len(rows) != len(sigmas):
        raise CheckError(f"sweep: {0 if rows is None else len(rows)} rows, expected {len(sigmas)}")
    keys = ("crps_sum", "crps", "es")
    for row, sigma in zip(rows, sigmas):
        if row.get("sigma") != sigma:
            raise CheckError(f"sweep: row sigma {row.get('sigma')!r}, expected {sigma!r}")
        if any(not isinstance(row.get(k), float) for k in keys):
            raise CheckError(f"sweep: sigma={sigma} row {row}")
        want = expectation.scores(sigma)
        for key in keys:
            _close(f"sweep: sigma={sigma} {key}", row[key], want[key], 1e-9)

    # The point-mass regime equals the persistence closed form ...
    point = rows[int(np.argmin(sigmas))]
    for key in keys:
        _close(f"sweep: sigma={point['sigma']} {key} (persistence closed form)",
               point[key], closed_form[key], 1e-12)
    # ... and below 1e-4 the gap to it shrinks in proportion to sigma.
    small = [row for row in rows if row is not point and row["sigma"] <= 1e-4]
    for key in keys:
        slopes = np.array([(row[key] - closed_form[key]) / row["sigma"] for row in small])
        if slopes.size and not (np.all(slopes * slopes[0] > 0.0)
                                and np.abs(slopes).max() <= 1.01 * np.abs(slopes).min()):
            raise CheckError(f"sweep: {key} gap / sigma {slopes.tolist()} is not constant")
    header, csv_rows = read_report_csv(Path(out_dir) / "sigma_sweep.csv")
    got = [[float(cell) for cell in r] for r in csv_rows]
    want = [[row[name] for name in header] for row in rows]
    if got != want:
        raise CheckError("sweep: sigma_sweep.csv numbers differ from sigma_sweep.json")


# --------------------------------------------------------------------------
# roundtrip: dumps and stored-ensemble scores
# --------------------------------------------------------------------------

def check_exchange_eval(out_dir: Path, windows, samples: int) -> None:
    """Check the dumps' completeness and scores.json against the dumps."""
    out_dir = Path(out_dir)
    report = read_json(out_dir / "scores.json")
    per_window = []
    for k, (_, target) in enumerate(windows):
        ens = read_dump(out_dir / f"samples_split_{k}.csv", (samples,) + target.shape)
        per_window.append(window_scores(ens, target, "quantile"))
        split = report.get("splits", {}).get(f"split_{k}")
        if split is None:
            raise CheckError(f"roundtrip: scores.json has no split_{k}")
        check_score_dict(f"roundtrip: split_{k}", split,
                         aggregate([per_window[-1]], [target], "target"),
                         "quantile", "target-normalized")
    if len(report.get("splits", {})) != len(windows):
        raise CheckError(f"roundtrip: scores.json has {len(report['splits'])} splits")
    check_score_dict("roundtrip: pooled", report.get("pooled", {}),
                     aggregate(per_window, [t for _, t in windows], "target"),
                     "quantile", "target-normalized")


def check_score(out_dir: Path, ens: np.ndarray, obs: np.ndarray, estimator: str, label: str) -> None:
    report = read_json(Path(out_dir) / "score.json")
    want = aggregate([window_scores(ens, obs, estimator)], [obs], "raw")
    check_score_dict(label, report, want, estimator, "raw")
