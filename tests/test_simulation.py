"""Correlated sampling, the sensitivity grid, and the convergence study."""
import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from scorecast import forecasters, multivariate, simulation
from scorecast.cli import main
from scorecast.data import make_rolling_splits
from scorecast.reporting import table
from scorecast.simulation import (
    DEFAULT_RHO_GRID,
    DEFAULT_VARRHO_GRID,
    ESTIMATORS,
    SCALES,
    GaussianSpec,
    GridCell,
    SensitivityConfig,
    _crps_quantile_batch,
    _energy_batch,
    bivariate_correlation_spec,
    relative_change,
    run_convergence_study,
    run_sensitivity_cell,
    run_sensitivity_grid,
)
from scorecast import crps_quantile, energy_score

from conftest import assert_no_children


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------

def _draw(rho, n, seed):
    """n draws of the bivariate law, mapped through factor() as the grid does."""
    z = np.random.default_rng(seed).standard_normal((n, 2))
    return z @ bivariate_correlation_spec(rho).factor().T


def test_sample_shape_and_determinism():
    a = _draw(0.3, 50, seed=9)
    b = _draw(0.3, 50, seed=9)
    assert a.shape == (50, 2)
    np.testing.assert_array_equal(a, b)
    c = _draw(0.3, 50, seed=10)
    assert not np.array_equal(a, c)


def test_perfect_positive_correlation_exact():
    x = _draw(1.0, 5000, seed=3)
    assert np.all(x[:, 0] == x[:, 1])


def test_perfect_negative_correlation_exact():
    """Degenerate rho = -1 must give exactly mirrored coordinates."""
    x = _draw(-1.0, 5000, seed=4)
    assert np.all(x[:, 0] + x[:, 1] == 0.0)


def test_independent_coordinates_uncorrelated():
    x = _draw(0.0, 100_000, seed=5)
    assert abs(np.corrcoef(x.T)[0, 1]) < 0.01


def test_sample_moments_converge():
    spec = bivariate_correlation_spec(0.6)
    x = _draw(0.6, 200_000, seed=6)
    np.testing.assert_allclose(x.mean(axis=0), [0.0, 0.0], atol=0.01)
    np.testing.assert_allclose(np.cov(x.T), spec.cov, atol=0.02)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValueError):
        GaussianSpec(mu=np.zeros(3), cov=np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        bivariate_correlation_spec(1.2)


# ---------------------------------------------------------------------------
# relative change
# ---------------------------------------------------------------------------

def test_relative_change_values():
    assert relative_change(0.5, 0.5) == 0.0
    assert relative_change(0.6, 0.5) == pytest.approx(0.2, rel=1e-14)
    assert relative_change(0.45, 0.5) == pytest.approx(-0.1, rel=1e-14)


def test_relative_change_domain():
    with pytest.raises(ValueError):
        relative_change(0.5, 0.0)
    with pytest.raises(ValueError):
        relative_change(0.5, -1.0)
    with pytest.raises(ValueError):
        relative_change(float("nan"), 1.0)


# ---------------------------------------------------------------------------
# vectorized batch scoring helpers
# ---------------------------------------------------------------------------

def test_quantile_batch_matches_scalar_calls(rng):
    samples = rng.standard_normal((12, 33))
    obs = rng.standard_normal(12)
    got = _crps_quantile_batch(samples, obs, 20)
    want = [crps_quantile(samples[i], float(obs[i]), 20) for i in range(12)]
    assert np.array_equal(got, want)


def test_energy_batch_matches_scalar_calls(rng):
    samples = rng.standard_normal((9, 21, 2))
    obs = rng.standard_normal((9, 2))
    got = _energy_batch(samples, obs)
    want = [energy_score(samples[i], obs[i]) for i in range(9)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_energy_batch_chunking_is_invisible(rng):
    """A batch scores each window exactly as a batch of that window alone:
    one stack of short bands (w=15) and a stack of two windows (w=300)."""
    for w, D in ((15, 2), (15, 3), (300, 2), (300, 3)):
        samples = rng.standard_normal((10, w, D))
        obs = rng.standard_normal((10, D))
        alone = [_energy_batch(samples[i : i + 1], obs[i : i + 1])[0] for i in range(10)]
        np.testing.assert_array_equal(_energy_batch(samples, obs), alone)


@pytest.mark.parametrize("w", [2, 128, 400, 2000])
def test_energy_stack_equals_windows_alone(w):
    """A few windows more than one stack: the last, short stack and every
    full one score each window as it scores alone, bit for bit."""
    gen = np.random.default_rng(w)
    n = multivariate._bands(w)[1] + 2
    samples = gen.standard_normal((n, w, 2))
    obs = gen.standard_normal((n, 2))
    for beta in (1.0, 1.5):
        alone = [_energy_batch(samples[i : i + 1], obs[i : i + 1], beta)[0] for i in range(n)]
        np.testing.assert_array_equal(_energy_batch(samples, obs, beta), alone)


def test_energy_batch_general_beta(rng):
    samples = rng.standard_normal((6, 18, 2))
    obs = rng.standard_normal((6, 2))
    got = _energy_batch(samples, obs, beta=1.5)
    want = [energy_score(samples[i], obs[i], beta=1.5) for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# sensitivity cells and grid
# ---------------------------------------------------------------------------

def test_cell_scores_deterministic_and_sane():
    a = run_sensitivity_cell(0.5, 0.2, n_windows=128, window_size=32, seed=11)
    b = run_sensitivity_cell(0.5, 0.2, n_windows=128, window_size=32, seed=11)
    assert a == b
    assert a.crps_sum_mean > 0 and a.es_mean > 0
    assert a.stderr_crps_sum > 0 and a.stderr_es > 0
    assert (a.n_windows, a.window_size) == (128, 32)


@pytest.mark.parametrize("rho", [-1.0, 0.4])
@pytest.mark.parametrize("varrho", [-1.0, -0.3, 0.5, 1.0])
def test_cell_matches_a_fresh_reference(rho, varrho):
    """The cell's cached factors and two-column sum give the same CRPS-Sum
    (and ES) bits as fresh factors and ``sum(axis=2)``."""
    n, w = 96, 32
    cell = run_sensitivity_cell(rho, varrho, n, w, seed=5)
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((n, 2)) @ bivariate_correlation_spec(rho).factor().T
    z = rng.standard_normal((n, w, 2))
    samples = z @ bivariate_correlation_spec(varrho).factor().T
    cs = _crps_quantile_batch(samples.sum(axis=2), obs.sum(axis=1), 20)
    es = _energy_batch(samples, obs)
    assert cell.crps_sum_mean == float(cs.mean())
    assert cell.stderr_crps_sum == float(cs.std(ddof=1) / math.sqrt(n))
    assert cell.es_mean == float(es.mean())


def _unchunked_cell(rho, varrho, n, w, seed):
    """The cell body that drew all n windows at once, before the chunks:
    per-window CRPS-Sum and ES values."""
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n, 2)) @ simulation._bivariate_factor(rho).T
    samples = rng.standard_normal((n, w, 2)) @ simulation._bivariate_factor(varrho).T
    summed = samples[..., 0] + samples[..., 1]
    return _crps_quantile_batch(summed, obs.sum(axis=1), 20), _energy_batch(samples, obs)


@pytest.mark.parametrize("w", [128, 400])
@pytest.mark.parametrize("varrho", [-1.0, 0.3, 1.0])
def test_chunked_cell_equals_the_whole_draw(w, varrho):
    """A cell drawn and scored a chunk of windows at a time gives the bits of
    one draw of all its windows, with a short last chunk or none."""
    chunk = simulation._chunk_windows(w)
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        cell = run_sensitivity_cell(0.3, varrho, n, w, seed=n)
        cs, es = _unchunked_cell(0.3, varrho, n, w, seed=n)
        assert cell.crps_sum_mean == float(cs.mean())
        assert cell.stderr_crps_sum == float(cs.std(ddof=1) / math.sqrt(n))
        assert cell.es_mean == float(es.mean())
        assert cell.stderr_es == float(es.std(ddof=1) / math.sqrt(n))


def _cell_peak(n_windows):
    run_sensitivity_cell(0.0, 0.5, 2, 2)  # imports numpy.random, caches the factors
    tracemalloc.start()
    try:
        run_sensitivity_cell(0.0, 0.5, n_windows, 128)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_memory_grows_only_by_its_per_window_values():
    """A cell holds one chunk of draws in the kept scratch, and the ES kernel
    its blocks after them, so a cell of one full chunk allocates less than
    its 1 MB of chunk buffers; only the observations and per-window scores
    grow with the window count."""
    assert _cell_peak(simulation._chunk_windows(128)) < 2 * multivariate._TILE * 8
    small, large = _cell_peak(4096), _cell_peak(16384)
    assert small < 4e6
    assert large - small < 1e6


def test_a_cell_borrows_only_the_kept_scratch(monkeypatch):
    """Every buffer that a cell and its ES kernel borrow is part of the
    process's kept scratch, so no cell faults in fresh pages.  At the desk
    shape (4096 x 128) the cell's chunk and the kernel's tile and stacks
    fill it exactly."""
    lent = []
    workspace = multivariate._workspace

    @contextlib.contextmanager
    def spy(size):
        with workspace(size) as work:
            lent.append(work)
            yield work

    monkeypatch.setattr(multivariate, "_workspace", spy)
    monkeypatch.setattr(simulation, "_workspace", spy)
    for n, w in ((64, 128), (4096, 128), (256, 512)):
        lent.clear()
        run_sensitivity_cell(0.0, 0.5, n, w, seed=0)
        assert len(lent) > 1  # the cell's chunk, then the kernel's stacks
        assert all(np.shares_memory(work, multivariate._scratch) for work in lent), (n, w)


def test_cached_factor_is_read_only():
    factor = simulation._bivariate_factor(0.4)
    assert np.array_equal(factor, bivariate_correlation_spec(0.4).factor())
    with pytest.raises(ValueError):
        factor[0, 0] = 1.0


def test_mismatched_model_scores_worse():
    """A strongly wrong model correlation should raise the energy score
    far beyond Monte Carlo error (properness, writ small)."""
    ref = run_sensitivity_cell(0.0, 0.0, n_windows=4096, window_size=128, seed=101)
    off = run_sensitivity_cell(0.0, 0.9, n_windows=4096, window_size=128, seed=202)
    gap = off.es_mean - ref.es_mean
    assert gap > 3.0 * math.hypot(off.stderr_es, ref.stderr_es)


def test_single_cell_grid_has_zero_deltas():
    cfg = SensitivityConfig(
        rho_list=(0.0,), varrho_list=(0.0,), n_windows=64, window_size=16, seed=1
    )
    rep = run_sensitivity_grid(cfg)
    assert len(rep.cells) == 1
    assert rep.cells[0].delta_rel_crps_sum == 0.0
    assert rep.cells[0].delta_rel_es == 0.0


@pytest.fixture(scope="module")
def micro_grid():
    cfg = SensitivityConfig(
        rho_list=(-1.0, 0.0, 0.5),
        varrho_list=(-1.0, 0.0, 0.5),
        n_windows=96,
        window_size=24,
        seed=7,
    )
    return cfg, run_sensitivity_grid(cfg)


def test_grid_is_complete(micro_grid):
    cfg, rep = micro_grid
    assert len(rep.cells) == len(cfg.rho_list) * len(cfg.varrho_list)
    # row-major: cell (i, j) is cells[i * len(varrho_list) + j]
    seen = [(c.rho, c.varrho) for c in rep.cells]
    assert seen == [(r, v) for r in cfg.rho_list for v in cfg.varrho_list]


def test_grid_reference_cells_have_zero_delta(micro_grid):
    cfg, rep = micro_grid
    n_cols = len(cfg.varrho_list)
    for i, r in enumerate(cfg.rho_list):
        cell = rep.cells[i * n_cols + cfg.varrho_list.index(r)]
        assert (cell.rho, cell.varrho) == (r, r)
        assert cell.delta_rel_crps_sum == 0.0
        assert cell.delta_rel_es == 0.0


def test_degenerate_row_yields_nan_crps_sum_deltas(micro_grid):
    """At rho = -1 the summed observations are identically zero, so the
    reference CRPS-Sum is 0 and relative changes are undefined off-reference."""
    _, rep = micro_grid
    ref, *others = rep.cells[:3]  # the row rho = -1: varrho = -1, 0, 0.5
    assert (ref.rho, ref.varrho) == (-1.0, -1.0)
    assert ref.crps_sum_mean == 0.0
    for cell in others:
        assert cell.rho == -1.0
        assert math.isnan(cell.delta_rel_crps_sum)
        assert math.isfinite(cell.delta_rel_es)
    # ES deltas stay well defined on the whole grid
    assert all(math.isfinite(c.delta_rel_es) for c in rep.cells)


def test_grid_deterministic(micro_grid):
    cfg, rep = micro_grid
    again = run_sensitivity_grid(cfg)
    # rows contain NaN deltas, so compare with NaN-tolerant equality
    np.testing.assert_equal(table(GridCell, rep.cells), table(GridCell, again.cells))


def test_grid_is_the_same_for_any_worker_count(micro_grid, monkeypatch, tmp_path):
    """The cells, and the CLI's report bytes, are the same in one process and
    over worker processes, also more workers than CPUs; none outlives the grid."""
    cfg, _ = micro_grid
    cells, reports = {}, {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulation, "_workers", lambda n_cells, w=workers: w)
        report, facts = simulation._run_grid(cfg)
        assert facts["workers"] == workers
        assert_no_children()
        cells[workers] = repr(report.cells)  # shortest round-trip floats: bit for bit
        # One --out for every run: the reports echo it.
        assert main(["sensitivity", "--n-windows", "6", "--window-size", "5",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        reports[workers] = {name: (tmp_path / name).read_bytes()
                            for name in ("sensitivity.csv", "sensitivity.json")}
        assert_no_children()
    assert cells[1] == cells[2] == cells[3]
    assert reports[1] == reports[2] == reports[3]


def test_a_stream_key_is_read_zero_padded_to_four_words():
    """``SeedSequence`` pads a key shorter than 4 words with zeros: keys equal
    once padded give one stream, so split k's stream is grid cell (k, 0)'s."""
    def draw(*key):
        return simulation._stream(*key).standard_normal(8)

    assert np.array_equal(draw(0, 3), draw(0, 3, 0))
    assert np.array_equal(draw(0, 3), draw(0, 3, 0, 0))
    assert not np.array_equal(draw(0, 3), draw(0, 3, 0, 0, 0))
    assert not np.array_equal(draw(0, 3), draw(0, 0, 3))
    assert np.array_equal(np.random.default_rng(7).standard_normal(8), draw(7, 0))


def test_each_run_draws_streams_distinct_once_padded(micro_grid, synthetic_series,
                                                     monkeypatch):
    """Every task of a grid, a sigma sweep and a convergence study has a key
    of its own, also once zero-padded to 4 words."""
    keys = []
    stream = simulation._stream

    def spy(*key):
        keys.append(key)
        return stream(*key)

    monkeypatch.setattr(simulation, "_stream", spy)
    monkeypatch.setattr(forecasters, "_stream", spy)
    monkeypatch.setattr(simulation, "_workers", lambda n_tasks: 1)  # every cell drawn here
    cfg, _ = micro_grid
    splits = make_rolling_splits(synthetic_series, n_batches=3, horizon=10, input_length=10)
    runs = {
        "grid": (lambda: run_sensitivity_grid(cfg), 9),
        "sweep": (lambda: forecasters.sigma_sweep("multivariate", [1e-2, 1e-9], splits,
                                                   n_samples=8, seed=cfg.seed), 3),
        # ecdf and sample: 2 sizes x 3 repeats each; quantile: 2 sizes x 2 counts x 3 repeats.
        "convergence": (lambda: run_convergence_study(sample_sizes=(10, 20), n_quantiles=(5, 10),
                                                      repeats=3, seed=cfg.seed), 24),
    }
    for name, (run, n_tasks) in runs.items():
        keys.clear()
        run()
        padded = {key + (0,) * (4 - len(key)) for key in keys}
        assert len(keys) == len(padded) == n_tasks, name


def test_one_cell_grid_starts_no_pool(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was forked for one cell")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = SensitivityConfig(rho_list=(0.0,), varrho_list=(0.0,), n_windows=16, window_size=8)
    report, facts = simulation._run_grid(cfg)
    assert facts["workers"] == 1
    assert len(report.cells) == 1


def test_a_cell_error_in_a_worker_reaches_the_caller(micro_grid, monkeypatch):
    cfg, _ = micro_grid
    real = simulation.run_sensitivity_cell

    def failing(rho, varrho, *args, **kwargs):
        if (rho, varrho) == (0.5, 0.0):
            raise ValueError(f"cell failed in process {os.getpid()}")
        return real(rho, varrho, *args, **kwargs)

    monkeypatch.setattr(simulation, "run_sensitivity_cell", failing)
    monkeypatch.setattr(simulation, "_workers", lambda n_cells: 2)
    with pytest.raises(ValueError, match="cell failed in process") as info:
        run_sensitivity_grid(cfg)
    assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()  # raised in a worker
    assert_no_children()


def test_cli_start_up_does_not_import_multiprocessing():
    """The library forks its workers itself, so neither the CLI's start-up
    nor a map over two workers imports ``multiprocessing``.  Start-up loads
    every module whose functions the traced benchmark wraps, and not
    ``numpy.random``, which only a draw needs."""
    code = ("import json, sys, scorecast.cli; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scorecast.')); "
            "random = 'numpy.random' in sys.modules; "
            "from scorecast import simulation; "
            "assert simulation._fork_map(abs, [-1, -2, -3], 2) == [1, 2, 3]; "
            "print(json.dumps([loaded, random, 'multiprocessing' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    loaded, random, multiprocessing = json.loads(proc.stdout)
    traced = ("cli", "reporting", "data", "forecasters", "multivariate", "crps", "simulation")
    assert set(loaded) >= {f"scorecast.{name}" for name in traced}
    assert not random and not multiprocessing


# ---------------------------------------------------------------------------
# the fork map under the grid and the sigma sweep
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process after ``seconds``, rather than hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_items", [0, 1, 7])
def test_fork_map_is_map_in_item_order(workers, n_items):
    """Items 0, n, 2n, ... run in this process and the rest in children."""
    items = [(k, -k) for k in range(n_items)]
    got = simulation._fork_map(lambda item: (item, os.getpid()), items, workers)
    assert [item for item, _ in got] == items
    for k, (_, pid) in enumerate(got):
        assert (pid == os.getpid()) == (k % workers == 0)
    assert_no_children()


def test_fork_map_raises_while_a_sibling_blocks_on_a_large_result():
    """A child stuck writing more than a pipe holds does not keep the error
    of another child from reaching the caller."""
    def fn(k):
        if k == 1:
            raise ValueError("item 1 failed")
        return bytes(2 << 20) if k == 2 else k

    with _deadline(30), pytest.raises(ValueError, match="^item 1 failed$"):
        simulation._fork_map(fn, range(3), 3)
    assert_no_children()


def test_fork_map_stops_its_children_when_this_process_fails():
    def fn(k):
        if k == 0:
            raise KeyError("item 0")
        time.sleep(60)

    with _deadline(30), pytest.raises(KeyError, match="item 0"):
        simulation._fork_map(fn, range(2), 2)
    assert_no_children()


def test_fork_map_names_the_status_of_a_child_without_a_result():
    with pytest.raises(RuntimeError, match="exited with status 3 without a readable result"):
        simulation._fork_map(lambda k: os._exit(3) if k == 3 else k, range(4), 2)
    assert_no_children()


def _refuse():
    raise ValueError("cannot be read back")


class _Unreadable:
    """Pickles, but raises when unpickled."""

    def __reduce__(self):
        return (_refuse, ())


def test_fork_map_yields_nothing_of_an_unreadable_result():
    with pytest.raises(RuntimeError, match="exited with status 0 without a readable result"):
        simulation._fork_map(lambda k: _Unreadable() if k == 3 else k, range(4), 2)
    assert_no_children()


def test_an_orphaned_child_stops_before_its_next_item(tmp_path):
    """A child whose parent has died runs no further item of its stride."""
    log = tmp_path / "items.log"
    code = f"""
import os, time
from scorecast import simulation

def fn(k):
    if k == 0:  # this process: wait for the child's first item, then die
        while not os.path.exists({str(log)!r}):
            time.sleep(0.01)
        os._exit(0)
    with open({str(log)!r}, "a") as fh:
        fh.write(f"{{k}}\\n")
    time.sleep(1.0)

simulation._fork_map(fn, range(10), 2)
"""
    # The child holds the captured output open, so this returns when it ends.
    subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, check=True)
    assert log.read_text() == "1\n"


def test_fork_map_forks_on_one_thread_without_a_warning():
    """Python 3.12+ warns when a process that runs threads forks.  With one
    BLAS thread, numpy starts none, so a map over two workers forks from a
    single-threaded process and warns nothing, even with warnings as errors."""
    code = (
        "import numpy as np; from scorecast import simulation\n"
        "np.ones((300, 300)) @ np.ones((300, 300))\n"
        "def threads(k):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(fh.read().split('Threads:')[1].split()[0])\n"
        "print(simulation._fork_map(threads, range(2), 2))\n"
    )
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc to count threads in")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.stdout, proc.stderr) == ("[1, 1]\n", "")


def test_grid_rows_match_csv_columns(micro_grid):
    cfg, rep = micro_grid
    columns, rows = table(GridCell, rep.cells)
    assert columns == (
        "rho", "varrho", "crps_sum_mean", "es_mean", "delta_rel_crps_sum",
        "delta_rel_es", "stderr_crps_sum", "stderr_es", "n_windows",
        "window_size", "seed",
    )
    assert len(rows) == len(rep.cells)
    lookup = dict(zip(columns, rows[0]))
    assert lookup["rho"] == rep.cells[0].rho
    assert lookup["seed"] == cfg.seed
    assert lookup["n_windows"] == cfg.n_windows


def test_sensitivity_config_scales():
    assert SCALES["paper"] == (2**14, 2**9)
    assert SCALES["desk"] == (2**12, 2**7)
    cfg = SensitivityConfig(scale="desk")
    assert (cfg.n_windows, cfg.window_size) == (2**12, 2**7)
    cfg = SensitivityConfig(scale="paper")
    assert (cfg.n_windows, cfg.window_size) == (2**14, 2**9)
    # explicit overrides beat the scale presets
    cfg = SensitivityConfig(scale="desk", n_windows=10, window_size=4)
    assert (cfg.n_windows, cfg.window_size) == (10, 4)


def test_sensitivity_config_validation():
    with pytest.raises(ValueError):
        SensitivityConfig(scale="laptop")
    with pytest.raises(ValueError):
        SensitivityConfig(seed=-1)
    with pytest.raises(ValueError):
        SensitivityConfig(rho_list=(1.5,))
    with pytest.raises(ValueError):
        SensitivityConfig(window_size=1)


def test_sensitivity_config_rejects_a_rho_without_its_reference_column():
    """Each rho row is measured against its varrho == rho cell, so that
    column must be on the grid."""
    with pytest.raises(ValueError, match="rho=0.3 has no matching varrho"):
        SensitivityConfig(rho_list=(0.0, 0.3), varrho_list=(0.0, 0.5))
    # A match within the grid's tolerance is the same column.
    cfg = SensitivityConfig(rho_list=(0.3,), varrho_list=(0.1 + 0.2,))
    assert cfg.rho_list == (0.3,)


def test_sensitivity_config_rejects_what_every_cell_rejects():
    """One window has no standard error; the config took n_windows=1 and the
    grid then failed in its first cell."""
    with pytest.raises(ValueError, match="at least 2 windows"):
        SensitivityConfig(n_windows=1, window_size=4)
    with pytest.raises(ValueError, match="at least 2 windows"):
        run_sensitivity_cell(0.0, 0.0, 1, 4, seed=0)


@pytest.mark.parametrize("option", [{"n_quantiles": 0}, {"n_quantiles": -3},
                                    {"beta": 0.0}, {"beta": 2.0}, {"beta": 5.0}])
def test_sensitivity_rejects_quantile_count_and_beta(option):
    """A zero quantile count gave NaN cells and beta=5 a finite ES; both are
    outside the scores' definitions and are rejected up front."""
    with pytest.raises(ValueError, match="n_quantiles|beta"):
        SensitivityConfig(n_windows=4, window_size=4, **option)
    with pytest.raises(ValueError, match="n_quantiles|beta"):
        run_sensitivity_cell(0.0, 0.0, 4, 4, seed=0, **option)


def test_default_grids():
    assert len(DEFAULT_RHO_GRID) == 11
    assert len(DEFAULT_VARRHO_GRID) == 21
    assert DEFAULT_RHO_GRID[0] == -1.0 and DEFAULT_RHO_GRID[-1] == 1.0
    assert DEFAULT_VARRHO_GRID[0] == -1.0 and DEFAULT_VARRHO_GRID[-1] == 1.0
    assert DEFAULT_RHO_GRID[6] == pytest.approx(0.2)
    assert DEFAULT_VARRHO_GRID[1] == pytest.approx(-0.9)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_study():
    return run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10, 20), repeats=6, seed=3
    )


def test_convergence_row_layout(small_study):
    # ecdf and sample get one row per size; quantile one per (size, count)
    assert len(small_study.rows) == 2 + 2 + 4
    kinds = {(r.estimator, r.sample_size, r.n_quantiles) for r in small_study.rows}
    assert ("ecdf", 50, None) in kinds
    assert ("sample", 200, None) in kinds
    assert ("quantile", 200, 10) in kinds


def test_convergence_values_in_plausible_band(small_study):
    for row in small_study.rows:
        assert 0.15 < row.mean < 0.35
        assert row.std > 0.0


def test_convergence_row_lookup(small_study):
    # rows run by estimator, then size, then quantile count
    keys = [(r.estimator, r.sample_size, r.n_quantiles) for r in small_study.rows]
    assert keys == [("ecdf", 50, None), ("ecdf", 200, None),
                    ("quantile", 50, 10), ("quantile", 50, 20),
                    ("quantile", 200, 10), ("quantile", 200, 20),
                    ("sample", 50, None), ("sample", 200, None)]


def test_convergence_deterministic(small_study):
    again = run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10, 20), repeats=6, seed=3
    )
    assert small_study.rows == again.rows


def test_convergence_rows_independent_of_selection():
    """A row's values depend only on its own configuration, not on which
    other configurations were requested alongside it."""
    alone = run_convergence_study(
        estimators=("sample",), sample_sizes=(200,), repeats=5, seed=3
    )
    combined = run_convergence_study(
        sample_sizes=(50, 200), n_quantiles=(10,), repeats=5, seed=3
    )
    assert alone.rows == [r for r in combined.rows if (r.estimator, r.sample_size) == ("sample", 200)]


def test_convergence_validation():
    with pytest.raises(ValueError):
        run_convergence_study(repeats=1)
    with pytest.raises(ValueError):
        run_convergence_study(estimators=("parametric",), repeats=3)
    with pytest.raises(ValueError):
        run_convergence_study(sample_sizes=(1,), repeats=3)
    assert ESTIMATORS == ("ecdf", "quantile", "sample")
