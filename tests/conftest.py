"""Shared fixtures and helpers for the scorecast test suite."""
import os
from pathlib import Path

import numpy as np
import pytest

from scorecast.data import MultivariateSeries


def read_report_csv(path):
    """Parse one of our CSV reports into (meta_dict, header, rows-of-strings)."""
    meta = {}
    header = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    return meta, header, rows


def write_table(path, values):
    """Write a (T, D) array as a headerless CSV table of shortest-repr floats,
    which the loaders read back bit for bit."""
    with open(path, "w", encoding="ascii") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# Scoring options that every report, and each public score that takes them,
# checks before it reads an array: (keyword arguments, the error's match).
BAD_BETA_OPTIONS = [
    pytest.param({"beta": 0.0}, "beta", id="beta-0"),
    pytest.param({"beta": 2.0}, "beta", id="beta-2"),
    pytest.param({"beta": 3.0}, "beta", id="beta-3"),
]
BAD_ESTIMATOR_OPTIONS = [
    pytest.param({"estimator": "bogus"}, "unknown estimator", id="estimator"),
    pytest.param({"estimator": "quantile", "n_quantiles": 0}, "n_quantiles must be positive",
                 id="n_quantiles"),
]
BAD_SCORING_OPTIONS = [
    pytest.param({"normalization": "bogus"}, "normalization", id="normalization"),
    *BAD_BETA_OPTIONS,
    *BAD_ESTIMATOR_OPTIONS,
]


def fail_on_read(*args, **kwargs):
    """A stand-in for an array check (``multivariate._as_ensemble``,
    ``crps._as_sample_vector``) in tests that check an option before any
    array is read."""
    raise AssertionError("read an array before checking the scoring options")


def assert_no_children():
    """No child of this process is left, running or unwaited-for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def synthetic_series():
    """A smooth 8-dimensional series long enough for a couple of 30-step splits.

    Built from slow sinusoids plus small noise so 'last value' persistence is
    a sane (not absurd) forecast and target sums stay away from zero.
    """
    gen = np.random.default_rng(77)
    t = np.arange(160)[:, None]
    phases = np.linspace(0.0, 2.1, 8)[None, :]
    values = 1.5 + 0.3 * np.sin(0.05 * t + phases) + 0.01 * gen.standard_normal((160, 8))
    return MultivariateSeries(values=values)


@pytest.fixture
def synthetic_series_file(tmp_path, synthetic_series):
    path = tmp_path / "synthetic_rates.csv"
    write_table(path, synthetic_series.values)
    return path
