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
    synthetic_series.save(path)
    return path
