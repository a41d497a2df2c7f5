"""Loading multivariate series from headerless CSV and building rolling
evaluation splits.

The exchange-rate benchmark file is a plain text table: one row per day,
eight comma-separated decimal columns, no header.  A gzip-compressed file
(suffix ``.gz``) is accepted transparently.
"""
from __future__ import annotations

import gzip
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray

from ._rowloop import table_rows

__all__ = [
    "MultivariateSeries",
    "EvaluationSplit",
    "load_multivariate_csv",
    "load_exchange_rate",
    "make_rolling_splits",
]

EXCHANGE_RATE_DIMS = 8


@dataclass
class MultivariateSeries:
    """A (T, D) array of aligned scalar series."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"series values must be 2-D (T, D), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series contains non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]


def _lines(path: Path):
    """The file's text lines, gunzipped if the suffix is ``.gz``.  A byte
    outside ASCII decodes to a lone surrogate, which the row loop reports."""
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="ascii", errors="surrogateescape") as fh:
            yield from fh
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ValueError(f"{path}: not a readable gzip file ({exc})") from None


# Printable ASCII, tab and line ends.  On these bytes np.loadtxt's number
# parsers agree with Python's int() and float(); outside them they do not (it
# strips \x1c-\x1f as whitespace and reads some non-ASCII digits).
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _plain_lines(data: bytes) -> Optional[list[str]]:
    """The text lines of ``data``, or None unless every byte is plain."""
    if data.translate(None, _PLAIN):
        return None
    return data.decode("ascii").splitlines()


def _loadtxt(lines: list[str], dtype, ndmin: int) -> Optional[np.ndarray]:
    """``np.loadtxt`` of comma-separated lines, or None where it fails or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        try:
            return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=ndmin, comments=None)
        except (ValueError, Warning):
            return None


def load_multivariate_csv(
    path: Union[str, Path],
    expected_dims: Optional[int] = None,
) -> MultivariateSeries:
    """Parse a headerless comma-separated table of real numbers.

    Malformed input raises ValueError naming the offending 1-based row (and
    column where applicable); a byte outside ASCII names the file and the
    row; a corrupt or truncated gzip file raises ValueError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")

    lines = list(_lines(path))
    plain = _plain_lines("".join(lines).encode("ascii", errors="surrogateescape"))
    values = None if plain is None else _loadtxt(plain, np.float64, ndmin=2)
    # Anything the bulk pass refuses goes to the row loop, which has the say.
    if (
        values is None
        or not np.isfinite(values).all()
        or (expected_dims is not None and values.shape[1] != expected_dims)
    ):
        values = table_rows(path, lines, expected_dims)
    return MultivariateSeries(values=values)


def load_exchange_rate(path: Union[str, Path]) -> MultivariateSeries:
    """Load the daily 8-currency exchange-rate table."""
    return load_multivariate_csv(path, expected_dims=EXCHANGE_RATE_DIMS)


@dataclass
class EvaluationSplit:
    """One rolling evaluation window: conditioning input plus target."""

    input_window: NDArray[np.float64]  # (input_length, D)
    target_window: NDArray[np.float64]  # (horizon, D)
    split_index: int
    target_start: int  # row index of the first target step in the source series


def make_rolling_splits(
    series: MultivariateSeries,
    n_batches: int = 5,
    horizon: int = 30,
    input_length: int = 30,
) -> list[EvaluationSplit]:
    """Cut consecutive non-overlapping target windows off the series tail.

    The last ``n_batches * horizon`` rows become targets: split k covers rows
    [T - (n_batches - k) * horizon, T - (n_batches - k - 1) * horizon) and is
    conditioned on the ``input_length`` rows immediately before it.
    """
    n_batches = int(n_batches)
    horizon = int(horizon)
    input_length = int(input_length)
    if min(n_batches, horizon, input_length) < 1:
        raise ValueError("n_batches, horizon and input_length must be positive")

    t_total = series.length
    needed = n_batches * horizon + input_length
    if t_total < needed:
        raise ValueError(
            f"series too short: {t_total} rows, need at least {needed} "
            f"({n_batches} batches x {horizon} steps + {input_length} input rows)"
        )

    splits = []
    for k in range(n_batches):
        start = t_total - (n_batches - k) * horizon
        splits.append(
            EvaluationSplit(
                input_window=series.values[start - input_length : start].copy(),
                target_window=series.values[start : start + horizon].copy(),
                split_index=k,
                target_start=start,
            )
        )
    return splits
