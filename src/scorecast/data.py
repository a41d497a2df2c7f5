"""Reading both CSV inputs, and building rolling evaluation splits.

A table (the exchange-rate file: one row per day, eight comma-separated
columns, no header; gzipped if the suffix is ``.gz``) and a sample dump (an
(S, H, D) ensemble as ``DUMP_HEADER`` rows) are each read once, as bytes, and
parsed in one ``np.loadtxt`` pass checked on whole arrays.  Input that pass
refuses goes to the format's row loop over the same bytes, which alone
decides: it returns the array or raises ValueError naming the bad 1-based row.
"""
from __future__ import annotations

import csv
import gzip
import io
import itertools
import re
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "MultivariateSeries",
    "EvaluationSplit",
    "load_multivariate_csv",
    "load_exchange_rate",
    "load_ensemble_csv",
    "make_rolling_splits",
]

EXCHANGE_RATE_DIMS = 8
DUMP_HEADER = "sample_id,t,dim,value"  # a sample dump's first line


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


def _read(path: Path) -> bytes:
    """The file's bytes, gunzipped if the suffix is ``.gz`` (by ``GzipFile``,
    whose errors say more than ``gzip.decompress``'s)."""
    data = path.read_bytes()
    if path.suffix != ".gz":
        return data
    try:
        return gzip.GzipFile(fileobj=io.BytesIO(data)).read()
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

    data = _read(path)
    plain = _plain_lines(data)
    values = None if plain is None else _loadtxt(plain, np.float64, ndmin=2)
    # Anything the bulk pass refuses goes to the row loop, which has the say.
    if (
        values is None
        or not np.isfinite(values).all()
        or (expected_dims is not None and values.shape[1] != expected_dims)
    ):
        values = _table_rows(path, data, expected_dims)
    return MultivariateSeries(values=values)


def load_exchange_rate(path: Union[str, Path]) -> MultivariateSeries:
    """Load the daily 8-currency exchange-rate table."""
    return load_multivariate_csv(path, expected_dims=EXCHANGE_RATE_DIMS)


_DUMP_ROW = np.dtype([("s", np.int64), ("t", np.int64), ("d", np.int64), ("v", np.float64)])


def load_ensemble_csv(path: Union[str, Path]) -> NDArray[np.float64]:
    """Read a sample dump (sample_id, t, dim, value), rows in any order, back
    into (S, H, D); malformed input raises ValueError saying what is wrong."""
    data = Path(path).read_bytes()
    ensemble = _bulk_ensemble(data)
    return _dump_rows(data) if ensemble is None else ensemble


def _bulk_ensemble(data: bytes) -> Optional[np.ndarray]:
    """The dump's (S, H, D) array from one ``np.loadtxt`` pass, or None where
    the pass or a whole-array check refuses it."""
    lines = _plain_lines(data)
    if not lines or [h.strip() for h in lines[0].split(",")] != DUMP_HEADER.split(","):
        return None
    rows = _loadtxt(lines[1:], _DUMP_ROW, ndmin=1)
    # loadtxt skips blank lines, which the row loop rejects.
    if rows is None or len(rows) != len(lines) - 1:
        return None
    index = (rows["s"], rows["t"], rows["d"])
    if min(int(i.min()) for i in index) < 0:
        return None
    shape = tuple(int(i.max()) + 1 for i in index)
    if shape[0] * shape[1] * shape[2] != len(rows):
        return None
    # A full count of in-range indices fills every cell once unless one repeats.
    flat = np.ravel_multi_index(index, shape)
    seen = np.zeros(len(rows), dtype=bool)
    seen[flat] = True
    if not seen.all():
        return None
    out = np.empty(shape)
    out.reshape(-1)[flat] = rows["v"]
    return out


# --------------------------------------------------------------------------
# the row loops: the reference for the bulk passes, and the only readers of
# what those refuse

# A byte that ``errors="surrogateescape"`` could not decode.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _check_decoded(text: str, lineno: int, codec: str, where: str = "") -> None:
    match = _UNDECODED.search(text)
    if match:
        byte = ord(match.group()) - 0xDC00
        raise ValueError(f"{where}row {lineno}: byte 0x{byte:02x} is not {codec}")


def _table_rows(path: Path, data: bytes, expected_dims: Optional[int]) -> NDArray[np.float64]:
    """The (T, D) values of a headerless table, read from its bytes line by
    line, with the line ends a text-mode ``open`` reads."""
    rows: list[list[float]] = []
    width: Optional[int] = None
    lines = io.StringIO(data.decode("ascii", "surrogateescape"), newline=None)
    for lineno, line in enumerate(lines, start=1):
        _check_decoded(line, lineno, "ASCII", where=f"{path}: ")
        line = line.strip()
        if not line:
            continue  # tolerate blank lines (e.g. trailing newline)
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if expected_dims is not None and width != expected_dims:
                raise ValueError(f"row {lineno}: expected {expected_dims} columns, found {width}")
        elif len(parts) != width:
            raise ValueError(f"row {lineno}: expected {width} columns, found {len(parts)}")
        row = []
        for col, token in enumerate(parts, start=1):
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"row {lineno}, column {col}: could not parse {token.strip()!r} as a number"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"row {lineno}, column {col}: non-finite value {token.strip()!r}"
                )
            row.append(value)
        rows.append(row)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _csv_rows(text: io.StringIO) -> Iterator[list[str]]:
    """``csv.reader(text)``, with a ``csv.Error`` (a field over
    ``csv.field_size_limit()``) raised as a ValueError naming its 1-based row."""
    reader = csv.reader(text)
    for row_no in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"row {row_no}: {exc}") from None
        yield row


def _dump_rows(data: bytes) -> NDArray[np.float64]:
    """The (S, H, D) ensemble of a sample dump, read from its bytes row by row."""
    entries = {}
    reader = _csv_rows(io.StringIO(data.decode("utf-8", "surrogateescape"), newline=""))
    header = next(reader, None)
    if header is not None:
        _check_decoded(",".join(header), 1, "UTF-8")
    if header is None or [h.strip() for h in header] != DUMP_HEADER.split(","):
        raise ValueError(f"expected header '{DUMP_HEADER}'")
    for lineno, row in enumerate(reader, start=2):
        _check_decoded(",".join(row), lineno, "UTF-8")
        try:
            s, t, d, v = row  # exactly four fields
            s, t, d, v = int(s), int(t), int(d), float(v)
        except ValueError:
            raise ValueError(f"malformed row {lineno}: {row}") from None
        # With no negative or repeated index, a full count fills every cell once.
        if min(s, t, d) < 0 or (s, t, d) in entries:
            raise ValueError(f"negative or repeated index in row {lineno}: {row}")
        entries[(s, t, d)] = v
    if not entries:
        raise ValueError("no data rows")
    n_s, n_t, n_d = (max(k[i] for k in entries) + 1 for i in range(3))
    if len(entries) != n_s * n_t * n_d:
        raise ValueError(
            f"expected {n_s * n_t * n_d} complete rows "
            f"({n_s} samples x {n_t} steps x {n_d} dims), found {len(entries)}"
        )
    out = np.empty((n_s, n_t, n_d))
    for (s, t, d), v in entries.items():
        out[s, t, d] = v
    return out


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
