"""Row-by-row parsers of the two CSV formats, the reference for the bulk ones.

``data.load_multivariate_csv`` and ``cli._read_ensemble_csv`` parse a file in
one ``np.loadtxt`` pass and check the result as whole arrays.  Any input that
pass refuses comes here, and these loops alone decide the outcome: they return
the array, or raise ValueError naming the offending 1-based row.  A
well-formed file never reaches them.
"""
from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
from numpy.typing import NDArray

# A byte that ``errors="surrogateescape"`` could not decode.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _check_decoded(text: str, lineno: int, codec: str, where: str = "") -> None:
    match = _UNDECODED.search(text)
    if match:
        byte = ord(match.group()) - 0xDC00
        raise ValueError(f"{where}row {lineno}: byte 0x{byte:02x} is not {codec}")


def table_rows(
    path: Path, lines: Iterable[str], expected_dims: Optional[int]
) -> NDArray[np.float64]:
    """The (T, D) values of a headerless table given as its text lines."""
    rows: list[list[float]] = []
    width: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        _check_decoded(line, lineno, "ASCII", where=f"{path}: ")
        line = line.strip()
        if not line:
            continue  # tolerate blank lines (e.g. trailing newline)
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if expected_dims is not None and width != expected_dims:
                raise ValueError(
                    f"row {lineno}: expected {expected_dims} columns, found {width}"
                )
        elif len(parts) != width:
            raise ValueError(
                f"row {lineno}: expected {width} columns, found {len(parts)}"
            )
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


def dump_rows(path: Path) -> NDArray[np.float64]:
    """The (S, H, D) ensemble of a sample dump (sample_id, t, dim, value)."""
    entries = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            _check_decoded(",".join(header), 1, "UTF-8")
        if header is None or [h.strip() for h in header] != ["sample_id", "t", "dim", "value"]:
            raise ValueError("expected header 'sample_id,t,dim,value'")
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
    n_s = max(k[0] for k in entries) + 1
    n_t = max(k[1] for k in entries) + 1
    n_d = max(k[2] for k in entries) + 1
    if len(entries) != n_s * n_t * n_d:
        raise ValueError(
            f"expected {n_s * n_t * n_d} complete rows "
            f"({n_s} samples x {n_t} steps x {n_d} dims), found {len(entries)}"
        )
    out = np.empty((n_s, n_t, n_d))
    for (s, t, d), v in entries.items():
        out[s, t, d] = v
    return out
