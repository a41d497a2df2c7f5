"""Deterministic report writers.

Same inputs must produce byte-identical CSV/JSON payloads, so floats are
rendered with shortest round-trip repr and key order is fixed.  Reports name
the package version, never the checkout they ran from; volatile run facts
(timestamps, wall time, ``git describe``) go only to the run manifest.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import astuple, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import __version__

__all__ = [
    "artifact_version",
    "format_value",
    "table",
    "write_csv",
    "write_json",
    "write_manifest",
]

@lru_cache(maxsize=1)
def artifact_version() -> str:
    """Git describe of the working tree, falling back to the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


def format_value(value) -> str:
    """Render a cell: shortest round-trip repr for floats, plain str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table(row_type: type, rows: Iterable) -> tuple[tuple[str, ...], list[tuple]]:
    """A report table of dataclass rows: (columns, rows).

    The columns are the fields of ``row_type`` in declaration order, the
    order of the keys of the row's ``dataclasses.asdict`` as well; taking
    the type gives an empty table its header too.
    """
    return tuple(f.name for f in fields(row_type)), [astuple(row) for row in rows]


def write_csv(
    path: Union[str, Path],
    columns: Sequence[str],
    rows: Sequence[Sequence],
    meta: Optional[dict] = None,
) -> None:
    """Write a tidy CSV with '# key=value' metadata comment lines on top.

    Every report names the package version and the effective configuration;
    consumers that dislike comments can skip lines starting with '#'.
    """
    meta = dict(meta or {})
    meta.setdefault("version", __version__)
    lines = [f"# {key}={_meta_value(val)}" for key, val in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _meta_value(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_sanitize(value), separators=(",", ":"))
    return format_value(value)


def _sanitize(obj):
    """Make a payload strict-JSON safe: non-finite floats become null."""
    if isinstance(obj, float):
        return obj if obj == obj and obj not in (float("inf"), float("-inf")) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def write_json(path: Union[str, Path], payload: dict, config: Optional[dict] = None) -> None:
    """Write a JSON report carrying the package version and effective config."""
    document = {"version": __version__}
    if config is not None:
        document["config"] = _sanitize(config)
    document.update(_sanitize(payload))
    Path(path).write_text(
        json.dumps(document, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )


def _peak_rss_mb(who: int) -> float:
    """Peak resident set size of this process or of its largest reaped child."""
    kib = resource.getrusage(who).ru_maxrss / (1024.0 if sys.platform == "darwin" else 1.0)
    return round(kib / 1024.0, 1)


def write_manifest(
    path: Union[str, Path],
    command: str,
    config: dict,
    seed: Optional[int],
    wall_time_s: float,
    facts: Optional[dict] = None,
) -> None:
    """Run manifest: config echo, seed, versions, wall time, the run's
    ``facts`` (measurements a command adds), peak memory, the interpreter,
    numpy and CPU count, and a timestamp.

    The timestamp, wall time, measurements and ``git describe`` of the
    checkout make this the one non-reproducible report file; determinism
    comparisons should exclude it.
    """
    payload = {
        "command": command,
        "version": __version__,
        "git_describe": artifact_version(),
        "seed": seed,
        "config": _sanitize(config),
        "wall_time_s": round(wall_time_s, 3),
        **(facts or {}),
        "peak_rss_mb_self": _peak_rss_mb(resource.RUSAGE_SELF),
        "peak_rss_mb_children": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
