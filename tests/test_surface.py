"""The library's named surface: every export resolves, and every function the
benchmark's per-layer metrics name still exists."""
import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MODULES = ("crps", "data", "forecasters", "multivariate", "reporting", "simulation")


def _pinned() -> list[tuple[str, str]]:
    """(module, function) of every per-layer metric named module.function.stat."""
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})


def test_benchmark_names_functions():
    assert _pinned()


@pytest.mark.parametrize("module, function", _pinned(), ids=[".".join(p) for p in _pinned()])
def test_benchmark_layer_function_exists(module, function):
    """The traced benchmark wraps these by name and reports a missing one as
    null, which fails the benchmark's run."""
    assert callable(getattr(importlib.import_module(f"scorecast.{module}"), function, None))


@pytest.mark.parametrize("module", ("scorecast", *(f"scorecast.{m}" for m in MODULES)))
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_one_dump_writer():
    """``data`` writes the sample dump; the name ``forecasters`` re-exports,
    which the benchmark times, is that same function."""
    from scorecast import data, forecasters

    assert forecasters.ensemble_to_csv is data.ensemble_to_csv
