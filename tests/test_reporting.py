"""Deterministic CSV/JSON emitters."""
import json
import os
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from scorecast import __version__
from scorecast.reporting import (
    artifact_version,
    format_value,
    write_csv,
    write_json,
    write_manifest,
)

from conftest import read_report_csv


def test_artifact_version_is_stable_non_empty():
    v = artifact_version()
    assert isinstance(v, str) and v
    assert artifact_version() == v  # cached, same every call


def test_pyproject_version_is_the_package_version():
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        project = pyproject.read_configuration(path)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == __version__


def test_format_value():
    assert format_value(None) == ""
    assert format_value(0.1) == "0.1"
    assert format_value(1.0) == "1.0"
    assert format_value(7) == "7"
    assert format_value("quantile") == "quantile"
    assert format_value(float("nan")) == "nan"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(
        path,
        ("alpha", "value"),
        [(0.5, 1.25), (0.1, None)],
        meta={"seed": 3, "config": {"n": 2}},
    )
    meta, header, rows = read_report_csv(path)
    assert meta["seed"] == "3"
    assert json.loads(meta["config"]) == {"n": 2}
    assert list(meta) == ["seed", "config", "version"]
    assert meta["version"] == __version__
    assert header == ["alpha", "value"]
    assert rows == [["0.5", "1.25"], ["0.1", ""]]


def test_write_csv_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [(0.1 + 0.2, -1.5e-7)]
    write_csv(a, ("x", "y"), rows, meta={"seed": 1})
    write_csv(b, ("x", "y"), rows, meta={"seed": 1})
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    value = 0.1 + 0.2  # not equal to 0.3; repr must preserve that
    write_csv(path, ("v",), [(value,)])
    _, _, rows = read_report_csv(path)
    assert float(rows[0][0]) == value


def test_write_json_embeds_version_and_config(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"rows": [1, 2]}, config={"seed": 5})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"seed": 5}
    assert doc["rows"] == [1, 2]
    assert list(doc) == ["version", "config", "rows"]
    assert doc["version"] == __version__


def test_write_json_sanitizes_non_finite(tmp_path):
    path = tmp_path / "r.json"
    write_json(
        path,
        {"a": float("nan"), "b": [1.0, float("inf")], "c": {"d": float("-inf")}},
    )
    doc = json.loads(path.read_text())
    assert doc["a"] is None
    assert doc["b"] == [1.0, None]
    assert doc["c"] == {"d": None}


def test_write_manifest_fields(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "convergence", {"repeats": 5, "bad": float("nan")}, 7, 1.23456,
                   {"workers": 2})
    doc = json.loads(path.read_text())
    assert list(doc)[:3] == ["command", "version", "git_describe"]
    assert doc["command"] == "convergence"
    assert doc["version"] == __version__
    assert doc["git_describe"] == artifact_version()
    assert doc["seed"] == 7
    assert doc["config"]["repeats"] == 5
    assert doc["config"]["bad"] is None
    assert doc["wall_time_s"] == 1.235
    assert doc["workers"] == 2
    assert doc["peak_rss_mb_self"] > 10.0  # an interpreter with numpy loaded
    assert doc["peak_rss_mb_children"] >= 0.0
    assert doc["python"] == platform.python_version()
    assert doc["numpy"] == np.__version__
    assert doc["cpu_count"] == os.cpu_count()
    assert "timestamp_utc" in doc


def test_csv_meta_handles_nan_inside_config(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(path, ("v",), [(1.0,)], meta={"config": {"x": float("nan")}})
    meta, _, _ = read_report_csv(path)
    assert json.loads(meta["config"]) == {"x": None}
