"""Headerless CSV loading, series validation, and rolling evaluation splits."""
import gzip
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scorecast._rowloop import table_rows
from scorecast.data import (
    EXCHANGE_RATE_DIMS,
    MultivariateSeries,
    _lines,
    _loadtxt,
    _plain_lines,
    load_exchange_rate,
    load_multivariate_csv,
    make_rolling_splits,
)


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------

def test_series_basic_properties():
    s = MultivariateSeries(values=np.arange(12.0).reshape(4, 3))
    assert s.length == 4
    assert s.n_dims == 3
    assert s.dim_names == ["dim_0", "dim_1", "dim_2"]


def test_series_custom_dim_names():
    s = MultivariateSeries(values=np.zeros((2, 2)), dim_names=["usd", "eur"])
    assert s.dim_names == ["usd", "eur"]
    with pytest.raises(ValueError):
        MultivariateSeries(values=np.zeros((2, 2)), dim_names=["only_one"])


def test_series_rejects_bad_values():
    with pytest.raises(ValueError):
        MultivariateSeries(values=np.zeros(5))  # 1-D
    with pytest.raises(ValueError):
        MultivariateSeries(values=np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_happy_path(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1.0,2.0\n3.5,-0.25\n")
    s = load_multivariate_csv(p)
    np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.5, -0.25]])


def test_load_tolerates_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n\n3,4\n\n")
    assert load_multivariate_csv(p).length == 2


def test_load_reports_row_of_column_mismatch(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n5,6,7\n")
    with pytest.raises(ValueError, match=r"row 3: expected 2 columns, found 3"):
        load_multivariate_csv(p)


def test_load_reports_row_and_column_of_bad_token(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(ValueError, match=r"row 2, column 2: could not parse 'oops'"):
        load_multivariate_csv(p)


def test_load_rejects_non_finite_tokens(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\nnan,4\n")
    with pytest.raises(ValueError, match=r"row 2, column 1"):
        load_multivariate_csv(p)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_multivariate_csv("/nonexistent/file.csv")


def test_load_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_multivariate_csv(p)


def test_save_load_round_trip_is_bit_exact(tmp_path, rng):
    original = MultivariateSeries(values=rng.standard_normal((40, 8)) * 1.7)
    path = tmp_path / "series.csv"
    original.save(path)
    again = load_multivariate_csv(path)
    np.testing.assert_array_equal(again.values, original.values)


def test_gzip_round_trip(tmp_path, rng):
    values = rng.standard_normal((10, 3))
    path = tmp_path / "series.csv.gz"
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write(text + "\n")
    np.testing.assert_array_equal(load_multivariate_csv(path).values, values)


@pytest.mark.parametrize("damage", ["not_gzip", "truncated", "corrupt"])
def test_load_rejects_corrupt_gzip_naming_the_file(tmp_path, damage):
    text = "".join(f"{i}.5,{3 * i}.25\n" for i in range(500)).encode("ascii")
    packed = gzip.compress(text, mtime=0)
    damaged = {
        "not_gzip": text,  # BadGzipFile
        "truncated": packed[: len(packed) // 2],  # EOFError
        "corrupt": packed[:20] + b"x" * 20 + packed[40:],  # zlib.error
    }
    path = tmp_path / "series.csv.gz"
    path.write_bytes(damaged[damage])
    with pytest.raises(ValueError, match=r"series\.csv\.gz: not a readable gzip file"):
        load_multivariate_csv(path)


@st.composite
def tables(draw):
    """Table text: finite values in shortest repr or padded, blank and
    whitespace-only lines anywhere, either line end."""
    n_rows, width = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (n_rows, width),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    lines = [",".join(f"{pad}{float(v)!r}{pad}" for v in row) for row in values]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    return values, draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tables(), gz=st.booleans())
def test_load_matches_row_loop(tmp_path, case, gz):
    """The bulk pass and the row loop read every table to the same bits; the
    bulk pass takes every table without whitespace-only lines."""
    values, text = case
    path = tmp_path / ("t.csv.gz" if gz else "t.csv")
    path.write_bytes(gzip.compress(text.encode("ascii"), mtime=0) if gz else text.encode("ascii"))
    got = load_multivariate_csv(path).values
    reference = table_rows(path, list(_lines(path)), None)
    assert got.tobytes() == reference.tobytes() == values.tobytes()
    plain = _plain_lines(text.encode("ascii"))
    bulk = _loadtxt(plain, np.float64, ndmin=2)
    if all(line.strip() or not line for line in plain):
        assert bulk is not None and bulk.tobytes() == values.tobytes()


def test_load_blank_only_table_warns_nothing(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_multivariate_csv(p)


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_load_names_file_and_row_of_a_byte_outside_ascii(tmp_path, suffix):
    text = "1.0,2.0\n3.0,4.0\u00e9\n".encode("utf-8")
    path = tmp_path / f"t{suffix}"
    path.write_bytes(gzip.compress(text, mtime=0) if suffix == ".csv.gz" else text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 2: byte 0xc3 is not ASCII$"):
        load_multivariate_csv(path)


def test_load_accepts_what_the_row_loop_accepts(tmp_path):
    """Whitespace-only lines and 1_0 pass the row loop, not loadtxt."""
    p = tmp_path / "t.csv"
    p.write_text("1_0,2\n \t\n3,4.5\n")
    np.testing.assert_array_equal(load_multivariate_csv(p).values, [[10.0, 2.0], [3.0, 4.5]])


def test_load_refers_control_characters_to_the_row_loop(tmp_path):
    """loadtxt and str.strip() take \\x1c for whitespace, float() does not:
    the row loop refuses the token (and prints it stripped)."""
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\x1c,4\n")
    with pytest.raises(ValueError, match=r"^row 2, column 1: could not parse '3' as a number$"):
        load_multivariate_csv(p)


def test_exchange_rate_loader_enforces_eight_columns(tmp_path):
    good = tmp_path / "rates.csv"
    good.write_text("1,2,3,4,5,6,7,8\n" * 3)
    series = load_exchange_rate(good)
    assert series.n_dims == EXCHANGE_RATE_DIMS

    bad = tmp_path / "short.csv"
    bad.write_text("1,2,3,4,5,6,7\n")
    with pytest.raises(ValueError, match="expected 8 columns, found 7"):
        load_exchange_rate(bad)


# ---------------------------------------------------------------------------
# rolling splits
# ---------------------------------------------------------------------------

def test_rolling_splits_tail_layout():
    """Two 30-step batches on 200 rows: targets [140,170) and [170,200)."""
    series = MultivariateSeries(values=np.arange(400.0).reshape(200, 2))
    splits = make_rolling_splits(series, n_batches=2, horizon=30, input_length=30)
    assert [s.split_index for s in splits] == [0, 1]
    assert [s.target_start for s in splits] == [140, 170]
    np.testing.assert_array_equal(splits[0].target_window, series.values[140:170])
    np.testing.assert_array_equal(splits[0].input_window, series.values[110:140])
    np.testing.assert_array_equal(splits[1].target_window, series.values[170:200])
    np.testing.assert_array_equal(splits[1].input_window, series.values[140:170])


def test_rolling_splits_shapes():
    series = MultivariateSeries(values=np.zeros((100, 4)))
    splits = make_rolling_splits(series, n_batches=3, horizon=10, input_length=25)
    assert len(splits) == 3
    for s in splits:
        assert s.input_window.shape == (25, 4)
        assert s.target_window.shape == (10, 4)


def test_rolling_splits_cover_series_tail_exactly():
    series = MultivariateSeries(values=np.arange(180.0).reshape(90, 2))
    splits = make_rolling_splits(series, n_batches=4, horizon=5, input_length=7)
    stitched = np.concatenate([s.target_window for s in splits])
    np.testing.assert_array_equal(stitched, series.values[-20:])


def test_rolling_splits_windows_are_copies():
    series = MultivariateSeries(values=np.zeros((100, 2)))
    split = make_rolling_splits(series, n_batches=1, horizon=10, input_length=10)[0]
    split.target_window[:] = 99.0
    assert np.all(series.values == 0.0)


def test_rolling_splits_too_short():
    series = MultivariateSeries(values=np.zeros((50, 2)))
    with pytest.raises(ValueError, match="series too short"):
        make_rolling_splits(series, n_batches=2, horizon=20, input_length=30)


def test_rolling_splits_argument_validation():
    series = MultivariateSeries(values=np.zeros((100, 2)))
    with pytest.raises(ValueError):
        make_rolling_splits(series, n_batches=0)
    with pytest.raises(ValueError):
        make_rolling_splits(series, horizon=0)
    with pytest.raises(ValueError):
        make_rolling_splits(series, input_length=0)
