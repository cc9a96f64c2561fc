import csv
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcoh import tables
from nvcoh.tables import DataError, read_numeric_csv


def per_row(path):
    """The labels and values of the cell-by-cell path alone."""
    return tables._read_rows(Path(path), tables._parse_each_row)


def fast(path):
    """The values of the chunked path alone; None where it defers."""
    return tables._read_rows(Path(path), tables._parse_chunks)[1]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_FORMATS = st.sampled_from([
    repr,
    lambda x: "%.17g" % x,
    lambda x: str(int(x)) if abs(x) < 1e18 else repr(x),
    lambda x: "%.6e" % x,
    lambda x: "%.3E" % x,
])
_PADDING = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def _recordings(draw):
    n_cols = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 30))
    rows = []
    for _ in range(n_rows):
        cells = []
        for _ in range(n_cols):
            x, fmt = draw(_FLOATS), draw(_FORMATS)
            text = fmt(x)
            if not np.isfinite(float(text)):  # rounded up past the largest float
                text = repr(x)
            cells.append(draw(_PADDING) + text + draw(_PADDING))
        rows.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([",".join(f"c{j}" for j in range(n_cols))] + rows)
    if draw(st.booleans()):
        text += end
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode()


class TestChunkedParse:
    @settings(max_examples=150, deadline=None)
    @given(_recordings(), st.integers(1, 400))
    def test_equals_the_per_row_parse(self, raw, chunk_chars):
        # chunks of as little as one line, so rows span several loadtxt calls
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            path.write_bytes(raw)
            with mock.patch.object(tables, "_CHUNK_CHARS", chunk_chars):
                got = fast(path)
                labels, data = read_numeric_csv(path)
            want_labels, want = per_row(path)
        assert got is not None  # the chunked path took every such file
        assert labels == want_labels
        assert got.shape == want.shape and bits(got) == bits(want)
        assert bits(data) == bits(want)

    @settings(max_examples=600, deadline=None)
    @given(st.text(st.sampled_from(list("0123456789.eE+-_ \t\x0b\x0c\xa0　\x85"
                                        "\x1c\x1d\x1e\x1finfatyINFATY")),
                   min_size=1, max_size=12))
    def test_never_accepts_a_cell_float_refuses(self, cell):
        got = tables._parse_chunks(io.StringIO(cell + "\n"), "x", ("a",))
        try:
            want = float(cell)
        except ValueError:
            want = None
        if got is None:
            return  # deferred to the per-row path, which is float itself
        assert want is not None, f"the chunked path accepted {cell!r}"
        assert got.shape == (1, 1) and bits(got) == bits([[want]])

    def test_array_is_allocated_once_when_later_lines_are_shorter(self, tmp_path):
        # the first chunk's lines are one character longer than the rest, so
        # its characters per line alone put the file's rows about 1,200 short;
        # sized from every character read so far plus one chunk's lines, the
        # array is never regrown, and never held twice while it is copied
        cols = 16
        wide = ",".join(["10"] + ["1"] * (cols - 1)) + "\n"
        narrow = ",".join(["1"] * cols) + "\n"
        path = tmp_path / "rec.csv"
        path.write_text(",".join(f"c{i}" for i in range(cols)) + "\n"
                        + wide * (tables._CHUNK_CHARS // len(wide) + 1)
                        + narrow * (5 * tables._CHUNK_CHARS // len(narrow)))
        import tracemalloc

        tracemalloc.start()
        try:
            data = read_numeric_csv(path)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (tables._CHUNK_CHARS // len(wide) + 1
                              + 5 * tables._CHUNK_CHARS // len(narrow), cols)
        # the array and its slack, plus one chunk's text, its loadtxt copy and
        # rows; a regrown array (about three times the data) does not fit
        assert peak < 2 * data.nbytes

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separators_float_refuses_are_kept_from_loadtxt(self, sep):
        # loadtxt strips these around a number, so the chunked path must defer
        cell = "1" + sep
        assert np.loadtxt([cell], delimiter=",", comments=None, ndmin=2)[0, 0] == 1.0
        with pytest.raises(ValueError):
            float(cell)
        assert tables._parse_chunks(io.StringIO(cell + "\n"), "x", ("a",)) is None


@pytest.mark.parametrize("text, want", [
    ("a,b\n1,2\n\n3,4\n", "ragged row 3 has 0 cells, expected 2"),
    ("a,b\n1,2\n   \n3,4\n", "ragged row 3 has 1 cells, expected 2"),
    ("a\n1\n   \n3\n", "row 3, column a: cannot parse '   '"),
    ("a,b\n1_000,2\n", [[1000.0, 2.0]]),
    ("a,b\n\"1.5\",2\n", [[1.5, 2.0]]),
    ("a,b\n1,2,\n", "ragged row 2 has 3 cells, expected 2"),
    ("a,b\n1,2\n#,4\n", "row 3, column a: cannot parse '#'"),
    ("a,b\n1,2\n3,nan\n", "non-finite value at row 3, column b"),
    ("a,b\n1e400,2\n", "non-finite value at row 2, column a"),
    ("a,b\n", "no data rows"),
    ("a,b\n\n", "ragged row 2 has 0 cells, expected 2"),
    ("a,b\n1.5,-2e-3\n", [[1.5, -0.002]]),
    ("a\n1\n2\n", [[1.0], [2.0]]),
    ("a,b\n1\x1c,2\n", "row 2, column a: cannot parse '1\\x1c'"),
    ("a,b\n١,2\n", [[1.0, 2.0]]),
    ("a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    ("", "empty file"),
], ids=["blank_line", "whitespace_line", "whitespace_line_one_column", "underscore",
        "quoted", "trailing_comma", "hash_cell", "nan", "overflow", "header_only",
        "header_then_blank", "one_row", "one_column", "file_separator",
        "arabic_indic_digit", "no_final_newline", "empty"])
def test_edge_files_keep_their_value_or_message(tmp_path, text, want):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI prints a warning as a line of its own
        try:
            got = read_numeric_csv(path)
        except DataError as exc:
            got = exc
    if isinstance(want, str):
        assert isinstance(got, DataError) and str(got) == f"{path}: {want}"
    else:
        labels, data = got
        assert bits(data) == bits(want) and data.shape == np.shape(want)
        assert labels == tuple(text.split("\n")[0].split(","))


@pytest.mark.parametrize("raw, want", [
    (b"a,b\n1,2\n\xff,3\n", "not UTF-8 text (invalid start byte)"),
    (b"a,\xff\n1,2\n", "not UTF-8 text (invalid start byte)"),
], ids=["data_row", "header"])
def test_bytes_that_are_not_utf8_are_a_data_error(tmp_path, raw, want):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError) as info:
        read_numeric_csv(path)
    assert str(info.value) == f"{path}: {want}"


def test_a_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError) as info:
        read_numeric_csv(tmp_path)
    assert str(info.value) == f"cannot read {tmp_path}: Is a directory"


def test_a_cell_past_the_csv_field_limit_is_a_data_error(tmp_path):
    # loadtxt reads such a cell; the per-row path refuses it
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n0." + "0" * limit + "1\n")
    with pytest.raises(DataError) as info:
        read_numeric_csv(path)
    assert str(info.value) == f"{path}: field larger than field limit ({limit})"
