import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ogica import MatrixParseError, format_matrix, read_matrix, write_matrix

_EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             1.7976931348623157e308, -1.7976931348623157e308]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    values = rng.standard_normal((9, 13)) * 10.0 ** rng.integers(-12, 12, (9, 13))
    values[0, 0] = 0.0
    values[1, 2] = -0.0
    values[2, 3] = 1e-300
    values[3, 4] = -1e300
    path = tmp_path / "m.csv"
    write_matrix(path, values)
    assert _same_bits(read_matrix(path), values)


@settings(deadline=None, max_examples=100)
@given(arrays(np.float64,
              st.tuples(st.integers(1, 5), st.integers(1, 8)),
              elements=st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(_EXTREMES)))
def test_roundtrip_arbitrary_doubles(tmp_path_factory, values):
    # -0.0, subnormals and +-DBL_MAX must survive bit for bit
    path = tmp_path_factory.mktemp("roundtrip") / "m.csv"
    write_matrix(path, values)
    assert _same_bits(read_matrix(path), values)


def test_roundtrip_many_shapes(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        values = rng.standard_normal((n, t))
        path = tmp_path / f"m{trial}.csv"
        write_matrix(path, values)
        assert np.array_equal(read_matrix(path), values)


def test_format_is_plain_csv():
    text = format_matrix(np.array([[1.5, -2.0], [0.25, 100.0]]))
    assert text == "1.5,-2\n0.25,100\n"
    # The format has no empty matrix: read_matrix would refuse its text.
    for shape in ((3, 0), (0, 4)):
        with pytest.raises(ValueError):
            format_matrix(np.empty(shape))


def test_format_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        format_matrix(np.ones(4))


def test_written_file_uses_lf_endings(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_read_single_cell(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("3.5\n")
    assert np.array_equal(read_matrix(path), np.array([[3.5]]))


def test_read_without_trailing_newline(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4")
    assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_read_crlf_matches_lf(tmp_path):
    lf = tmp_path / "lf.csv"
    crlf = tmp_path / "crlf.csv"
    lf.write_bytes(b"1.5,-0\n2e-310,4\n")
    crlf.write_bytes(b"1.5,-0\r\n2e-310,4\r\n")
    assert _same_bits(read_matrix(crlf), read_matrix(lf))


def test_read_last_line_without_lf_is_a_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n5,6")
    assert np.array_equal(read_matrix(path),
                          np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    path.write_text("1,2\n3,4\n5")
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert excinfo.value.row == 3


def test_read_blank_middle_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n")
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert excinfo.value.row == 2
    path.write_text("1\n\n3\n")  # one column: the blank cell is refused
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert (excinfo.value.row, excinfo.value.column) == (2, 1)


def test_read_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    # a blank trailing line is a ragged row too
    for text, row in (("1,2,3\n4,5\n", 2), ("1,2\n3,4\n\n", 3)):
        path.write_text(text)
        with pytest.raises(MatrixParseError) as excinfo:
            read_matrix(path)
        assert excinfo.value.row == row


def test_read_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert excinfo.value.row == 2
    assert excinfo.value.column == 2
    assert "oops" in str(excinfo.value)


def test_read_non_ascii_cell(tmp_path):
    path = tmp_path / "accent.csv"
    path.write_bytes(b"1.0,2.0\n3.0,\xc3\xa9\n")
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert excinfo.value.row == 2
    assert excinfo.value.column == 2
    assert str(excinfo.value).startswith("row 2, column 2: not a number")


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MatrixParseError):
        read_matrix(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "nope.csv")


def test_read_non_numeric_cell_late_in_long_row(tmp_path):
    path = tmp_path / "bad.csv"
    values = np.arange(3 * 5000, dtype=float).reshape(3, 5000)
    write_matrix(path, values)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4997] = "1.5e"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixParseError) as excinfo:
        read_matrix(path)
    assert (excinfo.value.row, excinfo.value.column) == (3, 4998)
    assert "'1.5e'" in str(excinfo.value)


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (7, 2), (4, 0), (0, 5),
                                   (0, 0)])
def test_written_bytes_equal_formatted_text(tmp_path, shape):
    values = np.random.default_rng(8).standard_normal(shape)
    path = tmp_path / "m.csv"
    if values.size == 0:  # refused by both, before the file is opened
        with pytest.raises(ValueError):
            format_matrix(values)
        with pytest.raises(ValueError):
            write_matrix(path, values)
        assert not path.exists()
        return
    write_matrix(path, values)
    assert path.read_bytes() == format_matrix(values).encode("ascii")


def _traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_read_peak_memory_is_a_few_arrays(tmp_path):
    # Rows go straight into float64 arrays: no Python float per cell.
    values = np.random.default_rng(9).standard_normal((20, 5000))
    path = tmp_path / "m.csv"
    write_matrix(path, values)
    assert _traced_peak(lambda: read_matrix(path)) <= 3 * values.nbytes


def test_read_peak_memory_fills_one_matrix(tmp_path):
    # Each line is parsed into its row of one preallocated matrix, so the
    # read holds that matrix and one line's worth of parsing at a time.
    values = np.random.default_rng(11).standard_normal((50, 10000))
    path = tmp_path / "m.csv"
    write_matrix(path, values)
    assert _traced_peak(lambda: read_matrix(path)) <= 1.75 * values.nbytes


def test_write_peak_memory_is_below_one_array(tmp_path):
    # Rows are streamed to the file: the whole text is never held.
    values = np.random.default_rng(10).standard_normal((20, 5000))
    path = tmp_path / "m.csv"
    assert _traced_peak(lambda: write_matrix(path, values)) <= values.nbytes
