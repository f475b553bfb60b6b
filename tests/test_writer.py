"""The column CSV writer against the dict-row writer it replaced
(`tests/oracles.py::write_rows_csv_reference`): the same bytes for every
kind of column."""
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from netadjust import io

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
INT64 = st.integers(-(2**63), 2**63 - 1)
TEXT = st.one_of(
    st.just(""),
    st.text(st.sampled_from(list(',"\r\n ;\'\tab0é中\x00')), max_size=6),
    st.text(max_size=6),
)


def columns(n):
    """A strategy for one column of n values, of any kind the writer takes."""
    return st.one_of(
        st.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.longdouble)),
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(INT64, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.uint64)),
        st.lists(INT64.map(np.int64), min_size=n, max_size=n),
        st.lists(st.integers(), min_size=n, max_size=n),
        # mixed int/float, as table1.csv's count columns
        st.lists(st.one_of(FLOATS, st.integers(), INT64.map(np.int64), FLOATS.map(np.float64)), min_size=n, max_size=n),
        st.lists(TEXT, min_size=n, max_size=n),
        st.lists(TEXT, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=object)),
        st.lists(st.one_of(TEXT, FLOATS, st.integers(), st.booleans()), min_size=n, max_size=n),
    )


@st.composite
def tables(draw):
    header = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    return header, [draw(columns(n)) for _ in header]


@given(tables(), st.integers(1, 5))
def test_column_writer_writes_the_dict_row_writers_bytes(table, block):
    header, cols = table
    rows = [dict(zip(header, values)) for values in zip(*cols)]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(io, "WRITE_ROWS", block):
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        io.write_rows_csv(got, header, cols)
        oracles.write_rows_csv_reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


def test_lone_empty_field_is_quoted(tmp_path):
    # csv.writer writes a line whose one field is empty as "", and an empty
    # field among others as nothing
    io.write_rows_csv(tmp_path / "one.csv", [""], [["", "a", ""]])
    io.write_rows_csv(tmp_path / "two.csv", ["a", "b"], [["", "x"], ["", ""]])
    assert (tmp_path / "one.csv").read_bytes() == b'""\r\n""\r\na\r\n""\r\n'
    assert (tmp_path / "two.csv").read_bytes() == b"a,b\r\n,\r\nx,\r\n"
