"""The column-wise CSV loaders against the row-by-row oracles of
`tests/oracles.py`, on valid files and on mutated ones."""
import contextlib
import csv
import io
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netadjust.cli import main
from netadjust.incidence import IncidenceError, load_counts, load_incidence_table
from netadjust.io import CsvColumns, RegistryFormatError, load_registry
from netadjust.lifetable import LifeTableError, load_life_table

from conftest import cell_columns, table_cells

CELLS = [(age, year, sex) for sex in ("m", "f") for age in (60, 61) for year in (1990, 1991)]

# file name: (loader, oracle, error class, valid lines, columns the CLI parses as numbers)
KINDS = {
    "registry.csv": (
        load_registry, oracles.load_registry, RegistryFormatError,
        ["age_diag,year_diag,sex,time,event", "60,1990,m,2.0,1", "61,1991,f,3.5,0",
         "60,1990,m,5.5,0", "61,1990,f,1.25,1"],
        [0, 1, 3, 4],
    ),
    "lifetable.csv": (
        load_life_table, oracles.load_life_table, LifeTableError,
        ["age,year,sex,q", *(f"{a},{y},{s},0.0{i + 1}" for i, (a, y, s) in enumerate(CELLS))],
        [0, 1, 3],
    ),
    "incidence.csv": (
        load_incidence_table, oracles.load_incidence_table, IncidenceError,
        ["age,year,sex,ir", *(f"{a},{y},{s},0.00{i + 1}" for i, (a, y, s) in enumerate(CELLS))],
        [0, 1, 3],
    ),
    "population.csv": (
        lambda path: load_counts(path, "person_years"),
        lambda path: cell_columns(oracles.load_counts(path, "person_years")),
        IncidenceError,
        ["age,year,sex,person_years", *(f"{a},{y},{s},{1000 + i}" for i, (a, y, s) in enumerate(CELLS))],
        [0, 1, 3],
    ),
}

QUOTED = object()   # stands for the field's own text in double quotes
VALUES = ["x", "nan", "inf", "-1", "1.5", "2", " 7 ", "1_0", "100000000", QUOTED]


def set_field(line, j, value):
    fields = line.split(",")
    j %= len(fields)
    if value is not QUOTED:
        fields[j] = value
    elif '"' not in fields[j]:
        fields[j] = f'"{fields[j]}"'
    return ",".join(fields)


@st.composite
def mutations(draw, lines, header=True):
    """`lines` after one to five mutations: a line dropped, duplicated or
    swapped, a blank line inserted, a field set to one of VALUES, a trailing
    field added, a record cut short by its last field, or (with `header`)
    the header's columns permuted or one of its names repeated in a new
    last column that every record fills with one of its own fields.
    Without `header` the header stays first and unchanged."""
    lines = list(lines)
    first = 0 if header else 1
    kinds = ["drop", "duplicate", "swap", "blank", "set", "trailing", "short"]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds + (["permute", "repeat"] if header else [])))
        if kind == "permute":
            lines[0] = ",".join(draw(st.permutations(lines[0].split(","))))
            continue
        if kind == "repeat":
            lines[0] += "," + draw(st.sampled_from(lines[0].split(",")))
            j = draw(st.integers(0, 4))
            lines[1:] = [line and line + "," + line.split(",")[j % (line.count(",") + 1)] for line in lines[1:]]
            continue
        if len(lines) <= first:
            continue
        i = draw(st.integers(first, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(first, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "blank":
            lines.insert(i, "")
        elif not lines[i]:
            continue
        elif kind == "set":
            lines[i] = set_field(lines[i], draw(st.integers(0, 4)), draw(st.sampled_from(VALUES)))
        elif kind == "trailing":
            lines[i] += ",9"
        elif kind == "short":
            lines[i] = lines[i].rsplit(",", 1)[0] if "," in lines[i] else ""
    return lines


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def outcome(load, path):
    try:
        return load(path), None
    except Exception as exc:   # the oracles can raise anything; compared below
        return None, exc


def assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(got, tuple):   # population counts: (demographics, codes, ages, years, values) in file order
        assert got[0] == want[0] and all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
    elif hasattr(got, "demo_vocab"):
        for column in ("age", "year", "demo_code", "time", "event"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.demo_vocab == want.demo_vocab
    else:
        assert np.array_equal(got._values, want._values, equal_nan=True)
        assert got.demographics == want.demographics
        assert (got.age_min, got.age_max, got.year_min, got.year_max) == \
            (want.age_min, want.age_max, want.year_min, want.year_max)


def first_short_record(lines):
    """(line index, row number, header width) of the first record with
    fewer fields than the header, or None."""
    records = list(csv.reader(lines))
    width = len(records[0]) if records else 0
    data = [(i, record) for i, record in enumerate(records) if i and record]
    return next(((i, row, width) for row, (i, record) in enumerate(data, start=2) if len(record) < width), None)


@pytest.mark.parametrize("name", sorted(KINDS))
class TestMatchesRowByRowOracle:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_file(self, tmp_path_factory, name, data):
        load, oracle, error, lines, _ = KINDS[name]
        lines = data.draw(mutations(lines))
        path = tmp_path_factory.mktemp("fuzz") / name
        write(path, lines)
        got, got_error = outcome(load, path)
        short = first_short_record(lines)
        if short is not None:
            # The one allowed difference: a short record is a fault of its
            # own, so the oracle reads it as a record that fails its first check.
            line, row, width = short
            write(path, lines[:line] + [",".join(["x"] * width)])
        want, want_error = outcome(oracle, path)
        if short is not None and \
                str(want_error).startswith(f"{name}:{row}: invalid literal for int() with base 10: 'x'"):
            assert type(got_error) is error
            assert str(got_error).startswith(f"{name}:{row}: missing column ")
        elif want_error is not None:
            assert type(got_error) is type(want_error)
            assert str(got_error) == str(want_error)
        else:
            assert got_error is None
            assert_same_result(got, want)

    def test_valid_file(self, tmp_path, name):
        load, oracle, _, lines, _ = KINDS[name]
        write(tmp_path / name, lines)
        got = load(tmp_path / name)
        assert_same_result(got, oracle(tmp_path / name))
        if name != "registry.csv":
            cells = {(int(a), int(y), (s,)): float(v) for a, y, s, v in (line.split(",") for line in lines[1:])}
            if name == "population.csv":
                assert_same_result(got, cell_columns(cells))
            else:
                assert table_cells(got) == cells
        if name in ("lifetable.csv", "incidence.csv"):
            assert got.demographics == [("f",), ("m",)]

    def test_two_faults(self, tmp_path, name):
        """Every pairing of two faults, in one row or in two adjacent rows:
        a field set to a non-number, -1, 2 or nan, or the row made a
        duplicate of row 2."""
        load, oracle, _, lines, _ = KINDS[name]
        faults = [(j, value) for j in range(len(lines[0].split(","))) for value in ("x", "-1", "2", "nan")]
        faults.append((None, None))

        def apply(lines, i, fault):
            j, value = fault
            lines[i] = lines[1] if j is None else set_field(lines[i], j, value)

        for first, second in itertools.product(faults, faults):
            for i in (2, 3):
                bad = list(lines)
                apply(bad, 2, first)
                apply(bad, i, second)
                write(tmp_path / name, bad)
                got, got_error = outcome(load, tmp_path / name)
                want, want_error = outcome(oracle, tmp_path / name)
                assert (type(got_error), str(got_error)) == (type(want_error), str(want_error))
                if want_error is None:
                    assert_same_result(got, want)


@pytest.mark.parametrize("name, lines, column", [
    ("registry.csv", ["age_diag,year_diag,time,event,sex", "60,1990,2.0,1,m", "", "61,1990,1.0,0"], "sex"),
    ("lifetable.csv", ["age,year,q,sex", "60,1990,0.1,m", "", "61,1990,0.1"], "sex"),
    ("incidence.csv", ["age,year,ir,sex", "60,1990,0.01,m", "", "61,1990,0.01"], "sex"),
    ("population.csv", ["age,year,person_years,sex", "60,1990,1000,m", "", "61,1990"], "person_years"),
    ("registry.csv", ["age_diag,year_diag,time,event,sex", "60,1990,2.0,1,m", "", " \t "], "year_diag"),
])
def test_short_record_names_row_and_column(tmp_path, name, lines, column):
    load, _, error, _, _ = KINDS[name]
    write(tmp_path / name, lines)
    with pytest.raises(error) as info:
        load(tmp_path / name)
    fields, width = len(lines[-1].split(",")), len(lines[0].split(","))
    assert str(info.value) == f"{name}:3: missing column {column!r}: {fields} fields, the header has {width}"


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cli_reports_file_and_row(tmp_path_factory, data):
    """A file mutated as above, but for its header, and then given a
    non-number in a numeric column ends the CLI with exit 1 and one
    `error: <file>:<row>: ` line."""
    name = data.draw(st.sampled_from(sorted(KINDS)))
    directory = tmp_path_factory.mktemp("cli")
    for other, (_, _, _, lines, _) in KINDS.items():
        write(directory / other, lines)
    _, _, _, valid, numeric = KINDS[name]
    lines = data.draw(mutations(valid, header=False))
    records = [i for i in range(1, len(lines)) if lines[i]] or [len(lines)]
    i = data.draw(st.sampled_from(records))
    lines[i:i + 1] = [set_field(lines[i] if i < len(lines) else valid[1], data.draw(st.sampled_from(numeric)), "x")]
    write(directory / name, lines)
    source = ["--population", str(directory / "population.csv")] if name == "population.csv" \
        else ["--incidence", str(directory / "incidence.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([
            "estimate", "--registry", str(directory / "registry.csv"),
            "--lifetable", str(directory / "lifetable.csv"),
            *source,
            "--mode", "adjusted", "--horizon", "12", "--years", "3", "--out", str(directory / "out"),
        ])
    text = err.getvalue()
    assert code == 1
    assert re.match(rf"error: {re.escape(name)}:\d+: ", text.strip().splitlines()[-1])
    assert "Traceback" not in text


@pytest.mark.parametrize("name, outcome_text", [
    ("registry.csv", "RegistryFormatError: registry.csv: no data rows"),
    ("lifetable.csv", "LifeTableError: lifetable.csv: life table has no cells"),
    ("incidence.csv", "an empty table"),
    ("population.csv", "empty columns"),
])
@pytest.mark.parametrize("blank", [0, 2])
def test_header_only_file(tmp_path, name, outcome_text, blank):
    """A header and no rows (the C parse warns "input contained no data"
    and declines) keeps the row path's outcome."""
    load, oracle, _, lines, _ = KINDS[name]
    write(tmp_path / name, [lines[0]] + [""] * blank)
    got, got_error = outcome(load, tmp_path / name)
    want, want_error = outcome(oracle, tmp_path / name)
    assert (type(got_error), str(got_error)) == (type(want_error), str(want_error))
    if got_error is not None:
        assert f"{type(got_error).__name__}: {got_error}" == outcome_text
    elif name == "incidence.csv":
        assert got.demographics == [] and got._values.size == 0
    else:
        assert got[0] == [] and all(column.size == 0 for column in got[1:])


class TestParsePath:
    """Which of `CsvColumns`' two readers a file takes."""

    @pytest.fixture
    def paths(self, monkeypatch):
        taken = []
        c_parse, records = CsvColumns._c_parse, CsvColumns._records
        monkeypatch.setattr(CsvColumns, "_c_parse", lambda self: taken.append("c") or c_parse(self))
        monkeypatch.setattr(CsvColumns, "_records", lambda self: taken.append("rows") or records(self))
        return taken

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_clean_file_takes_the_c_parse(self, tmp_path, paths, name):
        load, oracle, _, lines, _ = KINDS[name]
        write(tmp_path / name, lines)
        got = load(tmp_path / name)
        assert paths == ["c"]
        assert_same_result(got, oracle(tmp_path / name))

    def test_quoted_sex_label_takes_the_row_path(self, tmp_path, paths):
        load, oracle, _, lines, _ = KINDS["registry.csv"]
        write(tmp_path / "registry.csv", lines[:2] + ['61,1991,"f",3.5,0'] + lines[3:])
        got = load(tmp_path / "registry.csv")
        assert paths == ["c", "rows"]
        assert_same_result(got, oracle(tmp_path / "registry.csv"))
        assert got.demo_vocab == [("m",), ("f",)]

    def test_field_past_the_csv_limit_takes_the_row_path(self, tmp_path, paths):
        """The row path's `csv.Error` for a field longer than
        `csv.field_size_limit()` is kept, not read past by the C parse."""
        load, oracle, _, lines, _ = KINDS["registry.csv"]
        write(tmp_path / "registry.csv", lines[:2] + ["61,1991," + "f" * (csv.field_size_limit() + 1) + ",3.5,0"])
        got, got_error = outcome(load, tmp_path / "registry.csv")
        want, want_error = outcome(oracle, tmp_path / "registry.csv")
        assert paths == ["c", "rows"]
        assert type(got_error) is type(want_error) is csv.Error and str(got_error) == str(want_error)

    @pytest.mark.parametrize("reader", ["c", "rows"])
    def test_padded_labels_group_by_their_stripped_text(self, tmp_path, paths, reader):
        """Raw labels that strip to one text are one group, the groups
        first seen first and each record coded by its own, on either reader."""
        load, oracle, _, lines, _ = KINDS["registry.csv"]
        labels = [" f", "m", "f ", "\tm ", "f", "m\t", " f"]
        records = [f"{60 + i % 2},{1990 + i % 2},{label},{i + 1.5},{i % 2}" for i, label in enumerate(labels)]
        if reader == "rows":
            records[-1] = records[-1].replace(" f", '" f"')   # a quote sends the file to the row path
        write(tmp_path / "registry.csv", lines[:1] + records)
        got = load(tmp_path / "registry.csv")
        assert paths == (["c"] if reader == "c" else ["c", "rows"])
        assert got.demo_vocab == [("f",), ("m",)]
        assert got.demo_code.tolist() == [0, 1, 0, 1, 0, 1, 0]
        assert_same_result(got, oracle(tmp_path / "registry.csv"))

    def test_message_text_read_on_demand(self, tmp_path, paths):
        """A fault found after the C parse (a non-finite time) names the
        field's text as the row path reads it."""
        load, _, error, lines, _ = KINDS["registry.csv"]
        time = "\u2003-inf "
        write(tmp_path / "registry.csv", lines[:2] + [f"61,1991,f,{time},0"])
        with pytest.raises(error, match=re.escape(f"registry.csv:3: follow-up time {time!r} is not")):
            load(tmp_path / "registry.csv")
        assert paths == ["c", "rows"]


# texts both readers accept, and texts at least one of them rejects (or
# reads as another kind), for the C parse to decline
INTS = ["1", "60", "1990", "-1", "+5", "-0", "007", "9223372036854775807"]
FLOATS = INTS + ["2.5", ".5", "1.", "1E5", "nan", "-nan", "-inf", "Infinity", "1e400", "1e-400"]
NUMBERS = ["1.0", "1e3", "1_0", "\u0663", "9223372036854775808", "", "#1", "0x10", "x", "- 1"]
LABELS = ["m", "f", " m", "f ", "", "#1", "1.5", "\u00e9", "a b"]
SPACES = ["", "", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
COLUMNS = {
    "registry": dict(zip(["age_diag", "year_diag", "sex", "time", "event"], (int, int, str, float, int))),
    "cells": {"age": int, "q": float, "sex": str, "year": int},
}


@st.composite
def csv_texts(draw):
    """(kinds, text): a header of `kinds`' columns in any order, maybe with
    an extra or a repeated column, then records of number and label texts
    padded with whitespace, with blank, whitespace-only, long and short
    lines, ended by LF, CRLF or a lone CR, with or without a final one."""
    kinds = COLUMNS[draw(st.sampled_from(sorted(COLUMNS)))]
    header = draw(st.permutations(list(kinds)))
    header += draw(st.sampled_from([[], ["note"], [draw(st.sampled_from(header))]]))
    last = {name: j for j, name in enumerate(header)}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["record"] * 12 + ["blank", "spaces", "long", "short"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("".join(draw(st.lists(st.sampled_from(SPACES[3:]), min_size=1, max_size=3))))
        else:
            fields = []
            for j, name in enumerate(header):
                column = kinds.get(name, str) if last[name] == j else str
                texts = {int: INTS, float: FLOATS, str: LABELS}[column]
                if column is not str and draw(st.integers(0, 19)) == 0:
                    texts = NUMBERS + FLOATS
                text = draw(st.sampled_from(texts))
                fields.append(draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES)))
            if kind == "long":
                fields.append("9")
            elif kind == "short":
                fields.pop()
            lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return kinds, text if draw(st.booleans()) else text.rstrip("\r\n")


def read_columns(rows, kinds):
    """Each column of `kinds` as the reader returns it, in order, and the
    record count and fault left after them."""
    columns = [rows.groups(name) if kind is str else rows.parse(name) for name, kind in kinds.items()]
    return columns, rows.n, rows._fault


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_c_parse_and_row_path_agree(tmp_path_factory, case):
    """Either the C parse declines, or both readers return identical
    arrays (bit for bit), vocabularies and record counts."""
    kinds, text = case
    path = tmp_path_factory.mktemp("paths") / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fast = CsvColumns(path, kinds, ValueError)
    if fast._columns is None:
        return
    with mock.patch.object(CsvColumns, "_c_parse", lambda self: None):
        rows = CsvColumns(path, kinds, ValueError)
    got, n, fault = read_columns(fast, kinds)
    want, want_n, want_fault = read_columns(rows, kinds)
    records = len(list(filter(None, csv.reader(io.StringIO(text, newline=""))))) - 1
    assert (n, fault) == (want_n, want_fault) == (records, None)
    for a, b in zip(got, want):
        if isinstance(a, tuple):
            assert a[0] == b[0] and a[1].tolist() == b[1].tolist()
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
