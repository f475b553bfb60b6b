"""CSV ingestion/export helpers and the reproducibility manifest.

All files are UTF-8, comma-separated, headered, with '.' decimal points.
An input file is read whole and kept by column (`CsvColumns`): columns are
found by header name in any order, extra columns are ignored, and of a
repeated name the last wins; blank lines are skipped and not counted in row
numbers (the header is row 1); a record with fewer fields than the header is
an error.  A file with no quote, NUL or U+001C-U+001F separator is parsed
in one C pass (`np.loadtxt`); the pass declines on any exception or
warning, and the row reader (`csv.reader`, `int`, `float`) then reads the
file.  The row reader alone writes every error message.  An output file is
written by column (`write_rows_csv`), with the bytes `csv.writer` writes for
its rows: a float or int array column is formatted in one pass, floats with
repr (shortest round-trip), so identical runs emit identical bytes.
"""
from __future__ import annotations

import bisect
import csv
import hashlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .registry import MAX_AGE, MAX_TABLE_CELLS, RegistryFrame


class RegistryFormatError(ValueError):
    """Malformed registry CSV."""


DTYPES = {int: np.int64, float: np.float64, str: object}   # a column's kind -> its dtype
# characters that send a file to the row path: a quote and NUL, which
# `csv.reader` reads apart, and the separators \x1c-\x1f, which numpy's
# number parsers skip as whitespace but `int` and `float` reject
UNPARSED = '"\0\x1c\x1d\x1e\x1f'


class CsvColumns:
    """The data records of one input CSV, read at once and kept by column
    under the rules above.  `kinds` maps each column read to int, float or
    str, in the order the header error names them.

    A file holding none of `UNPARSED`, whose fields all fit `csv`'s field
    size limit, is read by one structured `np.loadtxt` (`_c_parse`): int64,
    float64 or object for each header column.  On such text it splits
    records as `csv.reader` does, and its number parsers accept a subset of
    what `int` and `float` accept, with the same values.  So any exception
    or warning it raises (a text it rejects, a record of another width, a
    file with no data rows) only sends the file to the row path:
    `csv.reader`, then `int` or `float` per field.  The row path defines
    every error message; a field text a message needs is read from it on
    demand (`text`).

    The checks stand in for a loop over the records that stops at the first
    fault: each reads only the records before the earliest fault found so
    far, so of several faults the earliest record's is reported, and of one
    record's faults the first check's.  `check_table_extent` raises it.
    """

    def __init__(self, path: Path, kinds: dict[str, type], error: type[ValueError]):
        self.path, self.file, self.kinds, self.error = path, path.name, kinds, error
        self._fault, self._texts = None, None
        self._columns = self._c_parse()
        if self._columns is None:
            header, records = self._records()
            self.n = len(records)   # the records the checks still read
            fields = np.fromiter(map(len, records), np.intp, len(records))
            self.reject(fields < len(header), lambda i: (
                f"missing column {header[fields[i]]!r}: {fields[i]} fields, the header has {len(header)}"))
            self._texts = self._by_column(header, records[: self.n])

    def _c_parse(self) -> dict[str, np.ndarray] | None:
        """The columns of `kinds` from one `np.loadtxt` of the whole file,
        setting `n`, or None where it declines."""
        try:
            with self.path.open(newline="", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            return None
        block = csv.field_size_limit() // 2   # a field past csv's size limit fills one of these blocks
        fits = all(any(text.find(c, i, i + block) >= 0 for c in ",\r\n")
                   for i in range(0, len(text) - block + 1, block))
        if not fits or any(c in text for c in UNPARSED):
            return None
        header = re.split("[\r\n]", text, maxsplit=1)[0].split(",")
        last = {name: j for j, name in enumerate(header)}
        if not last.keys() >= self.kinds.keys():
            return None
        kind = {last[name]: kind for name, kind in self.kinds.items()}
        dtype = [(str(j), DTYPES[kind.get(j, str)]) for j in range(len(header))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                table = np.loadtxt(io.StringIO(text, newline=""), dtype=dtype, delimiter=",",
                                   comments=None, skiprows=1, ndmin=1)
            except Exception:   # whatever numpy raises, the row path decides the outcome
                return None
        self.n = table.shape[0]
        return {name: table[str(last[name])].copy() for name in self.kinds}

    def _records(self) -> tuple[list[str], list[list[str]]]:
        """The row path's header and non-blank records, by `csv.reader`."""
        with self.path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not set(self.kinds).issubset(header):
                raise self.error(f"{self.file}: header must contain {list(self.kinds)}")
            return header, list(filter(None, reader))

    def _by_column(self, header: list[str], records: list[list[str]]) -> dict[str, tuple]:
        columns = dict(zip(header, zip(*records)))
        return {name: columns.get(name, ()) for name in self.kinds}

    def text(self, name: str, i: int) -> str:
        """Record i's field `name` as the row path reads it."""
        if self._texts is None:
            self._texts = self._by_column(*self._records())
        return self._texts[name][i]

    def parse(self, name: str) -> np.ndarray:
        """The int or float column `name` as an int64 or float64 array; on
        the row path the first text `int` or `float` rejects, or an int past
        64 bits, is a fault."""
        if self._columns is not None:
            return self._columns[name][: self.n]
        convert = self.kinds[name]
        dtype, texts = DTYPES[convert], self._texts[name][: self.n]
        try:
            return np.array(list(map(convert, texts)), dtype)
        except (ValueError, OverflowError):
            for i, text in enumerate(texts):
                try:
                    np.array(convert(text), dtype)
                except (ValueError, OverflowError) as exc:
                    self.n, self._fault = i, str(exc)
                    return self.parse(name)

    def groups(self, name: str) -> tuple[list[tuple], np.ndarray]:
        """The str column's stripped texts as (demographics, codes): the
        distinct stripped texts as 1-tuples, first seen first, and each
        record's index.  The distinct raw texts are numbered first, so each
        is stripped once."""
        texts = self._texts[name] if self._columns is None else self._columns[name].tolist()
        texts = texts[: self.n]
        raw = {text: i for i, text in enumerate(dict.fromkeys(texts))}
        stripped = [text.strip() for text in raw]
        index = {text: i for i, text in enumerate(dict.fromkeys(stripped))}
        codes = np.array([index[text] for text in stripped], np.int64)
        return [(text,) for text in index], codes[np.fromiter(map(raw.__getitem__, texts), np.intp, len(texts))]

    def reject(self, bad: np.ndarray, message) -> None:
        """A fault at the first record i where `bad` holds: `message(i)`."""
        hit = np.flatnonzero(bad[: self.n])
        if hit.size:
            self.n, self._fault = int(hit[0]), message(int(hit[0]))

    def reject_repeats(self, keys: list[np.ndarray], message) -> None:
        """A fault at the first record whose keys all equal an earlier
        record's, found by one stable sort."""
        keys = [key[: self.n] for key in keys]
        order = np.lexsort(keys)
        repeat = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])
        self.reject(np.isin(np.arange(self.n), order[1:][repeat]), message)

    def check_table_extent(self, ages, years, codes) -> None:
        """Raise the earliest fault found; then, before anything is built,
        check the (age, year, demographics code) columns (codes numbered
        first seen first): every age must lie in [0, MAX_AGE], and the
        (demographics, age, year) grid the rows span may hold at most
        MAX_TABLE_CELLS cells, as tables keep one dense array over it and
        registry strata are numbered within it.  The error names the row."""
        if self._fault is not None:
            raise self.error(f"{self.file}:{self.n + 2}: {self._fault}")
        bad = np.flatnonzero((ages < 0) | (ages > MAX_AGE))
        if bad.size:
            raise self.error(f"{self.file}:{bad[0] + 2}: age {ages[bad[0]]} outside [0, {MAX_AGE}]")
        # the grid of rows 0..i only grows with i; its size is counted in Python ints
        groups = np.maximum.accumulate(codes) + 1
        age_lo, age_hi, year_lo, year_hi = (f.accumulate(x) for x in (ages, years) for f in (np.minimum, np.maximum))

        def cells(i: int) -> int:
            return int(groups[i]) * (int(age_hi[i]) - int(age_lo[i]) + 1) * (int(year_hi[i]) - int(year_lo[i]) + 1)

        i = bisect.bisect_left(range(ages.size), True, key=lambda i: cells(i) > MAX_TABLE_CELLS)
        if i < ages.size:
            raise self.error(
                f"{self.file}:{i + 2}: age {ages[i]}, year {years[i]} would stretch the (sex, age, year) grid to "
                f"{cells(i)} cells (ages {age_lo[i]}-{age_hi[i]}, years {year_lo[i]}-{year_hi[i]}; "
                f"at most {MAX_TABLE_CELLS})"
            )


def read_cells(path: Path, value: str, error: type[ValueError], valid, duplicate: str, invalid: str):
    """The (demographics, codes, ages, years, values) columns of a CSV of
    cells (age,year,sex,<value>).  A row's checks, in order: age, year and
    the value parse, the cell is not a duplicate, `valid(values)` holds; then
    `CsvColumns.check_table_extent`.  The messages are formatted with the
    row's age, year, sex, cell (age, year, (sex,)), value and value text."""
    rows = CsvColumns(path, dict(sorted({"age": int, "year": int, "sex": str, value: float}.items())), error)
    ages, years, values = rows.parse("age"), rows.parse("year"), rows.parse(value)
    demographics, codes = rows.groups("sex")

    def describe(message):
        return lambda i: message.format(
            age=ages[i], year=years[i], sex=demographics[codes[i]][0], value=values[i],
            cell=(int(ages[i]), int(years[i]), demographics[codes[i]]), text=rows.text(value, i))

    rows.reject_repeats([codes, ages, years], describe(duplicate))
    with np.errstate(invalid="ignore"):
        rows.reject(~valid(values), describe(invalid))
    rows.check_table_extent(ages, years, codes)
    return demographics, codes, ages, years, values


REGISTRY_HEADER = ["age_diag", "year_diag", "sex", "time", "event"]


def load_registry(path) -> RegistryFrame:
    """Read a registry CSV (age_diag,year_diag,sex,time,event).  A row's
    checks, in order: age_diag, year_diag, time and event parse, event is 0
    or 1, time is finite and non-negative; then
    `CsvColumns.check_table_extent`, and the file needs a data row."""
    path = Path(path)
    rows = CsvColumns(path, dict(zip(REGISTRY_HEADER, (int, int, str, float, int))), RegistryFormatError)
    ages, years = rows.parse("age_diag"), rows.parse("year_diag")
    times, events = rows.parse("time"), rows.parse("event")
    rows.reject((events != 0) & (events != 1), lambda i: "event must be 0 or 1")
    with np.errstate(invalid="ignore"):
        rows.reject(~(np.isfinite(times) & (times >= 0)), lambda i: (
            f"follow-up time {rows.text('time', i)!r} is not a finite non-negative number"))
    vocab, codes = rows.groups("sex")
    rows.check_table_extent(ages, years, codes)
    if not ages.size:
        raise RegistryFormatError(f"{path.name}: no data rows")
    return RegistryFrame(ages, years, codes, times, events.astype(bool), vocab)


def _format_value(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


_QUOTED = re.compile('[,"\r\n]')   # a field holding one of these is quoted
WRITE_ROWS = 1 << 12          # rows formatted at a time, to bound the strings held


def _fields(column) -> list[str]:
    """The column's values formatted by `_format_value`, each quoted as
    `csv.writer` quotes it (its quotes doubled) when it holds a comma, a
    quote or a line break; a float or int array is formatted in one pass."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        return list(map(repr, column.astype(np.float64, copy=False).tolist()))
    if kind in "iu":
        return list(map(str, column.tolist()))
    texts = [value if type(value) is str else _format_value(value) for value in column]
    if not _QUOTED.search("".join(texts)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text for text in texts]


def write_rows_csv(path, header, columns) -> None:
    """Write `columns`, one sequence per name of `header`, all of one length,
    as the rows of a CSV under `header`, with the bytes `csv.writer` writes:
    fields joined by commas, lines ended by CRLF, and a line whose one field
    is empty written as `""`."""
    n = len(columns[0]) if columns else 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [[column[i : i + WRITE_ROWS] for column in columns] for i in range(0, n, WRITE_ROWS)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        for block in [[[name] for name in header]] + blocks:
            lines = list(map(",".join, zip(*map(_fields, block))))
            if len(header) == 1:
                lines = [line or '""' for line in lines]
            fh.write("\r\n".join(lines) + "\r\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, payload: dict) -> None:
    """Reproducibility manifest: config echo, input hashes, counters.

    Deliberately carries no timestamps so reruns are byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
