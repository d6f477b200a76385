"""Parsing and validation for the six input dataset schemas plus the lexicon.

All files are UTF-8 comma-separated values with a single header row and "."
as the decimal separator. Rows that fail validation are rejected individually
with a positioned error message; parsing only aborts when more than half of
the data rows are rejected.

Two readers parse a file's rows, and they give the same columns, rejects
and messages. The C parse (`parse_numeric_lines`) reads every kind: the six
datasets and the lexicon (`_LOADTXT_DTYPES`, each str field an object field
of the np.loadtxt dtype, which keeps its cell as it stands) and the feature
tables. It hands a file's data lines to one np.loadtxt call a block at a
time, as they stand; only a block with a `#` line or a blank line is
filtered a line at a time. Object fields in np.loadtxt were checked on
numpy 2.4.6 only, as no older numpy down to the declared 1.24 could be
installed to check them. The row reader (`read_csv`, whose columns
`_coerce_column` converts) reads every file the C parse refuses: a quoted
field, a non-ASCII character, a cell np.loadtxt cannot read, a change in
field count, or for a dataset an empty numeric cell, a non-finite float or
a bool other than 0/1, which the row reader rejects row by row. It coerces
CSV_BLOCK_ROWS rows at a time, each column of a block in one call, so only
one block's cells are alive. Each schema's rules are masks over the joined
columns. The accepted rows are held as columns (`ParseResult.columns`), and
every kind is columns from generation on: each `synth.MarketData` field but
`bookings` is the mapping that `ParseResult.columns` holds for its file,
`to_columns` makes one from lists of Python values, and `serialize_dataset`
writes one as it stands. Bookings are the one row type (`ItineraryRecord`,
`ParseResult.records`): the benchmark harness (perfbench) picks, filters and
rewrites booking rows one record at a time, so they stay records until it
takes columns.

Each schema decision is made here once (`SCHEMAS`, `DATASETS`,
`REVIEW_SCORES`). Every CSV input (datasets, lexicon, feature tables) has
its header read by `csv_rows`, the csv module's rules, and every artifact is
written by `write_csv`. Both readers read the file's lines as its rows are
asked for. Writing also works a column at a time: a writer formats a
block of rows as columns of finished cells, each int and float column with
its artifact's own rule once per distinct value (`format_numbers`) and each
text column through `quote_cells`, the one place csv.writer's quoting rule
is applied; `write_csv` joins the block's rows with "," and CRLF into a
temp file that replaces the target only once the last block is written.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, get_type_hints

import numpy as np

__all__ = [
    "ItineraryRecord",
    "ParseResult",
    "ParseError",
    "SCHEMAS",
    "DATASETS",
    "REVIEW_SCORES",
    "empty_columns",
    "to_columns",
    "parse_dataset",
    "serialize_dataset",
    "format_numbers",
    "quote_cells",
    "filter_tweets",
    "atomic_write_text",
    "open_csv",
    "csv_rows",
    "read_csv",
    "parse_numeric_lines",
    "write_csv",
]


class ParseError(Exception):
    """Fatal parse failure: missing file, bad header, or >50% rows rejected."""


@dataclass(frozen=True, slots=True)
class ItineraryRecord:
    od: str
    airline_id: int
    dep_day_id: int
    dbd: int
    dep_time_mam: int
    travel_time: float
    price: float
    is_bought: bool


# The seven 1..5 ordinal ratings: the reviews fields after review_text.
REVIEW_SCORES = ("fb", "ground", "ife", "crew", "seat", "value", "wifi")


@dataclass
class ParseResult:
    """The accepted rows of one file as columns, plus positioned rejects.

    `columns` maps each schema field, in schema order, to a numpy array (int,
    float and bool fields) or a list of strings; for a bookings file,
    `records` builds its ItineraryRecord rows from them on first use.
    """

    schema: str
    columns: dict[str, np.ndarray | list[str]]
    rejected: list[tuple[int, str]]

    @property
    def n_accepted(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @cached_property
    def records(self) -> list[ItineraryRecord]:
        if self.schema != "bookings":
            raise TypeError(f"{self.schema} rows are held as columns only; "
                            "bookings are the one kind with records")
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return list(map(ItineraryRecord, *cols))


_BOOLS = {**dict.fromkeys(("1", "true", "t", "y", "yes"), True),
          **dict.fromkeys(("0", "false", "f", "n", "no"), False)}
_INT64 = np.iinfo(np.int64)


def _to_bool(raw: str) -> bool:
    val = _BOOLS.get(raw.strip().lower())
    if val is None:
        raise ValueError(f"not a boolean: {raw!r}")
    return val


def _to_int(raw: str) -> int:
    val = int(raw.strip())
    if not _INT64.min <= val <= _INT64.max:
        raise ValueError(f"integer out of range: {raw!r}")
    return val


def _to_float(raw: str) -> float:
    val = float(raw.strip())
    if not math.isfinite(val):
        raise ValueError(f"non-finite value: {raw!r}")
    return val


_COERCERS = {int: _to_int, float: _to_float, bool: _to_bool}
# One call per column. int() and float() strip whitespace as _to_int and
# _to_float do; an int outside int64 fails the column (OverflowError) and a
# non-finite float is found by a mask, so both end in the scalar coercer.
_COLUMN_CALLS = {int: int, float: float, bool: _to_bool}
_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}
_PY_TYPES = {np.dtype(dtype): typ for typ, dtype in _DTYPES.items()}


def _coerce_column(typ: type, cells: Sequence[str], errors: dict[int, str], start: int):
    """One column of a block of rows coerced in one call: an array, or a list
    for str. A column that fails goes through its scalar coercer cell by
    cell, and each failing cell's message is kept under its row index (the
    block's first row being row `start`) unless an earlier column of that row
    already failed."""
    if typ is str:
        return list(cells)
    try:
        values = np.fromiter(map(_COLUMN_CALLS[typ], cells), _DTYPES[typ], len(cells))
        bad = np.flatnonzero(~np.isfinite(values)) if typ is float else ()
    except (ValueError, OverflowError):
        values = np.zeros(len(cells), _DTYPES[typ])
        bad = range(len(cells))
    for i in bad:
        try:
            values[i] = _COERCERS[typ](cells[i])
        except ValueError as exc:
            errors.setdefault(start + int(i), str(exc))
    return values


# Each validator maps the coerced columns to (row mask, message) rules in
# order; a row breaking several rules is rejected with the first.
def _check_itinerary(c) -> list[tuple[np.ndarray, str]]:
    dep = c["dep_time_mam"]
    return [
        (c["dbd"] > 0, "dbd out of range (must be <= 0)"),
        ((dep < 0) | (dep >= 1440), "dep_time_mam out of range"),
        (c["travel_time"] <= 0, "travel_time must be positive"),
        (c["price"] <= 0, "price must be positive"),
    ]


def _check_review(c) -> list[tuple[np.ndarray, str]]:
    return [((c[name] < 1) | (c[name] > 5), f"{name} score outside 1..5") for name in REVIEW_SCORES]


def _check_safety(c) -> list[tuple[np.ndarray, str]]:
    return [(c["score"] < 0, "score must be nonnegative")]


def _check_fleet(c) -> list[tuple[np.ndarray, str]]:
    return [
        (c["aircraft_age"] < 0, "aircraft_age must be nonnegative"),
        (c["aircraft_cost"] <= 0, "aircraft_cost must be positive"),
    ]


def _check_lexicon(c) -> list[tuple[np.ndarray, str]]:
    return [
        ((c["score"] < -5) | (c["score"] > 5), "score outside -5..5"),
        (np.array([w != w.lower() for w in c["word"]], dtype=bool), "word must be lowercase"),
    ]


# schema kind -> ({field: type} in column order, column validator). Every
# kind but bookings is held only as columns, so its fields are declared here
# as a map; bookings, the one kind also read a row at a time
# (ParseResult.records), are ItineraryRecord's fields, and fares are those
# without is_bought.
_BOOKING_FIELDS = get_type_hints(ItineraryRecord)
SCHEMAS = {
    "bookings": (_BOOKING_FIELDS, _check_itinerary),
    "fares": ({name: typ for name, typ in _BOOKING_FIELDS.items() if name != "is_bought"},
              _check_itinerary),
    "reviews": ({"airline_id": int, "recommended": bool, "review_text": str,
                 **dict.fromkeys(REVIEW_SCORES, int)}, _check_review),
    "tweets": ({"airline_id": int, "text": str, "is_retweet": bool, "is_reply": bool,
                "language_tag": str}, lambda c: []),
    "safety": ({"airline_code": str, "score": float}, _check_safety),
    "fleet": ({"airline_id": int, "aircraft_type": str, "aircraft_cost": float,
               "registration": str, "aircraft_age": float}, _check_fleet),
    "lexicon": ({"word": str, "score": int}, _check_lexicon),
}

# The six per-OD kinds; each is stored as <kind>.csv and held in the
# synth.MarketData field of the same name.
DATASETS = tuple(kind for kind in SCHEMAS if kind != "lexicon")


def empty_columns(schema: str) -> dict[str, np.ndarray | list[str]]:
    """The schema's column mapping with no rows, as `ParseResult.columns`
    holds it: an empty list for a str field, an empty array of the field's
    dtype for the others."""
    return {name: [] if typ is str else np.empty(0, _DTYPES[typ])
            for name, typ in SCHEMAS[schema][0].items()}


def _foreign_type(col: Sequence, typ: type) -> type | None:
    """The first type other than `typ` among a column's values, or None; an
    array's dtype stands for the type of each of its values."""
    if isinstance(col, np.ndarray):
        held = _PY_TYPES.get(col.dtype, col.dtype.type)
        return None if held is typ else held
    if set(map(type, col)) <= {typ}:
        return None
    return next(type(v) for v in col if type(v) is not typ)


def to_columns(schema: str, lists: Mapping[str, Sequence]) -> dict[str, np.ndarray | list[str]]:
    """The schema's canonical columns, as `ParseResult.columns` holds them,
    from a mapping of each field to its values: a list of Python values or
    an array. A value whose type is not exactly its field's type (a bool in
    an int field, an int in a float field), or an array whose dtype is not
    the field's (`_DTYPES`), raises TypeError naming the schema and field."""
    columns = {}
    for name, typ in SCHEMAS[schema][0].items():
        col = lists[name]
        bad = _foreign_type(col, typ)
        if bad is not None:
            raise TypeError(
                f"{schema}.{name} holds a {bad.__name__} value; the field is {typ.__name__}")
        columns[name] = list(col) if typ is str else np.asarray(col, dtype=_DTYPES[typ])
    return columns


def _select_rows(columns: Mapping[str, Sequence], keep: np.ndarray) -> dict[str, Sequence]:
    """The rows of a column mapping where the bool mask `keep` is set."""
    return {name: col[keep] if isinstance(col, np.ndarray) else list(compress(col, keep))
            for name, col in columns.items()}


def _read_rows(rows: Iterator[tuple[int, list[str]]], schema: str) -> tuple:
    """The row reader: a dataset's rows after the header, as `read_csv`
    yields them, coerced a block of CSV_BLOCK_ROWS rows at a time, each column
    of a block in one call, so only one block's cells are alive; each
    column's blocks are joined after the last one. Gives (columns, line of
    each row with the right field count, field-count rejects, row index ->
    message of its first failing cell)."""
    hints = SCHEMAS[schema][0]
    names = list(hints)
    lines: list[int] = []
    rejected: list[tuple[int, str]] = []
    errors: dict[int, str] = {}

    def accepted() -> Iterator[list[str]]:
        for lineno, row in rows:
            if len(row) != len(names):
                rejected.append((lineno, f"expected {len(names)} fields, got {len(row)}"))
            else:
                lines.append(lineno)
                yield row

    blocks = []
    rows_in = accepted()
    while block := list(islice(rows_in, CSV_BLOCK_ROWS)):
        start = len(lines) - len(block)
        blocks.append([_coerce_column(hints[name], col, errors, start)
                       for name, col in zip(names, zip(*block))])
    # each column ends with an empty part of its type, for a file without data rows
    columns = {
        name: list(chain.from_iterable(parts)) if hints[name] is str else np.concatenate(parts)
        for name, parts in zip(names, zip(*blocks, empty_columns(schema).values()))
    }
    return columns, lines, rejected, errors


# Each schema's fields as np.loadtxt reads them: a str field as an object
# field, which keeps the cell as it stands, and a bool as a two-character
# string, so that only "0" and "1" are read as one.
_LOADTXT_TYPES = {int: np.int64, float: np.float64, bool: "U2", str: object}
_LOADTXT_DTYPES = {
    kind: np.dtype([(name, _LOADTXT_TYPES[typ]) for name, typ in hints.items()])
    for kind, (hints, _) in SCHEMAS.items()
}


def _read_numeric(lines: Iterable[str], lineno: int, schema: str) -> tuple | None:
    """A dataset's data lines through `parse_numeric_lines`, in the row
    reader's form, or None for a file the row reader must read: one the C
    parse refuses, or one with a non-finite float or a bool other than "0"
    and "1", which the row reader rejects row by row. An empty cell is one
    of these, or a cell the C parse refuses in an int or float field."""
    parsed = parse_numeric_lines(lines, lineno, _LOADTXT_DTYPES[schema])
    if parsed is None:
        return None
    rows, numbers, _ = parsed
    columns: dict[str, np.ndarray | list[str]] = {}
    for name, typ in SCHEMAS[schema][0].items():
        col = rows[name]
        if typ is str:
            columns[name] = col.tolist()
            continue
        if typ is bool:
            ones = col == "1"
            if not (ones | (col == "0")).all():
                return None
            col = ones
        elif typ is float and not np.isfinite(col).all():
            return None
        columns[name] = np.ascontiguousarray(col)
    return columns, numbers, [], {}


def parse_dataset(path: str | Path, schema: str) -> ParseResult:
    """Parse one dataset file into validated columns plus positioned rejects.

    Deterministic and order-preserving. Raises ParseError on a missing file,
    a header mismatch, or when more than 50% of data rows are rejected. The
    header is read once, by `csv_rows`; the rows of every kind are then
    parsed in C (`parse_numeric_lines`), and the row reader (`_read_rows`)
    reads every file that parse refuses. Both give the same columns and
    rejects.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema: {schema!r}")
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such file: {path}")
    fields, validator = SCHEMAS[schema]
    names = list(fields)

    with open_csv(path) as fh:
        rows = csv_rows(fh)
        lineno, header = next(rows, (0, None))
        if header is None:
            raise ParseError(f"{path}: empty file, missing header")
        if header != names:
            raise ParseError(
                f"{path}: header mismatch for schema {schema!r}: "
                f"expected {names}, got {header}"
            )
        read = _read_numeric(fh, lineno, schema)
    if read is None:  # refused by the C parse: the row reader reads the file again
        with closing(read_csv(path)) as rows:
            next(rows)
            read = _read_rows(rows, schema)
    columns, lines, rejected, errors = read

    for bad, problem in validator(columns):
        for i in np.flatnonzero(bad).tolist():
            if i not in errors:
                errors[i] = f"{problem} at line {lines[i]}"
    if errors:
        rejected += [(lines[i], message) for i, message in errors.items()]
        rejected.sort()
        keep = np.ones(len(lines), dtype=bool)
        keep[list(errors)] = False
        columns = _select_rows(columns, keep)

    n_accepted = len(lines) - len(errors)
    total = n_accepted + len(rejected)
    if total > 0 and len(rejected) > total / 2:
        raise ParseError(
            f"{path}: {len(rejected)}/{total} rows rejected (over 50% circuit breaker)"
        )
    return ParseResult(schema=schema, columns=columns, rejected=rejected)


# Rows per block: serialize_dataset and FeatureTable.to_csv format and write,
# and the row reader coerces (parse_dataset) or converts (FeatureTable.from_csv),
# one block of rows at a time, so only one block's cells are alive. The C
# parse (parse_numeric_lines), which reads every file of every kind unless it
# refuses one, checks a block of lines as one text and passes the block on
# to np.loadtxt as it stands, or a feature table's with its empty cells filled.
CSV_BLOCK_ROWS = 1024

_BOOL_CELLS = {True: "1", False: "0"}


def _g6(values: np.ndarray) -> list[str]:
    return ["%.6g" % v for v in values.tolist()]


def _str(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def serialize_dataset(
    data: Mapping[str, Sequence] | Iterable[ItineraryRecord], schema: str, path: str | Path
) -> None:
    """Write a dataset in the schema's canonical column order: `data` is a
    column mapping, as `ParseResult.columns` holds and `synth.MarketData`
    holds every kind but bookings, or for bookings an iterable of
    ItineraryRecord. The columns are checked by `to_columns` first, so a
    value or an array of another type raises its TypeError and writes
    nothing. Rows go a block at a time and a column at a time within a
    block, each column by its field's type: bool as "1"/"0", int through
    `str` and float as "%.6g", each once per distinct value
    (`format_numbers`), str quoted by `quote_cells`."""
    hints = SCHEMAS[schema][0]
    if not isinstance(data, Mapping):
        rows = list(data)
        data = {name: list(map(attrgetter(name), rows)) for name in hints}
    columns = to_columns(schema, data)
    memo: dict[str, str] = {}

    def cells(typ: type, col: Sequence) -> list[str]:
        if typ is str:
            return quote_cells(col, memo)
        if typ is bool:
            return list(map(_BOOL_CELLS.__getitem__, col.tolist()))
        return format_numbers(col, _g6 if typ is float else _str)

    n_rows = len(columns[next(iter(hints))])
    write_csv(path, list(hints), (
        [cells(typ, columns[name][lo:lo + CSV_BLOCK_ROWS]) for name, typ in hints.items()]
        for lo in range(0, n_rows, CSV_BLOCK_ROWS)))


def format_numbers(col: np.ndarray, rule: Callable[[np.ndarray], Sequence[str]]) -> list[str]:
    """An int64 or float64 column's cells, with `rule` mapping its distinct
    values, in the column's own dtype, to their cells in one call. Values
    are told apart by their bits, so 0.0 and -0.0, which np.unique and dict
    keys merge, each get their own cell."""
    uniq, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return np.array(rule(uniq.view(col.dtype)), dtype=object)[inverse].tolist()


def quote_cells(cells: Iterable[str], memo: dict[str, str]) -> list[str]:
    """str cells as CSV fields, quoted as csv.writer's default dialect quotes
    a field in a row of two or more. csv.writer itself formats each value not
    yet in `memo`, the caller's value -> field map, kept for one file."""
    cells = list(cells)
    new = set(cells).difference(memo)
    if new:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for value in new:
            buf.seek(0)
            buf.truncate()
            writer.writerow((value, ""))  # a second, empty field, then ",\r\n"
            memo[value] = buf.getvalue()[:-3]
    return list(map(memo.__getitem__, cells))


def filter_tweets(tweets: Mapping[str, Sequence]) -> dict[str, Sequence]:
    """The tweets columns of only the original (non-retweet, non-reply)
    English tweets."""
    english = np.array([tag == "en" for tag in tweets["language_tag"]], dtype=bool)
    return _select_rows(tweets, english & ~tweets["is_retweet"] & ~tweets["is_reply"])


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text file to write whole-file content to: a temp file in the same
    directory, renamed over `path` only when the block ends without error and
    deleted when it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write whole-file content via a temp file + rename in the same dir."""
    with _atomic_open(path) as fh:
        fh.write(text)


def open_csv(path: str | Path) -> TextIO:
    """A CSV file opened for reading as UTF-8 with its line endings kept, as
    `csv_rows` and `parse_numeric_lines` read it."""
    return Path(path).open(newline="", encoding="utf-8")


def csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(physical line number, fields) for each non-empty row of an open CSV
    file's lines, the number being the line the row ends on. `# comment`
    lines are skipped but still counted, where a row may start: a `#` line
    that continues a quoted field is data. Lines are read only as the rows
    are asked for, so a caller may take the header here and pass the rest of
    the file to `parse_numeric_lines`."""
    done = 0  # lines that the rows read so far took up

    def source():
        for i, line in enumerate(lines):
            yield "\n" if i == done and line.startswith("#") else line

    reader = csv.reader(source())
    for row in reader:
        done = reader.line_num
        if row:
            yield done, row


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The row reader: `csv_rows` of a file, which stays open until the last
    row is read or the iterator is closed; a caller that may stop early
    closes it (`contextlib.closing`). It reads every row that csv can read:
    the reference for `parse_numeric_lines`, which reads only plain numeric
    rows, and the reader of every file that parse refuses, so that its
    faults are reported row by row."""
    with open_csv(path) as fh:
        yield from csv_rows(fh)


# parse_numeric_lines refuses a file that is not ASCII (np.loadtxt reads a
# non-ASCII digit such as "२" in an int field as a wrong number), or holds a
# quote (quoted or multi-line fields, which only csv reads), NUL (np.loadtxt
# drops it from the end of a string cell) or one of \x1c-\x1f, which
# np.loadtxt strips around a number as whitespace and int() and float() do not.
_REFUSED_CHARS = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _refused(block: list[str]) -> bool:
    """Whether a block of lines holds a character that the C parse refuses;
    the block's text is joined here, so that it is not kept while np.loadtxt
    reads the block."""
    text = "".join(block)
    return not text.isascii() or any(ch in text for ch in _REFUSED_CHARS)


# Lines filled at a time: the copies a fill makes of a block's text raised
# fixture_e2e's peak RSS by about 0.5 MiB when made of a whole block at once
_FILL_LINES = 128
_NAN = np.frombuffer(b"nan", np.uint8)


def _fill_empty(block: list[str]) -> tuple[list[bytes], int]:
    """A block's lines as bytes, each with its line end, with every empty
    cell but a line's first set to "nan", and the number of cells set. The
    text of _FILL_LINES lines is filled at a time: a cell is empty where a
    comma is followed by a comma, a line end or the end of the text."""
    lines: list[bytes] = []
    filled = 0
    for lo in range(0, len(block), _FILL_LINES):
        chars = np.frombuffer("".join(block[lo:lo + _FILL_LINES]).encode("ascii"), np.uint8)
        ends = np.ones(len(chars), dtype=bool)
        after = chars[1:]
        ends[:-1] = after == ord(",")
        ends[:-1] |= after == ord("\r")
        ends[:-1] |= after == ord("\n")
        at = np.flatnonzero(ends & (chars == ord(","))) + 1
        full = np.insert(chars, np.repeat(at, len(_NAN)), np.tile(_NAN, len(at)))
        lines += full.tobytes().splitlines(keepends=True)
        filled += len(at)
    return lines, filled


def parse_numeric_lines(lines: Iterable[str], lineno: int, dtype: np.dtype,
                        fill: bool = False) -> tuple | None:
    """A CSV file's data rows parsed in C by one np.loadtxt call, when the
    fields of each row are those of the structured `dtype`; an object field
    keeps its cell as it stands, an empty one as "". It reads the rows of
    every dataset and lexicon file (`parse_dataset`) and of every feature
    table (`FeatureTable.from_csv`) unless it refuses the file.

    `lines` are the file's lines after its header, which ends on line
    `lineno`, as `open_csv` reads them. They reach np.loadtxt a block of
    CSV_BLOCK_ROWS lines at a time, each block checked as one text; only a
    block with a `#` line or a blank line is filtered a line at a time, to
    skip and count those lines as `csv_rows` does. With `fill`, every empty
    cell but a row's first is set to "nan" (`_fill_empty`), and counted.
    Gives (rows as a 1-d array of `dtype`, line number per row, filled
    cells), or None for a file that the row reader must read: one with a
    non-ASCII character or one of _REFUSED_CHARS, a cell np.loadtxt cannot
    read into its field or a row with another number of fields."""
    numbers: list[int] = []
    filled = 0
    refused = False

    def blocks() -> Iterator[list[str] | list[bytes]]:
        nonlocal filled, refused
        for start in count(lineno + 1, CSV_BLOCK_ROWS):
            block = list(islice(lines, CSV_BLOCK_ROWS))
            if not block:
                return
            if _refused(block):
                refused = True
                return
            # a `#` line and a blank line start with a character before "$"
            if min(block) < "$":
                keep = [line[0] not in "#\r\n" for line in block]
                numbers.extend(compress(range(start, start + len(block)), keep))
                block = list(compress(block, keep))
            else:
                numbers.extend(range(start, start + len(block)))
            if fill:
                block, n = _fill_empty(block)
                filled += n
            yield block

    rows = chain.from_iterable(blocks())
    head = next(rows, None)  # np.loadtxt warns on a file without rows
    try:
        values = (np.empty(0, dtype) if head is None else
                  np.loadtxt(chain([head], rows), dtype=dtype, delimiter=",", comments=None,
                             ndmin=1))
    except ValueError:
        return None
    return None if refused else (values, numbers, filled)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    blocks: Iterable[Sequence[Sequence[str]]],
    comment: str | None = None,
) -> None:
    """The one CSV writer: optional `# comment` line, header, then each block
    of rows, written atomically. A block is a list of columns, one per header
    name, of finished cells: numbers already formatted, and text already
    passed through `quote_cells`, where csv.writer's quoting rule is applied.
    A first cell that starts with "#" is quoted as well, since both readers
    skip a line that starts with "#" as a comment. Each block's rows are
    joined with "," and "\r\n" (csv's default dialect) and written to the
    temp file before the next block is asked for, so only one block's text is
    alive; the file is replaced after the last block."""
    with _atomic_open(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(quote_cells(header, {})) + "\r\n")
        for columns in blocks:
            if len(columns) != len(header) or len(set(map(len, columns))) > 1:
                raise ValueError(f"{path}: a block needs {len(header)} columns of equal length")
            if len(columns) == 1 and "" in columns[0]:
                raise ValueError(f"{path}: an empty cell in a one-column table reads back as no row")
            first = columns[0]
            if "#" in "".join(first):
                first = [f'"{cell}"' if cell[:1] == "#" else cell for cell in first]
            lines = list(map(",".join, zip(first, *columns[1:])))
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")
