"""Parsing and validation for the six input dataset schemas plus the lexicon.

All files are UTF-8 comma-separated values with a single header row and "."
as the decimal separator. Rows that fail validation are rejected individually
with a positioned error message; parsing only aborts when more than half of
the data rows are rejected.

Parsing works a block of rows at a time: the rows are coerced CSV_BLOCK_ROWS
at a time, each column of a block in one call, so only one block's cells are
alive; each column's blocks are then joined, and each schema's rules are
masks over the joined columns. The accepted rows are held as columns
(`ParseResult.columns`); the record objects (`ParseResult.records`) are built
from them on demand, for the callers that still take records. The fares,
the largest dataset, are columns from generation on: `synth.MarketData.fares`
is the mapping that `ParseResult.columns` holds for a fares file, and
`serialize_dataset` writes it as it stands.

Each schema decision is made here once (`SCHEMAS`, `DATASETS`,
`REVIEW_SCORES`). `read_csv` and `write_csv` are the package's one CSV reader
and writer: every CSV input (datasets, lexicon, feature tables) and every
artifact goes through them. `read_csv` reads the file's lines as its rows
are asked for. Writing also works a column at a time: a writer
formats a block of rows as columns of finished cells, each numeric column
with its artifact's own rule once per distinct value (`format_floats`) and
each text column through `quote_cells`, the one place csv.writer's quoting
rule is applied; `write_csv` joins the block's rows with "," and CRLF into a
temp file that replaces the target only once the last block is written.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass, fields as dc_fields
from functools import cached_property
from itertools import chain, compress, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, get_type_hints

import numpy as np

__all__ = [
    "ItineraryRecord",
    "FareObservation",
    "ReviewRecord",
    "TweetRecord",
    "SafetyRecord",
    "FleetRecord",
    "LexiconEntry",
    "ParseResult",
    "ParseError",
    "SCHEMAS",
    "DATASETS",
    "REVIEW_SCORES",
    "empty_columns",
    "parse_dataset",
    "serialize_dataset",
    "format_floats",
    "quote_cells",
    "filter_tweets",
    "atomic_write_text",
    "read_csv",
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


@dataclass(frozen=True, slots=True)
class FareObservation:
    od: str
    airline_id: int
    dep_day_id: int
    dbd: int
    dep_time_mam: int
    travel_time: float
    price: float


@dataclass(frozen=True, slots=True)
class ReviewRecord:
    airline_id: int
    recommended: bool
    review_text: str
    fb: int
    ground: int
    ife: int
    crew: int
    seat: int
    value: int
    wifi: int


# The seven 1..5 ordinal ratings: every ReviewRecord field after review_text.
REVIEW_SCORES = tuple(f.name for f in dc_fields(ReviewRecord))[3:]


@dataclass(frozen=True, slots=True)
class TweetRecord:
    airline_id: int
    text: str
    is_retweet: bool
    is_reply: bool
    language_tag: str


@dataclass(frozen=True, slots=True)
class SafetyRecord:
    airline_code: str
    score: float


@dataclass(frozen=True, slots=True)
class FleetRecord:
    airline_id: int
    aircraft_type: str
    aircraft_cost: float
    registration: str
    aircraft_age: float


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    word: str
    score: int


@dataclass
class ParseResult:
    """The accepted rows of one file as columns, plus positioned rejects.

    `columns` maps each schema field, in schema order, to a numpy array (int,
    float and bool fields) or a list of strings; `records` builds the schema's
    record objects from them on first use.
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
    def records(self) -> list:
        rec_type, _ = SCHEMAS[self.schema]
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return list(map(rec_type, *cols))


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


# schema kind -> (record type, column validator)
SCHEMAS = {
    "bookings": (ItineraryRecord, _check_itinerary),
    "fares": (FareObservation, _check_itinerary),
    "reviews": (ReviewRecord, _check_review),
    "tweets": (TweetRecord, lambda c: []),
    "safety": (SafetyRecord, _check_safety),
    "fleet": (FleetRecord, _check_fleet),
    "lexicon": (LexiconEntry, _check_lexicon),
}

# The six per-OD kinds; each is stored as <kind>.csv and held in the
# synth.MarketData field of the same name.
DATASETS = tuple(kind for kind in SCHEMAS if kind != "lexicon")


def schema_columns(schema: str) -> list[str]:
    rec_type, _ = SCHEMAS[schema]
    return [f.name for f in dc_fields(rec_type)]


def empty_columns(schema: str) -> dict[str, np.ndarray | list[str]]:
    """The schema's column mapping with no rows, as `ParseResult.columns`
    holds it: an empty list for a str field, an empty array of the field's
    dtype for the others."""
    rec_type, _ = SCHEMAS[schema]
    return {name: [] if typ is str else np.empty(0, _DTYPES[typ])
            for name, typ in get_type_hints(rec_type).items()}


def parse_dataset(path: str | Path, schema: str) -> ParseResult:
    """Parse one dataset file into validated columns plus positioned rejects.

    Deterministic and order-preserving. Raises ParseError on a missing file,
    a header mismatch, or when more than 50% of data rows are rejected.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema: {schema!r}")
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such file: {path}")
    rec_type, validator = SCHEMAS[schema]
    names = schema_columns(schema)
    hints = get_type_hints(rec_type)

    lines: list[int] = []  # line of each row with the right field count
    rejected: list[tuple[int, str]] = []
    errors: dict[int, str] = {}  # row index -> message of its first failing column
    blocks = []
    with closing(read_csv(path)) as rows:
        _, header = next(rows, (0, None))
        if header is None:
            raise ParseError(f"{path}: empty file, missing header")
        if header != names:
            raise ParseError(
                f"{path}: header mismatch for schema {schema!r}: "
                f"expected {names}, got {header}"
            )

        def accepted() -> Iterator[list[str]]:
            for lineno, row in rows:
                if len(row) != len(names):
                    rejected.append((lineno, f"expected {len(names)} fields, got {len(row)}"))
                else:
                    lines.append(lineno)
                    yield row

        # coerced a block of CSV_BLOCK_ROWS rows at a time, so only one
        # block's cells are alive; each column's blocks are joined after the
        # last one, ending with an empty part of its type for a file without
        # data rows
        rows_in = accepted()
        while block := list(islice(rows_in, CSV_BLOCK_ROWS)):
            start = len(lines) - len(block)
            blocks.append([_coerce_column(hints[name], col, errors, start)
                           for name, col in zip(names, zip(*block))])
    columns = {
        name: list(chain.from_iterable(parts)) if hints[name] is str else np.concatenate(parts)
        for name, parts in zip(names, zip(*blocks, empty_columns(schema).values()))
    }
    del blocks
    for bad, problem in validator(columns):
        for i in np.flatnonzero(bad).tolist():
            if i not in errors:
                errors[i] = f"{problem} at line {lines[i]}"
    if errors:
        rejected += [(lines[i], message) for i, message in errors.items()]
        rejected.sort()
        keep = np.ones(len(lines), dtype=bool)
        keep[list(errors)] = False
        columns = {
            name: col[keep] if isinstance(col, np.ndarray) else list(compress(col, keep))
            for name, col in columns.items()
        }

    n_accepted = len(lines) - len(errors)
    total = n_accepted + len(rejected)
    if total > 0 and len(rejected) > total / 2:
        raise ParseError(
            f"{path}: {len(rejected)}/{total} rows rejected (over 50% circuit breaker)"
        )
    return ParseResult(schema=schema, columns=columns, rejected=rejected)


# Rows per block: serialize_dataset and FeatureTable.to_csv format and write,
# parse_dataset coerces and FeatureTable.from_csv converts, one block of rows
# at a time, so only one block's cells are alive.
CSV_BLOCK_ROWS = 1024

_BOOL_CELLS = {True: "1", False: "0"}


def _g6(values: np.ndarray) -> list[str]:
    return ["%.6g" % v for v in values.tolist()]


def _foreign_type(col: Sequence, typ: type) -> type | None:
    """The first type other than `typ` among a column's values, or None; an
    array's dtype stands for the type of each of its values."""
    if isinstance(col, np.ndarray):
        held = _PY_TYPES.get(col.dtype, col.dtype.type)
        return None if held is typ else held
    if set(map(type, col)) == {typ}:
        return None
    return next(type(v) for v in col if type(v) is not typ)


def serialize_dataset(
    data: Mapping[str, Sequence] | Iterable, schema: str, path: str | Path
) -> None:
    """Write a dataset in the schema's canonical column order: `data` is
    either a column mapping, as `ParseResult.columns` holds and
    `synth.MarketData.fares` is, or an iterable of the schema's records.
    Rows go a block at a time and a column at a time within a block, each
    column by its field's type: bool as "1"/"0", int through `str`, float as
    "%.6g" once per distinct value, str quoted by `quote_cells`. A value
    whose type is not exactly its field's type (a bool in an int field, an
    int in a float field), or an array whose dtype is not the field's
    (`_DTYPES`), raises TypeError naming the schema and field."""
    rec_type, _ = SCHEMAS[schema]
    hints = get_type_hints(rec_type)
    names = schema_columns(schema)
    memo: dict[str, str] = {}

    def cells(name: str, col: Sequence) -> list[str]:
        typ = hints[name]
        bad = _foreign_type(col, typ)
        if bad is not None:
            raise TypeError(
                f"{schema}.{name} holds a {bad.__name__} value; the field is {typ.__name__}")
        if isinstance(col, np.ndarray):
            col = col.tolist()
        if typ is bool:
            return list(map(_BOOL_CELLS.__getitem__, col))
        if typ is int:
            return list(map(str, col))
        if typ is float:
            return format_floats(np.array(col, dtype=np.float64), _g6)
        return quote_cells(col, memo)

    # each block as its columns: slices of a mapping, or a block of records
    # turned into columns
    if isinstance(data, Mapping):
        n_rows = len(data[names[0]])
        parts = ([data[name][lo:lo + CSV_BLOCK_ROWS] for name in names]
                 for lo in range(0, n_rows, CSV_BLOCK_ROWS))
    else:
        rows, row_of = iter(data), attrgetter(*names)
        parts = (zip(*map(row_of, block))
                 for block in iter(lambda: list(islice(rows, CSV_BLOCK_ROWS)), []))
    write_csv(path, names, ([cells(name, col) for name, col in zip(names, part)] for part in parts))


def format_floats(col: np.ndarray, rule: Callable[[np.ndarray], Sequence[str]]) -> list[str]:
    """A float column's cells, with `rule` mapping its sorted distinct values
    to their cells in one call. Values are told apart by their bits, so 0.0
    and -0.0, which np.unique and dict keys merge, each get their own cell."""
    uniq, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return np.array(rule(uniq.view(np.float64)), dtype=object)[inverse].tolist()


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


def filter_tweets(tweets: Iterable[TweetRecord]) -> list[TweetRecord]:
    """Keep only original (non-retweet, non-reply) English tweets."""
    return [
        t for t in tweets
        if not t.is_retweet and not t.is_reply and t.language_tag == "en"
    ]


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


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The one CSV reader: (physical line number, fields) for each non-empty
    row, the number being the line the row ends on. `# comment` lines are
    skipped but still counted, where a row may start: a `#` line that
    continues a quoted field is data. Lines are read as the rows are asked
    for, so the file stays open until the last row is read or the iterator
    is closed; a caller that may stop early closes it (`contextlib.closing`)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        done = 0  # lines that the rows read so far took up

        def source():
            for i, line in enumerate(fh):
                yield "\n" if i == done and line.startswith("#") else line

        reader = csv.reader(source())
        for row in reader:
            done = reader.line_num
            if row:
                yield done, row


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
    Each block's rows are joined with "," and "\r\n" (csv's default dialect)
    and written to the temp file before the next block is asked for, so only
    one block's text is alive; the file is replaced after the last block."""
    with _atomic_open(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(quote_cells(header, {})) + "\r\n")
        for columns in blocks:
            if len(columns) != len(header) or len(set(map(len, columns))) > 1:
                raise ValueError(f"{path}: a block needs {len(header)} columns of equal length")
            if len(columns) == 1 and "" in columns[0]:
                raise ValueError(f"{path}: an empty cell in a one-column table reads back as no row")
            lines = list(map(",".join, zip(*columns)))
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")
