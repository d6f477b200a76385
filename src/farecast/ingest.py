"""Parsing and validation for the six input dataset schemas plus the lexicon.

All files are UTF-8 comma-separated values with a single header row and "."
as the decimal separator. Rows that fail validation are rejected individually
with a positioned error message; parsing only aborts when more than half of
the data rows are rejected.

Parsing works a column at a time: each column is coerced in one call and
each schema's rules are masks over the coerced columns, so the accepted rows
are held as columns (`ParseResult.columns`). The record objects
(`ParseResult.records`) are built from them on demand.

Each schema decision is made here once (`SCHEMAS`, `DATASETS`,
`REVIEW_SCORES`). `read_csv` and `write_csv` are the package's one CSV reader
and writer: every CSV input (datasets, lexicon, feature tables) and every
artifact goes through them, the artifacts via `atomic_write_text`'s temp
file + rename.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass, fields as dc_fields
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

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
    "parse_dataset",
    "serialize_dataset",
    "filter_tweets",
    "atomic_write_text",
    "read_csv",
    "write_csv",
]


class ParseError(Exception):
    """Fatal parse failure: missing file, bad header, or >50% rows rejected."""


@dataclass(frozen=True)
class ItineraryRecord:
    od: str
    airline_id: int
    dep_day_id: int
    dbd: int
    dep_time_mam: int
    travel_time: float
    price: float
    is_bought: bool


@dataclass(frozen=True)
class FareObservation:
    od: str
    airline_id: int
    dep_day_id: int
    dbd: int
    dep_time_mam: int
    travel_time: float
    price: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TweetRecord:
    airline_id: int
    text: str
    is_retweet: bool
    is_reply: bool
    language_tag: str


@dataclass(frozen=True)
class SafetyRecord:
    airline_code: str
    score: float


@dataclass(frozen=True)
class FleetRecord:
    airline_id: int
    aircraft_type: str
    aircraft_cost: float
    registration: str
    aircraft_age: float


@dataclass(frozen=True)
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


def _coerce_column(typ: type, cells: Sequence[str], errors: dict[int, str]):
    """One column coerced in one call: an array, or a list for str. A column
    that fails goes through its scalar coercer cell by cell, and each failing
    cell's message is kept under its row index unless an earlier column of
    that row already failed."""
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
            errors.setdefault(int(i), str(exc))
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

    rows = read_csv(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file, missing header")
    if header != names:
        raise ParseError(
            f"{path}: header mismatch for schema {schema!r}: "
            f"expected {names}, got {header}"
        )
    lines: list[int] = []
    kept: list[list[str]] = []
    rejected: list[tuple[int, str]] = []
    for lineno, row in rows:
        if len(row) != len(names):
            rejected.append((lineno, f"expected {len(names)} fields, got {len(row)}"))
        else:
            lines.append(lineno)
            kept.append(row)

    cells = list(zip(*kept)) or [()] * len(names)
    errors: dict[int, str] = {}  # row index -> message of its first failing column
    columns = {
        name: _coerce_column(hints[name], col, errors) for name, col in zip(names, cells)
    }
    for bad, problem in validator(columns):
        for i in np.flatnonzero(bad).tolist():
            if i not in errors:
                errors[i] = f"{problem} at line {lines[i]}"
    if errors:
        rejected += [(lines[i], message) for i, message in errors.items()]
        rejected.sort()
        keep = np.ones(len(kept), dtype=bool)
        keep[list(errors)] = False
        columns = {
            name: col[keep] if isinstance(col, np.ndarray) else list(compress(col, keep))
            for name, col in columns.items()
        }

    n_accepted = len(kept) - len(errors)
    total = n_accepted + len(rejected)
    if total > 0 and len(rejected) > total / 2:
        raise ParseError(
            f"{path}: {len(rejected)}/{total} rows rejected (over 50% circuit breaker)"
        )
    return ParseResult(schema=schema, columns=columns, rejected=rejected)


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "1" if val else "0"
    if isinstance(val, float):
        return f"{val:.6g}"
    return str(val)


def serialize_dataset(records: Iterable, schema: str, path: str | Path) -> None:
    """Write records back out in the schema's canonical column order."""
    columns = schema_columns(schema)
    rows = ([_format_value(getattr(rec, col)) for col in columns] for rec in records)
    write_csv(path, columns, rows)


def filter_tweets(tweets: Iterable[TweetRecord]) -> list[TweetRecord]:
    """Keep only original (non-retweet, non-reply) English tweets."""
    return [
        t for t in tweets
        if not t.is_retweet and not t.is_reply and t.language_tag == "en"
    ]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write whole-file content via a temp file + rename in the same dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The one CSV reader: (physical line number, fields) for each non-empty
    row, the number being the line the row ends on. `# comment` lines are
    skipped but still counted. The file is read and closed before the first
    row is yielded, so a caller that stops early leaves nothing open."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        lines = ["\n" if line.startswith("#") else line for line in fh]
    reader = csv.reader(lines)
    for row in reader:
        if row:
            yield reader.line_num, row


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """The one CSV writer: optional `# comment` line, header, rows (csv's
    default dialect, so lines end in CRLF), written atomically. The file is
    only replaced once every row has been formatted."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())
