"""Parsing and validation for the six input dataset schemas plus the lexicon.

All files are UTF-8 comma-separated values with a single header row and "."
as the decimal separator. Rows that fail validation are rejected individually
with a positioned error message; parsing only aborts when more than half of
the data rows are rejected.

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
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

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
    records: list
    rejected: list[tuple[int, str]]

    @property
    def n_accepted(self) -> int:
        return len(self.records)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


_TRUE = {"1", "true", "t", "y", "yes"}
_FALSE = {"0", "false", "f", "n", "no"}


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_int(raw: str) -> int:
    return int(raw.strip())


def _to_float(raw: str) -> float:
    val = float(raw.strip())
    if not math.isfinite(val):
        raise ValueError(f"non-finite value: {raw!r}")
    return val


def _to_str(raw: str) -> str:
    return raw


_COERCERS = {int: _to_int, float: _to_float, bool: _to_bool, str: _to_str}


def _validate_itinerary_common(rec) -> str | None:
    if rec.dbd > 0:
        return "dbd out of range (must be <= 0)"
    if not (0 <= rec.dep_time_mam < 1440):
        return "dep_time_mam out of range"
    if rec.travel_time <= 0:
        return "travel_time must be positive"
    if rec.price <= 0:
        return "price must be positive"
    return None


def _validate_review(rec: ReviewRecord) -> str | None:
    for name in REVIEW_SCORES:
        if getattr(rec, name) not in (1, 2, 3, 4, 5):
            return f"{name} score outside 1..5"
    return None


def _validate_safety(rec: SafetyRecord) -> str | None:
    return None if rec.score >= 0 else "score must be nonnegative"


def _validate_fleet(rec: FleetRecord) -> str | None:
    if rec.aircraft_age < 0:
        return "aircraft_age must be nonnegative"
    if rec.aircraft_cost <= 0:
        return "aircraft_cost must be positive"
    return None


def _validate_lexicon(rec: LexiconEntry) -> str | None:
    if not (-5 <= rec.score <= 5):
        return "score outside -5..5"
    if rec.word != rec.word.lower():
        return "word must be lowercase"
    return None


# schema kind -> (record type, row validator)
SCHEMAS = {
    "bookings": (ItineraryRecord, _validate_itinerary_common),
    "fares": (FareObservation, _validate_itinerary_common),
    "reviews": (ReviewRecord, _validate_review),
    "tweets": (TweetRecord, lambda rec: None),
    "safety": (SafetyRecord, _validate_safety),
    "fleet": (FleetRecord, _validate_fleet),
    "lexicon": (LexiconEntry, _validate_lexicon),
}

# The six per-OD kinds; each is stored as <kind>.csv and held in the
# synth.MarketData field of the same name.
DATASETS = tuple(kind for kind in SCHEMAS if kind != "lexicon")


def schema_columns(schema: str) -> list[str]:
    rec_type, _ = SCHEMAS[schema]
    return [f.name for f in dc_fields(rec_type)]


def parse_dataset(path: str | Path, schema: str) -> ParseResult:
    """Parse one dataset file into validated records plus positioned rejects.

    Deterministic and order-preserving. Raises ParseError on a missing file,
    a header mismatch, or when more than 50% of data rows are rejected.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema: {schema!r}")
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such file: {path}")
    rec_type, validator = SCHEMAS[schema]
    columns = schema_columns(schema)
    hints = get_type_hints(rec_type)
    coercers = [_COERCERS[hints[f.name]] for f in dc_fields(rec_type)]

    rows = read_csv(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file, missing header")
    if header != columns:
        raise ParseError(
            f"{path}: header mismatch for schema {schema!r}: "
            f"expected {columns}, got {header}"
        )
    records: list = []
    rejected: list[tuple[int, str]] = []
    for lineno, row in rows:
        if len(row) != len(columns):
            rejected.append((lineno, f"expected {len(columns)} fields, got {len(row)}"))
            continue
        try:
            values = [coerce(raw) for coerce, raw in zip(coercers, row)]
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
            continue
        rec = rec_type(*values)
        problem = validator(rec)
        if problem is not None:
            rejected.append((lineno, f"{problem} at line {lineno}"))
            continue
        records.append(rec)

    total = len(records) + len(rejected)
    if total > 0 and len(rejected) > total / 2:
        raise ParseError(
            f"{path}: {len(rejected)}/{total} rows rejected (over 50% circuit breaker)"
        )
    return ParseResult(records=records, rejected=rejected)


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
