"""Per-itinerary feature assembly.

Builds one feature row per displayed itinerary: competitive-pricing features
(own fare vs cheapest/second-cheapest market fare, rolling-window movement
statistics), airline/OD schedule features, and broadcast airline-level
aggregates (review medians, sentiment, safety, fleet).

Conventions pinned here:

- Per-airline fare at a (od, dep_day, dbd) key is the minimum over that
  airline's itineraries at the key.
- yy is the cheapest per-airline fare in the market, xx the fare of the
  second airline after sorting by (fare, airline_id); multiple airlines can
  be cheapest and xx can equal yy.
- Rolling windows are strictly prior: the window for day t covers diffs at
  t-w .. t-1 and the feature is missing unless all w days are present.
- Own-airline (al) diffs are day-over-day fare changes: fare(t) - fare(t-1).
- Missing values are NaN inside the in-memory matrix and empty fields in the
  CSV form. Second-cheapest columns are canonically named *_xx and written
  with a *_zz alias in CSV output.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ingest import (
    CSV_BLOCK_ROWS,
    REVIEW_SCORES,
    ItineraryRecord,
    ParseError,
    _g6,
    csv_rows,
    format_numbers,
    open_csv,
    parse_numeric_lines,
    quote_cells,
    write_csv,
)
from . import sentiment as sent

__all__ = [
    "ROLL_WINDOWS",
    "ROLL_REFS",
    "FeatureTable",
    "FEATURE_COLUMNS",
    "MODEL_FEATURES",
    "build_airline_aggregates",
    "assemble_feature_vectors",
]

ROLL_WINDOWS = (3, 7, 14, 28)
ROLL_REFS = ("al", "yy", "xx")
ROLL_STATS = ("mean", "sd", "min", "max")

# Morning/evening boundaries in minutes after midnight.
MORNING_END = 9 * 60
EVENING_START = 18 * 60
NIGHT_DEP_START = 21 * 60
NIGHT_DEP_END = 5 * 60
IDEAL_DEP = 6 * 60  # 6AM anchor for dept_delta

# An itinerary counts as direct when its connection slack over the fastest
# observed routing on the OD is under half an hour.
DIRECT_SLACK_HOURS = 0.5

WIDEBODY_TYPES = frozenset({"77W", "772", "789", "788", "359", "351", "388", "744", "333", "339", "781"})


def _roll_columns() -> list[str]:
    cols = []
    for ref in ROLL_REFS:
        for w in ROLL_WINDOWS:
            for stat in ROLL_STATS:
                cols.append(f"{stat}{w}d_{ref}")
    return cols


# dbd and dep_time_mam also key rows but live in FEATURE_COLUMNS.
KEY_COLUMNS = ["airline_id", "dep_day_id"]

PRICING_COLUMNS = ["is_cheapest", "mkt_fare", "mkt_fare_diff", "mkt_fare_diff_perc",
                   "xx_fare_diff"] + _roll_columns()

SCHEDULE_COLUMNS = [
    "direct_flight", "has_night_flight", "has_day_flight", "has_night_departure",
    "has_morning_arrival", "has_evening_departure", "first_flight_dep",
    "first_flight_arr", "last_flight_dep", "last_flight_arr", "min_flying_time",
    "min_conn_time", "min_travel_time", "tt_delta", "dept_delta",
    "num_frequencies", "home_carrier", "wide_body",
]

AGGREGATE_COLUMNS = [
    "rating_recommended", "rating_review", *(f"rating_{name}" for name in REVIEW_SCORES),
    "rating_obs", "twitter_sentiment", "safety_score", "fleet_size",
    "fleet_cost", "fleet_age",
]

FEATURE_COLUMNS = (
    ["price", "travel_time", "dbd", "bucket_t", "dep_time_mam"]
    + PRICING_COLUMNS
    + SCHEDULE_COLUMNS
    + AGGREGATE_COLUMNS
    # sc1/sc2 have no source among the six datasets and are always missing;
    # they keep their place so the column layout and features.csv stay fixed.
    + ["sc1", "sc2"]
)

# Columns fed to the learners: everything except identifiers and the label.
# dep_day_id is kept out of the model (it is the holdout-split key) and
# airline_id is kept out so airline-level effects flow through their
# describing features rather than the opaque id.
MODEL_FEATURES = FEATURE_COLUMNS

ALL_COLUMNS = KEY_COLUMNS + FEATURE_COLUMNS + ["is_bought"]

# features.csv's header: the *_xx columns are written as *_zz
_CSV_HEADER = ["od"] + [re.sub(r"_xx$", "_zz", c) for c in ALL_COLUMNS]


@dataclass
class FeatureTable:
    """Feature matrix with one row per displayed itinerary.

    `values` is float64 with one column per ALL_COLUMNS name, in that order,
    and NaN marking missing fields; `ods` carries the per-row OD string
    separately from the numeric block.
    """

    ods: list[str]
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, ALL_COLUMNS.index(name)]

    def model_matrix(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Return (X, missing_mask, names) for the learner-facing columns."""
        idx = [ALL_COLUMNS.index(c) for c in MODEL_FEATURES]
        X = self.values[:, idx].copy()
        missing = np.isnan(X)
        X[missing] = 0.0
        return X, missing, list(MODEL_FEATURES)

    def labels(self) -> np.ndarray:
        return self.column("is_bought").astype(np.int64)

    def to_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        """Write the table through `write_csv` a block of CSV_BLOCK_ROWS rows
        at a time: the `od` column quoted by `quote_cells` (csv.writer's rule,
        once per distinct OD), the numeric columns by `_feature_cells` through
        one `format_numbers` call, once per distinct value of the block."""
        memo: dict[str, str] = {}
        write_csv(path, _CSV_HEADER, (
            [quote_cells(self.ods[lo:lo + CSV_BLOCK_ROWS], memo),
             *format_numbers(self.values[lo:lo + CSV_BLOCK_ROWS].T, _feature_cells)]
            for lo in range(0, len(self), CSV_BLOCK_ROWS)), header_comment)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureTable":
        """Read a table that `farecast features` wrote. A header other than
        `od` followed by ALL_COLUMNS (as to_csv writes them) raises
        ParseError naming the file; so does the first faulty row, naming its
        line: a row with the wrong field count, a cell that is neither empty
        nor a finite number (a literal `nan` included) or an `is_bought`
        other than 0 or 1.

        The file is opened once. The header is read by `csv_rows`; the rows
        are then parsed in C (`parse_numeric_lines`), `od` as an object field
        and each empty cell after it filled with "nan" as a missing value.
        That parse is kept only for a clean table: its non-finite values are
        its empty cells, and every is_bought is 0 or 1. Any other file, one
        that parse refuses included, is read again from its start by the row
        reader (`_read_rows`), which alone names a row's fault."""
        with open_csv(path) as fh:
            lineno, header = next(csv_rows(fh), (0, []))
            if header[:1] != ["od"]:
                raise ParseError(f"{path}: header must start with an 'od' column")
            if header != _CSV_HEADER:
                absent = [c for c in _CSV_HEADER if c not in header]
                detail = (f"{len(absent)} missing, the first {absent[0]!r}" if absent
                          else "unknown or reordered columns")
                raise ParseError(f"{path}: header is not the feature table's columns ({detail})")
            parsed = parse_numeric_lines(fh, lineno, _CSV_DTYPE, fill=True)
            if parsed is not None:
                rows, _, empty = parsed
                # a view of the rows' values field: a contiguous copy of it
                # raised the tracemalloc peak of from_csv by half
                values = rows["values"]
                label = values[:, _IS_BOUGHT]
                if (np.count_nonzero(~np.isfinite(values)) == empty
                        and ((label == 0) | (label == 1)).all()):
                    return cls(ods=rows["od"].tolist(), values=values)
            fh.seek(0)
            ods, values = _read_rows(path, islice(csv_rows(fh), 1, None))
        return cls(ods=ods, values=values)


# features.csv's rows as parse_numeric_lines reads them
_CSV_DTYPE = np.dtype([("od", object), ("values", np.float64, (len(ALL_COLUMNS),))])
_IS_BOUGHT = ALL_COLUMNS.index("is_bought")
# Rows the row reader converts before it makes them an array: converting a
# faulty 3,695-row table whole took its read's tracemalloc peak from 7.5 MiB
# to 31.8 MiB.
_CHECK_ROWS = 128


def _read_rows(path: str | Path, rows: Iterator[tuple[int, list[str]]]) -> tuple[list[str], np.ndarray]:
    """The row reader of a features.csv: (ods, values) of its rows after the
    header, as `csv_rows` yields them, each checked as it is converted. The
    first faulty row raises ParseError naming the file, its line and its
    first fault, in this order: the wrong field count, a cell that float()
    cannot read, a literal nan or infinite cell (in column order), an
    is_bought other than 0 or 1. A block of _CHECK_ROWS rows becomes an
    array before the next is read, so only one block's cells are alive."""
    ods: list[str] = []
    blocks: list[np.ndarray] = []
    while block := list(islice(rows, _CHECK_ROWS)):
        cells = []
        for lineno, (od, *row) in block:
            try:
                if len(row) != len(ALL_COLUMNS):
                    raise ValueError(f"expected {len(_CSV_HEADER)} fields, got {len(row) + 1}")
                values = [float(v) if v else math.nan for v in row]
                if sum(map(math.isfinite, values)) + row.count("") != len(row):
                    name, value = next((name, value) for name, cell, value in
                                       zip(_CSV_HEADER[1:], row, values)
                                       if cell and not math.isfinite(value))
                    raise ValueError(f"{name} is " + ("infinite" if math.isinf(value) else
                                                      "nan; a missing value is an empty cell"))
                if values[_IS_BOUGHT] not in (0.0, 1.0):
                    raise ValueError(f"is_bought must be 0 or 1, got {row[_IS_BOUGHT]!r}")
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            ods.append(od)
            cells.append(values)
        blocks.append(np.array(cells, dtype=np.float64))
    return ods, np.concatenate([*blocks, np.empty((0, len(ALL_COLUMNS)))])


def _feature_cells(uniq: np.ndarray) -> np.ndarray:
    """The cells of a block's distinct numeric values (see `format_numbers`):
    "" for NaN, an integer value below 1e15 in magnitude through `str` of its
    int64, any other value as "%.6g"."""
    text = np.array(_g6(uniq), dtype=object)
    whole = (np.abs(uniq) < 1e15) & (uniq == np.trunc(uniq))  # False for NaN
    text[whole] = list(map(str, uniq[whole].astype(np.int64).tolist()))
    text[np.isnan(uniq)] = ""
    return text


_CODE_DIGITS = re.compile(r"(\d+)$")


def _airline_id_from_code(code: str) -> int | None:
    """Safety files key airlines by code; trailing digits carry the obfuscated id."""
    m = _CODE_DIGITS.search(code)
    return int(m.group(1)) if m else None


def _by_airline(columns: Mapping[str, Sequence]) -> dict[int, dict[str, list]]:
    """A column mapping's rows grouped by airline_id, airlines in order of
    first appearance: each group holds every field as a list of Python
    values, rows in input order."""
    lists = {name: col.tolist() if isinstance(col, np.ndarray) else col
             for name, col in columns.items()}
    groups: dict[int, dict[str, list]] = {}
    for i, aid in enumerate(lists["airline_id"]):
        group = groups.setdefault(aid, {name: [] for name in lists})
        for name, col in lists.items():
            group[name].append(col[i])
    return groups


def build_airline_aggregates(
    reviews: Mapping[str, Sequence],
    tweets: Mapping[str, Sequence],
    safety: Mapping[str, Sequence],
    fleet: Mapping[str, Sequence],
    lexicon: Mapping[str, int],
) -> dict[int, dict[str, float]]:
    """Airline-level aggregates broadcast onto itineraries by airline_id, as
    {airline_id: {AGGREGATE_COLUMNS name: value}} holding present values only.
    Each dataset is a column mapping (ParseResult.columns).

    Review ordinal ratings aggregate by median, the recommended flag by
    share, free-text sentiment by mean (scaled to 0-10), tweet sentiment by
    median (scaled to 0-10). Tweets are assumed pre-filtered.
    """
    by_airline: dict[int, dict[str, float]] = defaultdict(dict)

    reviews_by_airline = _by_airline(reviews)
    review_texts = {aid: rs["review_text"] for aid, rs in reviews_by_airline.items()}
    review_sent = sent.aggregate_airline_sentiment(review_texts, lexicon, method="mean")
    for aid, rs in reviews_by_airline.items():
        agg, n = by_airline[aid], len(rs["airline_id"])
        agg["rating_recommended"] = sum(rs["recommended"]) / n
        for name in REVIEW_SCORES:
            agg[f"rating_{name}"] = float(statistics.median(rs[name]))
        agg["rating_obs"] = float(n)
        if aid in review_sent:
            agg["rating_review"] = review_sent[aid]

    tweet_texts = {aid: ts["text"] for aid, ts in _by_airline(tweets).items()}
    tweet_sent = sent.aggregate_airline_sentiment(tweet_texts, lexicon, method="median")
    for aid, score in tweet_sent.items():
        by_airline[aid]["twitter_sentiment"] = score

    for code, score in zip(safety["airline_code"], safety["score"].tolist()):
        aid = _airline_id_from_code(code)
        if aid is not None:
            by_airline[aid]["safety_score"] = score

    for aid, frames in _by_airline(fleet).items():
        agg = by_airline[aid]
        agg["fleet_size"] = float(len(frames["airline_id"]))
        agg["fleet_cost"] = sum(frames["aircraft_cost"])
        agg["fleet_age"] = float(statistics.median(frames["aircraft_age"]))

    return dict(by_airline)


def airline_widebody_flags(fleet: Mapping[str, Sequence]) -> dict[int, bool]:
    """Whether the airline's most common airframe type is a wide-body."""
    flags = {}
    for aid, frames in _by_airline(fleet).items():
        types = Counter(frames["aircraft_type"])
        dominant = max(sorted(types), key=types.get)
        flags[aid] = dominant in WIDEBODY_TYPES
    return flags


def _lookup(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted unique keys; -1 where absent."""
    i = np.searchsorted(keys, values).clip(max=len(keys) - 1)
    return np.where(keys[i] == values, i, -1)


class _Market:
    """One OD's fares as (airline, dep_day, dbd) cubes.

    The fare rows are stably sorted by their flat cube cell once, and every
    cube is a reduction over the runs of equal cells (`fill`). Every axis
    ends in one all-NaN slot, so index -1 reads as an absent key. The dbd
    axis starts max(ROLL_WINDOWS) days before the earliest fare, so every
    fare's cell has a full window of positions before it in its row.
    Sorting along the airline axis puts NaN last: yy and xx are the two
    smallest per-airline fares, xx being the fare of the second airline in
    (fare, airline_id) order, or NaN with a single airline.
    """

    def __init__(self, airline, day, dbd, price):
        self.airlines, a = np.unique(airline, return_inverse=True)  # sorted ids, axis 0
        self.days, d = np.unique(day, return_inverse=True)  # sorted dep_day ids, axis 1
        self.dbd0 = int(np.min(dbd)) - max(ROLL_WINDOWS)  # dbd at position 0 of axis 2
        t = np.asarray(dbd, dtype=np.int64) - self.dbd0
        self.shape = (len(self.airlines) + 1, len(self.days) + 1, int(t.max()) + 2)
        cell = np.ravel_multi_index((a, d, t), self.shape)
        self._order = np.argsort(cell, kind="stable")
        cell = cell[self._order]
        self._starts = np.flatnonzero(np.diff(cell, prepend=-1))
        self._cells = cell[self._starts]
        self.fare = self.fill(np.fmin, price)  # per-airline minimum fare
        self.yy, xx = np.sort(self.fare, axis=0)[:2]  # (dep_day, dbd) references
        al = np.diff(self.fare, axis=2, prepend=np.nan)
        self.diffs = {"al": al, "yy": self.fare - self.yy, "xx": self.fare - xx}

    def fill(self, ufunc, values: np.ndarray) -> np.ndarray:
        """Cube of `ufunc` reduced over the values of the fare rows at each
        cell, in row order; NaN at cells without fare rows."""
        cube = np.full(np.prod(self.shape), np.nan)
        cube[self._cells] = ufunc.reduceat(values[self._order], self._starts)
        return cube.reshape(self.shape)

    def index(self, airline, day, dbd) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cube position of each (airline, dep_day, dbd) key; -1 where absent."""
        t = np.asarray(dbd, dtype=np.int64) - self.dbd0
        t = np.where((t >= 0) & (t < self.shape[2] - 1), t, -1)
        return _lookup(self.airlines, airline), _lookup(self.days, day), t


def _window_stats(series: np.ndarray, cells: np.ndarray, w: int) -> tuple[np.ndarray, ...]:
    """(mean, sd, min, max) of the w values of `series` strictly before each
    of `cells` (flat indices, of any shape) along its last axis.

    Each cell must lie at least w positions into its row, so that no window
    reaches into the row before. The sums are those of the scalar oracle
    (tests/oracles.py, rolling_price_features), run in window order, so the
    two agree bit for bit. Any absent value in the window gives NaN.
    """
    window = series.reshape(-1)[np.add.outer(np.arange(-w, 0), cells)]
    mean = sum(window) / w
    dev = window - mean
    sd = np.sqrt(sum(dev * dev) / (w - 1))
    return mean, sd, window.min(axis=0), window.max(axis=0)


def _column(data: Mapping | Sequence, name: str) -> Sequence:
    """One field of a column mapping (ParseResult.columns) or of a record sequence."""
    return data[name] if isinstance(data, Mapping) else list(map(attrgetter(name), data))


def _columns(data: Mapping | Sequence, names: Sequence[str]) -> np.ndarray:
    """Float matrix of the named fields, one row per row of `data`."""
    return np.stack([np.asarray(_column(data, name), dtype=np.float64) for name in names],
                    axis=1)


# Booking fields copied as they are; the first six are also read from fares.
_ROW_FIELDS = ("airline_id", "dep_day_id", "dbd", "dep_time_mam", "travel_time", "price", "is_bought")


def assemble_feature_vectors(
    bookings: Mapping[str, Sequence] | Sequence[ItineraryRecord],
    fares: Mapping[str, Sequence],
    aggregates: Mapping[int, Mapping[str, float]],
    widebody: Mapping[int, bool] | None = None,
) -> FeatureTable:
    """Build the full feature matrix, one row per displayed itinerary.

    `fares` is a column mapping (ParseResult.columns); `bookings` is one
    too or a sequence of ItineraryRecord, and both give the same table. Each
    booking keeps its own recorded price; the competitive-pricing features
    come from the fares dataset alone. Rows are emitted in input order and
    never dropped; fields that cannot be computed are explicitly missing. A
    booking whose OD has no fares keeps only its row-level fields.

    Each OD's fare rows are sorted once into its cubes (`_Market`), and the
    rolling-window statistics are gathered at the keys of the bookings that
    have an own fare, the only keys written (`_window_stats`).
    """
    col = {name: i for i, name in enumerate(ALL_COLUMNS)}
    row_fields = _columns(bookings, _ROW_FIELDS)
    values = np.full((len(row_fields), len(ALL_COLUMNS)), np.nan)
    values[:, [col[name] for name in _ROW_FIELDS]] = row_fields
    airline, day, dbd, dep, tt = row_fields[:, :5].T
    values[:, col["bucket_t"]] = np.floor(dbd / 10) * 10
    values[:, col["dept_delta"]] = np.abs(dep - IDEAL_DEP)

    ods = list(_column(bookings, "od"))
    fare_ods = fares["od"]
    code = {od: i for i, od in enumerate(dict.fromkeys(chain(ods, fare_ods)))}
    booking_od = np.fromiter(map(code.__getitem__, ods), np.int64, len(ods))
    fare_od = np.fromiter(map(code.__getitem__, fare_ods), np.int64, len(fare_ods))
    fare_fields = _columns(fares, _ROW_FIELDS[:6])
    in_market = np.zeros(len(ods), dtype=bool)
    # np.unique without a return_* flag imports numpy.ma; the codes are small ints
    for market in np.flatnonzero(np.bincount(fare_od)):
        rows = np.flatnonzero(booking_od == market)
        in_market[rows] = True
        fa, fd, ft, fdep, ftt, fprice = fare_fields[fare_od == market].T
        m = _Market(fa, fd, ft, fprice)
        key = m.index(airline[rows], day[rows], dbd[rows])
        base = ftt.min()

        # pricing, rolling and min_flying_time exist where the own key has a
        # fare; such a key's t is at least max(ROLL_WINDOWS) (see _Market)
        priced = ~np.isnan(m.fare[key])
        priced_rows = rows[priced]
        a, d, t = (k[priced] for k in key)
        own, yy = m.fare[a, d, t], m.yy[d, t]
        at_key = {
            "is_cheapest": own == yy,
            "mkt_fare": yy,
            "mkt_fare_diff": m.diffs["yy"][a, d, t],
            "mkt_fare_diff_perc": own / yy - 1.0,
            "xx_fare_diff": m.diffs["xx"][a, d, t],
        }
        cells = np.ravel_multi_index((a, d, t), m.shape)
        for ref in ROLL_REFS:
            for w in ROLL_WINDOWS:
                stats = _window_stats(m.diffs[ref], cells, w)
                at_key.update((f"{s}{w}d_{ref}", v) for s, v in zip(ROLL_STATS, stats))
        values[np.ix_(priced_rows, [col[name] for name in at_key])] = np.column_stack(
            list(at_key.values()))
        values[priced_rows, col["min_flying_time"]] = base

        # schedule groups: the airline's itineraries at the booking's key
        arrival = fdep + ftt * 60.0
        night = arrival >= 1440.0
        arrival %= 1440.0
        for name, ufunc, v in (
            ("has_night_flight", np.fmax, night),
            ("has_day_flight", np.fmax, ~night),
            ("has_evening_departure", np.fmax, fdep > EVENING_START),
            ("first_flight_dep", np.fmin, fdep),
            ("last_flight_dep", np.fmax, fdep),
            ("first_flight_arr", np.fmin, arrival),
            ("last_flight_arr", np.fmax, arrival),
            ("min_conn_time", np.fmin, np.maximum(0.0, ftt - base)),
        ):
            values[rows, col[name]] = m.fill(ufunc, v)[key]
        mintt = np.fmin.reduce(m.fill(np.fmin, ftt), axis=0)[key[1:]]
        values[rows, col["min_travel_time"]] = mintt
        values[rows, col["tt_delta"]] = np.maximum(0.0, tt[rows] - mintt)

        # distinct departure times per airline, counted on the fares sorted by
        # (airline, dep_time); the trailing 0 is for absent airlines
        fare_airline = _lookup(m.airlines, fa)
        by_pair = np.lexsort((fdep, fare_airline))
        pa, pdep = fare_airline[by_pair], fdep[by_pair]
        first = np.ones(len(by_pair), dtype=bool)
        first[1:] = (pa[1:] != pa[:-1]) | (pdep[1:] != pdep[:-1])
        freq = np.bincount(pa[first], minlength=len(m.airlines) + 1)
        values[rows, col["num_frequencies"]] = freq[key[0]]
        values[rows, col["home_carrier"]] = airline[rows] == m.airlines[np.argmax(freq)]
        values[rows, col["direct_flight"]] = tt[rows] - base < DIRECT_SLACK_HOURS
        values[rows, col["has_night_departure"]] = (
            (dep[rows] >= NIGHT_DEP_START) | (dep[rows] < NIGHT_DEP_END)
        )
        values[rows, col["has_morning_arrival"]] = (
            (dep[rows] + tt[rows] * 60.0) % 1440.0 < MORNING_END
        )

    for aid, flag in (widebody or {}).items():
        values[in_market & (airline == aid), col["wide_body"]] = flag
    if aggregates:
        # one (airline x aggregate) table, NaN where an airline lacks a value,
        # gathered by each row's airline; rows of an airline without an
        # entry are left as they are
        aids = sorted(aggregates)
        agg_col = {name: j for j, name in enumerate(AGGREGATE_COLUMNS)}
        table = np.full((len(aids), len(AGGREGATE_COLUMNS)), np.nan)
        for i, aid in enumerate(aids):
            for name, v in aggregates[aid].items():
                table[i, agg_col[name]] = v
        where = _lookup(np.array(aids, dtype=np.float64), airline)
        hit = np.flatnonzero(in_market & (where >= 0))
        values[np.ix_(hit, [col[name] for name in AGGREGATE_COLUMNS])] = table[where[hit]]

    return FeatureTable(ods=ods, values=values)
