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

import csv
import math
import re
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ingest import (
    FareObservation,
    FleetRecord,
    ItineraryRecord,
    ReviewRecord,
    SafetyRecord,
    TweetRecord,
    write_csv,
)
from . import sentiment as sent

__all__ = [
    "ROLL_WINDOWS",
    "ROLL_REFS",
    "MarketRefs",
    "FeatureTable",
    "AirlineAggregates",
    "FEATURE_COLUMNS",
    "MODEL_FEATURES",
    "market_reference_fares",
    "fare_differences",
    "rolling_price_features",
    "bucket_t",
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
    "rating_recommended", "rating_review", "rating_fb", "rating_ground",
    "rating_ife", "rating_crew", "rating_seat", "rating_value", "rating_wifi",
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

_XX_ALIAS = re.compile(r"_xx$")
_ZZ_ALIAS = re.compile(r"_zz$")


@dataclass
class FeatureTable:
    """Feature matrix with one row per displayed itinerary.

    `values` is float64 with NaN marking missing fields; `ods` carries the
    per-row OD string separately from the numeric block.
    """

    ods: list[str]
    columns: list[str]
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def model_matrix(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Return (X, missing_mask, names) for the learner-facing columns."""
        idx = [self.columns.index(c) for c in MODEL_FEATURES]
        X = self.values[:, idx].copy()
        missing = np.isnan(X)
        X[missing] = 0.0
        return X, missing, list(MODEL_FEATURES)

    def labels(self) -> np.ndarray:
        return self.column("is_bought").astype(np.int64)

    def to_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        header = ["od"] + [_XX_ALIAS.sub("_zz", c) for c in self.columns]
        rows = ([od] + [_fmt(v) for v in row] for od, row in zip(self.ods, self.values))
        write_csv(path, header, rows, header_comment)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureTable":
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader)
            if header[0] != "od":
                raise ValueError(f"{path}: first column must be 'od'")
            columns = [_ZZ_ALIAS.sub("_xx", c) for c in header[1:]]
            ods: list[str] = []
            rows: list[list[float]] = []
            for row in reader:
                if not row:
                    continue
                ods.append(row[0])
                rows.append([float(v) if v != "" else math.nan for v in row[1:]])
        values = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(columns)))
        return cls(ods=ods, columns=columns, values=values)


def _fmt(v: float) -> str:
    if math.isnan(v):
        return ""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


@dataclass(frozen=True)
class MarketRefs:
    yy_fare: float
    yy_airline: int
    xx_fare: float | None
    xx_airline: int | None


def market_reference_fares(per_airline_fares: Mapping[int, float]) -> MarketRefs:
    """Cheapest (yy) and second-cheapest (xx) per-airline fares at one key.

    Airlines are ordered by (fare, airline_id); xx is the second airline's
    fare, so equal-fare airlines yield xx == yy. With a single airline, xx
    is absent.
    """
    if not per_airline_fares:
        raise ValueError("no airline fares at this key")
    ordered = sorted(per_airline_fares.items(), key=lambda kv: (kv[1], kv[0]))
    yy_airline, yy_fare = ordered[0]
    if len(ordered) < 2:
        return MarketRefs(yy_fare, yy_airline, None, None)
    xx_airline, xx_fare = ordered[1]
    return MarketRefs(yy_fare, yy_airline, xx_fare, xx_airline)


def fare_differences(
    own_fare: float, yy_fare: float, xx_fare: float | None
) -> tuple[bool, float, float | None]:
    """(is_cheapest, own - yy, own - xx); xx diff absent when xx is."""
    is_cheapest = own_fare == yy_fare
    yy_diff = own_fare - yy_fare
    xx_diff = None if xx_fare is None else own_fare - xx_fare
    return is_cheapest, yy_diff, xx_diff


def rolling_price_features(
    diff_by_dbd: Mapping[int, float], dbd: int, window: int
) -> tuple[float, float, float, float] | None:
    """(mean, sd, min, max) of diffs over the window days strictly before dbd.

    Requires every day dbd-window .. dbd-1 to be present; otherwise the
    feature is missing (None). sd uses the n-1 denominator.
    """
    days = range(dbd - window, dbd)
    vals = []
    for d in days:
        v = diff_by_dbd.get(d)
        if v is None:
            return None
        vals.append(v)
    mean = sum(vals) / window
    squares = sum((v - mean) ** 2 for v in vals)
    sd = math.sqrt(squares / (window - 1)) if window > 1 else 0.0
    return mean, sd, min(vals), max(vals)


def bucket_t(dbd: int) -> int:
    """DBD grouped in multiples of 10 toward minus infinity."""
    return math.floor(dbd / 10) * 10


@dataclass(frozen=True)
class AirlineAggregates:
    rating_recommended: float | None = None
    rating_review: float | None = None
    rating_fb: float | None = None
    rating_ground: float | None = None
    rating_ife: float | None = None
    rating_crew: float | None = None
    rating_seat: float | None = None
    rating_value: float | None = None
    rating_wifi: float | None = None
    rating_obs: float | None = None
    twitter_sentiment: float | None = None
    safety_score: float | None = None
    fleet_size: float | None = None
    fleet_cost: float | None = None
    fleet_age: float | None = None


_CODE_DIGITS = re.compile(r"(\d+)$")


def _airline_id_from_code(code: str) -> int | None:
    """Safety files key airlines by code; trailing digits carry the obfuscated id."""
    m = _CODE_DIGITS.search(code)
    return int(m.group(1)) if m else None


def build_airline_aggregates(
    reviews: Sequence[ReviewRecord],
    tweets: Sequence[TweetRecord],
    safety: Sequence[SafetyRecord],
    fleet: Sequence[FleetRecord],
    lexicon: Mapping[str, int],
) -> dict[int, AirlineAggregates]:
    """Airline-level aggregates broadcast onto itineraries by airline_id.

    Review ordinal ratings aggregate by median, the recommended flag by
    share, free-text sentiment by mean (scaled to 0-10), tweet sentiment by
    median (scaled to 0-10). Tweets are assumed pre-filtered.
    """
    by_airline: dict[int, dict] = defaultdict(dict)

    reviews_by_airline: dict[int, list[ReviewRecord]] = defaultdict(list)
    for r in reviews:
        reviews_by_airline[r.airline_id].append(r)
    review_texts = {aid: [r.review_text for r in rs] for aid, rs in reviews_by_airline.items()}
    review_sent = sent.aggregate_airline_sentiment(review_texts, lexicon, method="mean")
    for aid, rs in reviews_by_airline.items():
        agg = by_airline[aid]
        agg["rating_recommended"] = sum(r.recommended for r in rs) / len(rs)
        for name in ("fb", "ground", "ife", "crew", "seat", "value", "wifi"):
            agg[f"rating_{name}"] = float(statistics.median(getattr(r, name) for r in rs))
        agg["rating_obs"] = float(len(rs))
        if aid in review_sent:
            agg["rating_review"] = review_sent[aid].score_0_10

    tweet_texts: dict[int, list[str]] = defaultdict(list)
    for t in tweets:
        tweet_texts[t.airline_id].append(t.text)
    tweet_sent = sent.aggregate_airline_sentiment(tweet_texts, lexicon, method="median")
    for aid, score in tweet_sent.items():
        by_airline[aid]["twitter_sentiment"] = score.score_0_10

    for s in safety:
        aid = _airline_id_from_code(s.airline_code)
        if aid is not None:
            by_airline[aid]["safety_score"] = s.score

    fleet_by_airline: dict[int, list[FleetRecord]] = defaultdict(list)
    for f in fleet:
        fleet_by_airline[f.airline_id].append(f)
    for aid, frames in fleet_by_airline.items():
        agg = by_airline[aid]
        agg["fleet_size"] = float(len(frames))
        agg["fleet_cost"] = sum(f.aircraft_cost for f in frames)
        agg["fleet_age"] = float(statistics.median(f.aircraft_age for f in frames))

    return {aid: AirlineAggregates(**vals) for aid, vals in by_airline.items()}


def airline_widebody_flags(fleet: Sequence[FleetRecord]) -> dict[int, bool]:
    """Whether the airline's most common airframe type is a wide-body."""
    counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for f in fleet:
        counts[f.airline_id][f.aircraft_type] += 1
    flags = {}
    for aid, types in counts.items():
        dominant = max(sorted(types), key=lambda t: types[t])
        flags[aid] = dominant in WIDEBODY_TYPES
    return flags


def _arrival_mam(dep_time_mam: int, travel_time: float) -> float:
    return (dep_time_mam + travel_time * 60.0) % 1440.0


def _crosses_midnight(dep_time_mam: int, travel_time: float) -> bool:
    return dep_time_mam + travel_time * 60.0 >= 1440.0


class _OdContext:
    """Per-OD lookup tables shared by all rows of that OD."""

    def __init__(self, od: str, fares: Sequence[FareObservation]):
        self.od = od
        # itineraries grouped by (dep_day, dbd, airline) and (dep_day, dbd)
        self.group: dict[tuple[int, int, int], list[FareObservation]] = defaultdict(list)
        self.market: dict[tuple[int, int], list[FareObservation]] = defaultdict(list)
        freq_times: dict[int, set[int]] = defaultdict(set)
        min_travel = math.inf
        for f in fares:
            self.group[(f.dep_day_id, f.dbd, f.airline_id)].append(f)
            self.market[(f.dep_day_id, f.dbd)].append(f)
            freq_times[f.airline_id].add(f.dep_time_mam)
            min_travel = min(min_travel, f.travel_time)
        self.base_flying_time = min_travel
        self.num_frequencies = {aid: len(ts) for aid, ts in freq_times.items()}
        self.home_carrier = (
            max(sorted(self.num_frequencies), key=lambda a: self.num_frequencies[a])
            if self.num_frequencies else None
        )

        # per-airline minimum fare by (dep_day, dbd), then market references
        self.airline_fare: dict[tuple[int, int, int], float] = {
            key: min(f.price for f in obs) for key, obs in self.group.items()
        }
        self.refs: dict[tuple[int, int], MarketRefs] = {}
        for (day, dbd), obs in self.market.items():
            per_airline = {}
            for f in obs:
                fare = self.airline_fare[(day, dbd, f.airline_id)]
                per_airline[f.airline_id] = fare
            self.refs[(day, dbd)] = market_reference_fares(per_airline)
        self.mintt: dict[tuple[int, int], float] = {
            key: min(f.travel_time for f in obs) for key, obs in self.market.items()
        }

        # diff series per (airline, dep_day), keyed by dbd
        self.diffs: dict[str, dict[tuple[int, int], dict[int, float]]] = {
            ref: defaultdict(dict) for ref in ROLL_REFS
        }
        for (day, dbd, aid), fare in self.airline_fare.items():
            refs = self.refs[(day, dbd)]
            _, yy_diff, xx_diff = fare_differences(fare, refs.yy_fare, refs.xx_fare)
            self.diffs["yy"][(aid, day)][dbd] = yy_diff
            if xx_diff is not None:
                self.diffs["xx"][(aid, day)][dbd] = xx_diff
            prev = self.airline_fare.get((day, dbd - 1, aid))
            if prev is not None:
                self.diffs["al"][(aid, day)][dbd] = fare - prev


def assemble_feature_vectors(
    bookings: Sequence[ItineraryRecord],
    fares: Sequence[FareObservation],
    aggregates: Mapping[int, AirlineAggregates],
    widebody: Mapping[int, bool] | None = None,
) -> FeatureTable:
    """Build the full feature matrix, one row per displayed itinerary.

    Each booking keeps its own recorded price; the competitive-pricing
    features come from the fares dataset alone. Rows are emitted in input
    order and never dropped; fields that cannot be computed are explicitly
    missing.
    """
    widebody = widebody or {}
    fares_by_od: dict[str, list[FareObservation]] = defaultdict(list)
    for f in fares:
        fares_by_od[f.od].append(f)
    contexts = {od: _OdContext(od, obs) for od, obs in fares_by_od.items()}

    n = len(bookings)
    values = np.full((n, len(ALL_COLUMNS)), np.nan, dtype=np.float64)
    col = {name: i for i, name in enumerate(ALL_COLUMNS)}
    ods: list[str] = []

    for i, b in enumerate(bookings):
        ods.append(b.od)
        row = values[i]
        row[col["airline_id"]] = b.airline_id
        row[col["dep_day_id"]] = b.dep_day_id
        row[col["dbd"]] = b.dbd
        row[col["dep_time_mam"]] = b.dep_time_mam
        row[col["price"]] = b.price
        row[col["travel_time"]] = b.travel_time
        row[col["bucket_t"]] = bucket_t(b.dbd)
        row[col["is_bought"]] = 1.0 if b.is_bought else 0.0
        row[col["dept_delta"]] = abs(b.dep_time_mam - IDEAL_DEP)

        ctx = contexts.get(b.od)
        if ctx is None:
            continue
        day_dbd = (b.dep_day_id, b.dbd)
        own_fare = ctx.airline_fare.get((b.dep_day_id, b.dbd, b.airline_id))
        refs = ctx.refs.get(day_dbd)
        if own_fare is not None and refs is not None:
            is_cheapest, yy_diff, xx_diff = fare_differences(
                own_fare, refs.yy_fare, refs.xx_fare
            )
            row[col["is_cheapest"]] = float(is_cheapest)
            row[col["mkt_fare"]] = refs.yy_fare
            row[col["mkt_fare_diff"]] = yy_diff
            row[col["mkt_fare_diff_perc"]] = own_fare / refs.yy_fare - 1.0
            if xx_diff is not None:
                row[col["xx_fare_diff"]] = xx_diff
            for ref in ROLL_REFS:
                series = ctx.diffs[ref].get((b.airline_id, b.dep_day_id), {})
                for w in ROLL_WINDOWS:
                    stats = rolling_price_features(series, b.dbd, w)
                    if stats is None:
                        continue
                    mean, sd, mn, mx = stats
                    row[col[f"mean{w}d_{ref}"]] = mean
                    row[col[f"sd{w}d_{ref}"]] = sd
                    row[col[f"min{w}d_{ref}"]] = mn
                    row[col[f"max{w}d_{ref}"]] = mx

        group = ctx.group.get((b.dep_day_id, b.dbd, b.airline_id), [])
        if group:
            deps = [f.dep_time_mam for f in group]
            arrs = [_arrival_mam(f.dep_time_mam, f.travel_time) for f in group]
            row[col["has_night_flight"]] = float(
                any(_crosses_midnight(f.dep_time_mam, f.travel_time) for f in group)
            )
            row[col["has_day_flight"]] = float(
                any(not _crosses_midnight(f.dep_time_mam, f.travel_time) for f in group)
            )
            row[col["has_evening_departure"]] = float(any(d > EVENING_START for d in deps))
            row[col["first_flight_dep"]] = min(deps)
            row[col["last_flight_dep"]] = max(deps)
            row[col["first_flight_arr"]] = min(arrs)
            row[col["last_flight_arr"]] = max(arrs)
            conn = [max(0.0, f.travel_time - ctx.base_flying_time) for f in group]
            row[col["min_flying_time"]] = ctx.base_flying_time
            row[col["min_conn_time"]] = min(conn)
        mintt = ctx.mintt.get(day_dbd)
        if mintt is not None:
            row[col["min_travel_time"]] = mintt
            row[col["tt_delta"]] = max(0.0, b.travel_time - mintt)
        row[col["direct_flight"]] = float(
            b.travel_time - ctx.base_flying_time < DIRECT_SLACK_HOURS
        )
        row[col["has_night_departure"]] = float(
            b.dep_time_mam >= NIGHT_DEP_START or b.dep_time_mam < NIGHT_DEP_END
        )
        row[col["has_morning_arrival"]] = float(
            _arrival_mam(b.dep_time_mam, b.travel_time) < MORNING_END
        )
        row[col["num_frequencies"]] = float(ctx.num_frequencies.get(b.airline_id, 0))
        if ctx.home_carrier is not None:
            row[col["home_carrier"]] = float(b.airline_id == ctx.home_carrier)
        if b.airline_id in widebody:
            row[col["wide_body"]] = float(widebody[b.airline_id])

        agg = aggregates.get(b.airline_id)
        if agg is not None:
            for name in AGGREGATE_COLUMNS:
                val = getattr(agg, name)
                if val is not None:
                    row[col[name]] = val

    return FeatureTable(ods=ods, columns=list(ALL_COLUMNS), values=values)
