"""Scalar reference versions of code the package runs in vectorized form,
and test-only tools built on the package's own rules.

The feature assembly derives competitor pricing from fare cubes
(`features._Market`) and window statistics gathered at each itinerary's key
(`features._window_stats`), and the explanation walk routes rows inline; the
plain per-key functions here are what the tests hold them to. `refit_leaf_weights` re-derives leaf weights with the trainer's own leaf
rule, so the regularization checks test the rule that training uses.
`assert_markets_equal` compares two generated markets, whose datasets other
than bookings are columns that `==` cannot compare whole, and
`columns_of_rows` builds a dataset's columns from row tuples. The row reader
is the reference for CSV input: `read_both_ways` reads a file as the package
does and again with the C parse refusing it, and `column_bits` and
`table_bits` give what it compares. `reference_market` is the market
generator with every draw made through the numpy call it first used, which
`synth.generate_market` must match value for value.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from statistics import median
from typing import Mapping

import numpy as np
import pytest

from farecast.features import FeatureTable, _Market, _window_stats
from farecast.gbt import TreeEnsemble, TreeNode, _leaf_weight
from farecast.ingest import SCHEMAS, ItineraryRecord, ParseError, to_columns
from farecast.synth import (
    _FILLER, _NARROW_TYPES, _NEGATIVE_WORDS, _POSITIVE_WORDS, _WIDE_TYPES, DISPLAY_DBD_MAX,
    DISPLAY_DBD_MIN, DISPLAY_PROB, DRIVER_COEF, FARE_DBD_MAX, FARE_DBD_MIN, INTERACTION_COEF,
    N_DEPARTURE_DAYS, NOISE_SCALE, PREVALENCE_TARGET, MarketData, _add_row,
    _calibrate_intercept, _clip_rating,
)

# Four airlines' fares at t = -103..-100; airline 1 is the one under study.
WORKED_FARES = {
    -103: {1: 450, 2: 600, 3: 500, 4: 1000},
    -102: {1: 475, 2: 600, 3: 500, 4: 1100},
    -101: {1: 450, 2: 625, 3: 360, 4: 1100},
    -100: {1: 450, 2: 750, 3: 500, 4: 300},
}


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
    squares = sum((v - mean) * (v - mean) for v in vals)
    sd = math.sqrt(squares / (window - 1)) if window > 1 else 0.0
    return mean, sd, min(vals), max(vals)


def bucket_t(dbd: int) -> int:
    """DBD grouped in multiples of 10 toward minus infinity."""
    return math.floor(dbd / 10) * 10


def diff_series(fares_by_dbd, airline, ref):
    """{dbd: own fare - yy (ref "yy") or - xx (ref "xx")} for one airline,
    from {dbd: {airline: fare}}; a dbd with no xx maps to None under "xx"."""
    out = {}
    for dbd, fares in fares_by_dbd.items():
        refs = market_reference_fares(fares)
        _, yy, xx = fare_differences(fares[airline], refs.yy_fare, refs.xx_fare)
        out[dbd] = yy if ref == "yy" else xx
    return out


def route(node, value: float, missing: bool):
    """The child of a split TreeNode that a row goes to: by missing_left when
    the feature is missing, else left below the threshold and right from it
    upward."""
    if missing:
        return node.left if node.missing_left else node.right
    return node.left if value < node.threshold else node.right


def refit_leaf_weights(model: TreeEnsemble, lam: float) -> TreeEnsemble:
    """The model with every leaf weight recomputed by the trainer's leaf rule
    at ridge penalty lam, on the same tree structures."""
    params = replace(model.params, lam=lam)

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return replace(node, weight=_leaf_weight(node.grad_sum, node.cover, params))
        return replace(node, left=rebuild(node.left), right=rebuild(node.right))

    return TreeEnsemble(
        trees=[rebuild(t) for t in model.trees],
        base_score=model.base_score,
        params=params,
        feature_names=list(model.feature_names),
    )


def assert_markets_equal(got, want) -> None:
    """Two synth.MarketData hold the same data: each column-mapping field
    (every dataset but bookings) column by column, an array with its dtype
    and np.array_equal, a list of str with ==; every other field with ==."""
    for f in fields(want):
        held = getattr(want, f.name)
        if isinstance(held, dict) and f.name != "true_day_demand":
            assert_columns_equal(getattr(got, f.name), held, f.name)
        else:
            assert getattr(got, f.name) == held, f.name


def assert_columns_equal(got: Mapping, want: Mapping, where: str = "") -> None:
    """Two column mappings hold the same fields in the same order, each
    array with its dtype and values, each list with ==."""
    assert list(got) == list(want), where
    for name, col in want.items():
        if isinstance(col, np.ndarray):
            assert isinstance(got[name], np.ndarray), f"{where}.{name}"
            assert got[name].dtype == col.dtype, f"{where}.{name}"
            assert np.array_equal(got[name], col), f"{where}.{name}"
        else:
            assert got[name] == col, f"{where}.{name}"


# A fare row for the scalar oracles, which read fares a row at a time; the
# package itself holds fares only as columns (`columns_of_rows`).
FareRow = namedtuple("FareRow", SCHEMAS["fares"][0])


def columns_of_rows(schema: str, rows) -> dict:
    """The schema's canonical columns of rows given as tuples in column order."""
    names = list(SCHEMAS[schema][0])
    rows = list(rows)
    return to_columns(schema, {name: [row[i] for row in rows] for i, name in enumerate(names)})


def column_bits(columns: Mapping) -> dict:
    """Each column's dtype and values, a float column as its int64 bits, so
    that -0.0 and 0.0 and NaNs of other bits differ."""
    return {name: col if isinstance(col, list) else
            (col.dtype.str, (col.view(np.int64) if col.dtype == np.float64 else col).tolist())
            for name, col in columns.items()}


def table_bits(path) -> tuple:
    """A features.csv's ods and values as `column_bits` gives them."""
    table = FeatureTable.from_csv(path)
    return table.ods, column_bits({"values": table.values})


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


def read_both_ways(module, read, path):
    """(outcome of `read(path)`, whether the C parse read the file, outcome
    with the C parse refusing every file, so that the row reader reads it).
    `module` is the one whose `parse_numeric_lines` and `_read_rows` `read`
    calls; an outcome is `read`'s value or the text of its ParseError."""
    calls = []
    row_reader = module._read_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_read_rows", lambda *args: calls.append(1) or row_reader(*args))
        got = _outcome(lambda: read(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "parse_numeric_lines", lambda *args: None)
        want = _outcome(lambda: read(path))
    return got, not calls, want


def reference_review_text(rng: np.random.Generator, quality: float) -> str:
    """synth._review_text before its three word-index calls became one."""
    n_pos = rng.binomial(4, quality)
    n_neg = rng.binomial(4, 1.0 - quality)
    # each list indexed by rng.integers, the draws rng.choice(list, size=n) makes
    words = [
        vocab[i]
        for vocab, n in ((_POSITIVE_WORDS, n_pos), (_NEGATIVE_WORDS, n_neg), (_FILLER, 3))
        for i in rng.integers(0, len(vocab), size=n).tolist()
    ]
    rng.shuffle(words)
    return "The " + " ".join(words)


def reference_market(spec, seed: int):
    """synth.generate_market as it was before its draws went through cheaper
    numpy calls: every draw through rng.uniform, rng.normal and one
    rng.integers call per word list. It must give the same market."""
    rng = np.random.default_rng(seed)
    data = MarketData()
    n_air = spec.n_airlines
    airline_ids = list(range(1, n_air + 1))
    long_haul = any(tag in spec.od for tag in ("SYD", "JFK", "DXB", "JNB"))

    # per-airline static attributes
    base_fare = {a: float(rng.uniform(180, 550) * (1.6 if long_haul else 1.0)) for a in airline_ids}
    # departure-time anchors: one airline near 6AM so dept_delta spans a range;
    # the actual time is re-drawn per departure day (schedule changes) so that
    # timing features are not a proxy for airline identity
    anchors = {}
    travel_times = {}
    n_itins = {}
    for i, a in enumerate(airline_ids):
        n_itins[a] = 1 + int(rng.random() < 0.4)
        anchor = 360 if i == 0 else int(rng.integers(300, 1350))
        times = [anchor]
        for _ in range(n_itins[a] - 1):
            times.append(int((anchor + rng.integers(180, 720)) % 1440))
        anchors[a] = times
        base_tt = float(rng.uniform(10.0, 16.0)) if long_haul else float(rng.uniform(0.9, 4.0))
        travel_times[a] = [round(base_tt + k * float(rng.uniform(0.5, 2.5)), 2) for k in range(n_itins[a])]

    # quality latent drives reviews/tweets; IFE spread is widened so the
    # comfort driver separates airlines cleanly
    quality = {a: float(rng.uniform(0.25, 0.9)) for a in airline_ids}
    ife_center = {
        a: 1.0 + 4.0 * (i / max(1, n_air - 1))
        for i, a in enumerate(rng.permutation(airline_ids).tolist())
    }

    # reviews, tweets, safety and fleet, each a row at a time into lists of
    # its fields, then made columns
    reviews, tweets, safety, fleet = ({name: [] for name in SCHEMAS[kind][0]}
                                      for kind in ("reviews", "tweets", "safety", "fleet"))
    for a in airline_ids:
        for _ in range(int(rng.integers(30, 70))):
            q = quality[a]
            _add_row(
                reviews,
                airline_id=a,
                recommended=bool(rng.random() < q),
                review_text=reference_review_text(rng, q),
                fb=_clip_rating(rng.normal(2.0 + 2.5 * q, 0.4)),
                ground=_clip_rating(rng.normal(2.0 + 2.5 * q, 0.4)),
                ife=_clip_rating(rng.normal(ife_center[a], 0.3)),
                crew=_clip_rating(rng.normal(2.0 + 2.5 * q, 0.4)),
                seat=_clip_rating(rng.normal(2.0 + 2.5 * q, 0.4)),
                value=_clip_rating(rng.normal(2.0 + 2.5 * q, 0.4)),
                wifi=_clip_rating(rng.normal(1.5 + 2.0 * q, 0.5)),
            )

    # tweets, including rows the English/original filter must drop
    for a in airline_ids:
        for _ in range(40):
            kind = rng.random()
            _add_row(
                tweets,
                airline_id=a,
                text=reference_review_text(rng, quality[a]),
                is_retweet=bool(kind < 0.15),
                is_reply=bool(0.15 <= kind < 0.25),
                language_tag="en" if rng.random() < 0.85 else "nl",
            )

    # safety and fleet
    for a in airline_ids:
        _add_row(safety, airline_code=f"A{a}", score=float(round(rng.uniform(0.005, 0.06), 4)))
        types = _WIDE_TYPES if long_haul else _NARROW_TYPES
        fleet_n = int(rng.integers(5, 25))
        for k in range(fleet_n):
            _add_row(
                fleet,
                airline_id=a,
                aircraft_type=types[rng.integers(len(types))],  # as rng.choice(types)
                aircraft_cost=float(round(rng.uniform(80, 350), 1)),
                registration=f"PH-{a:02d}{k:03d}",
                aircraft_age=float(round(rng.uniform(0.5, 22.0), 1)),
            )
    data.reviews, data.tweets, data.safety, data.fleet = (
        to_columns(kind, lists) for kind, lists in
        (("reviews", reviews), ("tweets", tweets), ("safety", safety), ("fleet", fleet)))

    # mean-reverting fare walks and the fare-observation dataset, as columns
    # in (dep_day, dbd, airline, itinerary) order; each airline's
    # itineraries are consecutive in `itins`, the first at its itin_start
    itins = [(a, k) for a in airline_ids for k in range(n_itins[a])]
    itin_start = {a: itins.index((a, 0)) for a in airline_ids}
    dep_days = [1000 + 7 * d for d in range(N_DEPARTURE_DAYS)]
    fare_dbds = range(FARE_DBD_MIN, FARE_DBD_MAX + 1)
    dep_times = [  # [day][itinerary]
        [int((t + rng.integers(-150, 151)) % 1440) for a in airline_ids for t in anchors[a]]
        for _ in dep_days
    ]
    prices: list[float] = []
    for _ in dep_days:
        fare = {a: base_fare[a] * float(rng.uniform(0.9, 1.1)) for a in airline_ids}
        for _ in fare_dbds:
            for a in airline_ids:
                pull = 0.08 * (base_fare[a] - fare[a])
                fare[a] = max(30.0, fare[a] + pull + float(rng.normal(0, 0.03 * base_fare[a])))
                own = round(fare[a], 2)
                for k in range(n_itins[a]):
                    offset = 0.0 if k == 0 else round(18.0 * k + float(rng.uniform(0, 10)), 2)
                    prices.append(round(own + offset, 2))
    n_keys = len(dep_days) * len(fare_dbds)  # (dep_day, dbd) keys, each with every itinerary
    data.fares = {
        "od": [spec.od] * len(prices),
        "airline_id": np.tile([a for a, _ in itins], n_keys),
        "dep_day_id": np.repeat(dep_days, len(fare_dbds) * len(itins)),
        "dbd": np.tile(np.repeat(fare_dbds, len(itins)), len(dep_days)),
        "dep_time_mam": np.repeat(dep_times, len(fare_dbds), axis=0).reshape(-1),
        "travel_time": np.tile([travel_times[a][k] for a, k in itins], n_keys),
        "price": np.array(prices),
    }

    # own-minus-cheapest fare and its rolling 3-day mean at every displayable
    # key, from the feature assembly's cubes; indexed [airline][day][dbd]
    # along airline_ids, dep_days and the display range
    market = _Market(*(data.fares[name] for name in ("airline_id", "dep_day_id", "dbd", "price")))
    display_dbds = range(DISPLAY_DBD_MIN, DISPLAY_DBD_MAX + 1)
    cells = np.ravel_multi_index(
        np.ix_(range(n_air), range(N_DEPARTURE_DAYS), np.subtract(display_dbds, market.dbd0)),
        market.shape,
    )
    yy_diffs = market.diffs["yy"].reshape(-1)[cells].tolist()
    mean3d_yys = np.nan_to_num(_window_stats(market.diffs["yy"], cells, 3)[0]).tolist()

    ife_median = {
        a: float(median(data.reviews["ife"][data.reviews["airline_id"] == a].tolist()))
        for a in airline_ids
    }

    # candidate displayed itineraries and their archetype latents
    fare_scale = float(np.mean(list(base_fare.values())))
    candidates: list[tuple[int, int, int]] = []  # (day index, dbd, itinerary index)
    latents: list[float] = []
    for di in range(len(dep_days)):
        for j, dbd in enumerate(display_dbds):
            z_dbd = (dbd - (DISPLAY_DBD_MIN + DISPLAY_DBD_MAX) / 2.0) / 12.0
            for ai, a in enumerate(airline_ids):
                for k in range(n_itins[a]):
                    if rng.random() > DISPLAY_PROB:
                        continue
                    it = itin_start[a] + k
                    yy_diff, mean3d_yy = yy_diffs[ai][di][j], mean3d_yys[ai][di][j]
                    if spec.archetype == "price":
                        drv = -mean3d_yy / (0.08 * fare_scale)
                        aux = -yy_diff / (0.15 * fare_scale)
                    elif spec.archetype == "schedule":
                        drv = -(abs(dep_times[di][it] - 360) / 180.0 - 1.5)
                        aux = -yy_diff / (0.4 * fare_scale)
                    else:  # comfort
                        drv = ife_median[a] - 3.0
                        aux = -yy_diff / (0.4 * fare_scale)
                    latent = (
                        DRIVER_COEF * drv
                        + 0.3 * aux
                        + INTERACTION_COEF * drv * z_dbd
                        + float(rng.normal(0, NOISE_SCALE))
                    )
                    candidates.append((di, dbd, it))
                    latents.append(latent)

    latent_arr = np.array(latents)
    intercept = _calibrate_intercept(latent_arr, PREVALENCE_TARGET)
    probs = 1.0 / (1.0 + np.exp(-(intercept + latent_arr)))
    draws = rng.random(len(candidates))
    for (di, dbd, it), p, u in zip(candidates, probs, draws):
        day, (a, k) = dep_days[di], itins[it]
        # displayed price mirrors the fares dataset row for the same itinerary
        price = prices[(di * len(fare_dbds) + dbd - FARE_DBD_MIN) * len(itins) + it]
        data.bookings.append(
            ItineraryRecord(
                od=spec.od,
                airline_id=a,
                dep_day_id=day,
                dbd=dbd,
                dep_time_mam=dep_times[di][it],
                travel_time=travel_times[a][k],
                price=price,
                is_bought=bool(u < p),
            )
        )
        data.true_day_demand[day] = data.true_day_demand.get(day, 0.0) + float(p)

    return data
