"""Synthetic data generator with planted behavioral archetypes.

Produces the six input datasets for a market so the full pipeline can be
exercised end to end. Fare curves are mean-reverting random walks per
airline per departure day; purchase labels are drawn from a logistic model
whose dominant driver matches the requested archetype (price -> rolling
cheapest-fare movement, schedule -> distance of departure time from 6AM,
comfort -> the airline's IFE rating), plus a driver-by-time interaction term
so a depth-2 tree model has headroom over a linear baseline. The intercept
is calibrated by bisection to the target purchase prevalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Iterator, Literal, Mapping

import numpy as np

from .ingest import SCHEMAS, ItineraryRecord, empty_columns, to_columns
from .features import _Market, _window_stats
from .simulate import DemandMix, FareLadder, OdMarket, SimScenario

__all__ = [
    "ArchetypeSpec", "MarketData", "generate_market", "fixture_markets", "fixture_scenario",
    "standard_fixture", "FIXTURE_SEED",
]

Archetype = Literal["price", "schedule", "comfort"]

FIXTURE_SEED = 42

# Shared by every market: weekly departures, the purchase latent's driver,
# driver-by-dbd and noise scales, and the calibrated mean purchase probability.
N_DEPARTURE_DAYS = 14
DRIVER_COEF = 2.2
INTERACTION_COEF = 1.4
NOISE_SCALE = 0.3
PREVALENCE_TARGET = 0.203

# Fare observations exist over the full scrape horizon; itineraries are only
# displayed (labeled) once every rolling window has a complete history.
FARE_DBD_MIN, FARE_DBD_MAX = -75, -1
DISPLAY_DBD_MIN, DISPLAY_DBD_MAX = -40, -1
DISPLAY_PROB = 0.5

_POSITIVE_WORDS = [
    "amazing", "excellent", "wonderful", "friendly", "comfortable", "great",
    "superb", "outstanding", "delicious", "smooth", "helpful", "lovely",
]
_NEGATIVE_WORDS = [
    "awful", "terrible", "rude", "cramped", "delayed", "dirty", "worst",
    "uncomfortable", "disaster", "horrible", "slow", "useless",
]
_FILLER = ["flight", "crew", "seat", "service", "airline", "trip", "meal", "boarding"]

_WIDE_TYPES = ["77W", "789", "359", "388"]
_NARROW_TYPES = ["320", "738", "321", "E90"]


@dataclass(frozen=True)
class ArchetypeSpec:
    """What sets one market apart; the rest are the module constants above."""

    od: str
    archetype: Archetype
    n_airlines: int = 4

    def __post_init__(self):
        if self.n_airlines < 2:
            raise ValueError("market references need at least 2 airlines")
        if self.archetype not in ("price", "schedule", "comfort"):
            raise ValueError(f"unknown archetype: {self.archetype!r}")


def _columns_field(kind: str):
    return field(default_factory=lambda: empty_columns(kind))


@dataclass
class MarketData:
    """One OD's six datasets. Every kind but `bookings` is held as the
    column mapping that `parse_dataset(path, kind).columns` returns (str
    fields as lists, the others as int64, float64 or bool arrays); bookings
    are a list of ItineraryRecord, the one row type, since the benchmark
    harness picks and filters them a record at a time. Compare two markets
    field by field (tests/oracles.assert_markets_equal): `==` on whole
    markets raises once it reaches an array, which has no single truth
    value."""

    bookings: list[ItineraryRecord] = field(default_factory=list)
    fares: dict[str, np.ndarray | list[str]] = _columns_field("fares")
    reviews: dict[str, np.ndarray | list[str]] = _columns_field("reviews")
    tweets: dict[str, np.ndarray | list[str]] = _columns_field("tweets")
    safety: dict[str, np.ndarray | list[str]] = _columns_field("safety")
    fleet: dict[str, np.ndarray | list[str]] = _columns_field("fleet")
    true_day_demand: dict[int, float] = field(default_factory=dict)


def _add_row(columns: dict[str, list], **row) -> None:
    """Append one row, given field by field, to lists of its fields."""
    for name, value in row.items():
        columns[name].append(value)


def _clip_rating(x: float) -> int:
    return int(min(5, max(1, round(x))))


def _review_text(rng: np.random.Generator, quality: float) -> str:
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


def _calibrate_intercept(latents: np.ndarray, target: float) -> float:
    """Bisection on the intercept so mean sigmoid(intercept + latent) = target."""
    lo, hi = -20.0, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        p = float(np.mean(1.0 / (1.0 + np.exp(-(mid + latents)))))
        if abs(p - target) < 1e-9:
            return mid
        if p < target:
            lo = mid
        else:
            hi = mid
    if abs(
        float(np.mean(1.0 / (1.0 + np.exp(-(0.5 * (lo + hi) + latents))))) - target
    ) > 0.02:
        raise RuntimeError("prevalence calibration failed")
    return 0.5 * (lo + hi)


def generate_market(spec: ArchetypeSpec, seed: int) -> MarketData:
    """Generate all six datasets for a single OD market."""
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
                review_text=_review_text(rng, q),
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
                text=_review_text(rng, quality[a]),
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


# Fixture wiring: ten distinct ODs, competitor-count multiset {2,2,4,4,5,5,5,6,7,9},
# archetypes matching the published segmentation; the duplicated tenth market
# is given a distinct name and folded into the price segment.
FIXTURE_ODS: list[tuple[str, Archetype, int]] = [
    ("AMS-DXB", "price", 7),
    ("AMS-LHR", "schedule", 4),
    ("AMS-SYD", "comfort", 5),
    ("CDG-SYD", "comfort", 4),
    ("FRA-SYD", "comfort", 9),
    ("FRA-KUL", "price", 6),
    ("FRA-JNB", "price", 5),
    ("KUL-SIN", "price", 2),
    ("LHR-JFK", "schedule", 2),
    ("LHR-SYD", "comfort", 5),
]

COVERED_ODS = ("AMS-SYD", "CDG-SYD", "FRA-SYD", "LHR-SYD")
COVERED_DEMAND_SHARE = 0.42

# Published single-flight fare ladders and fare-brand demand mixes for the
# four covered ODs.
COVERED_FARE_LADDERS = {
    "AMS-SYD": (2324, 1913, 1672, 1152, 1081, 966, 871, 706, 660, 498, 494, 447),
    "CDG-SYD": (2489, 2078, 1995, 1707, 1462, 1363, 1187, 1009, 774, 553, 534, 474),
    "FRA-SYD": (1904, 1621, 1323, 1094, 1091, 962, 922, 737, 682, 622, 495, 311),
    "LHR-SYD": (2509, 2043, 1452, 1420, 1035, 762, 700, 523, 449, 374, 311, 206),
}
COVERED_BRAND_MIX = {
    "AMS-SYD": (0.05, 0.30, 0.65),
    "CDG-SYD": (0.10, 0.18, 0.70),
    "FRA-SYD": (0.02, 0.46, 0.40),
    "LHR-SYD": (0.12, 0.20, 0.59),
}

# Bias applied to the covered ODs' demand-history series: the time-series
# baseline trains on systematically deflated history while the model roll-up
# sees the itineraries themselves.
HISTORY_BIAS = 0.65
N_HISTORY_DAYS = 12


def fixture_markets(seed: int = FIXTURE_SEED) -> Iterator[tuple[str, MarketData]]:
    """The ten fixture markets, one at a time in FIXTURE_ODS order, the i-th
    generated from seed + 1000 * (i + 1); a market is generated only when
    asked for, so a caller that keeps none holds one at a time."""
    for i, (od, archetype, n_air) in enumerate(FIXTURE_ODS):
        spec = ArchetypeSpec(od=od, archetype=archetype, n_airlines=n_air)
        yield od, generate_market(spec, seed=seed + 1000 * (i + 1))


def fixture_scenario(seed: int, day_demand: Mapping[str, Mapping[int, float]]) -> SimScenario:
    """The single-flight scenario from each fixture market's
    `true_day_demand`, keyed by OD. Its own draws come from
    default_rng(seed), apart from the markets' generators."""
    rng = np.random.default_rng(seed)
    forecast_day = max(day_demand[COVERED_ODS[0]])
    covered_demand = {od: day_demand[od][forecast_day] for od in COVERED_ODS}
    covered_total = sum(covered_demand.values())
    uncovered = [od for od, _, _ in FIXTURE_ODS if od not in COVERED_ODS]
    uncovered_total = covered_total * (1 - COVERED_DEMAND_SHARE) / COVERED_DEMAND_SHARE
    uncovered_weights = rng.uniform(0.7, 1.3, size=len(uncovered))
    uncovered_weights /= uncovered_weights.sum()

    capacity = int(round((covered_total + uncovered_total) / 0.98))
    od_markets: list[OdMarket] = []
    for od, _, _ in FIXTURE_ODS:
        covered = od in COVERED_ODS
        if covered:
            ladder = FareLadder(tuple(float(f) for f in COVERED_FARE_LADDERS[od]))
            mix = DemandMix(COVERED_BRAND_MIX[od])
            mean_demand = covered_demand[od]
            days = sorted(day_demand[od])[-N_HISTORY_DAYS:]
            history = [
                day_demand[od][d] * HISTORY_BIAS * float(rng.uniform(0.96, 1.04))
                for d in days
            ]
        else:
            top = float(rng.uniform(1800, 2600))
            ladder = FareLadder(tuple(round(top * (0.18 + 0.82 * (11 - c) / 11), 0) for c in range(12)))
            mix = DemandMix((float(rng.uniform(0.03, 0.12)), float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.5, 0.7))))
            mean_demand = uncovered_total * float(uncovered_weights[uncovered.index(od)])
            history = [mean_demand * float(rng.uniform(0.96, 1.04)) for _ in range(N_HISTORY_DAYS)]
        od_markets.append(
            OdMarket(
                name=od,
                ladder=ladder,
                mix=mix,
                mean_demand=mean_demand,
                history=history,
                covered=covered,
            )
        )

    return SimScenario(capacity=capacity, ods=od_markets, seed=seed, forecast_day=forecast_day)


def standard_fixture(seed: int = FIXTURE_SEED) -> tuple[dict[str, MarketData], SimScenario]:
    """Deterministic ten-OD corpus plus the single-flight scenario."""
    markets = dict(fixture_markets(seed))
    day_demand = {od: data.true_day_demand for od, data in markets.items()}
    return markets, fixture_scenario(seed, day_demand)
