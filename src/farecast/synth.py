"""Synthetic data generator with planted behavioral archetypes.

Produces the six input datasets for a market so the full pipeline can be
exercised end to end. Fare curves are mean-reverting random walks per
airline per departure day; purchase labels are drawn from a logistic model
whose dominant driver matches the requested archetype (price -> rolling
cheapest-fare movement, schedule -> distance of departure time from 6AM,
comfort -> the airline's IFE rating), plus a driver-by-time interaction term
so a depth-2 tree model has headroom over a linear baseline. The intercept
is calibrated by bisection to the target purchase prevalence.

Every draw goes through the cheapest numpy call that gives the value the
generator's first form drew (kept as tests/oracles.reference_market) and
leaves the stream in the same place, so the markets stay byte-identical:
`low + (high - low) * rng.random()` for `rng.uniform(low, high)`, which is
how numpy computes it; `loc + scale * rng.standard_normal()` for
`rng.normal(loc, scale)`, likewise; and one `rng.integers` call with array
bounds for a review's words, since each bounded integer below 2**32 takes
one 32-bit draw whichever call asks for it. Reordering draws, or batching
draws of different kinds into one call, changes every output.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from itertools import repeat
from statistics import median
from typing import Callable, Iterator, Literal, Mapping, TypeVar

import numpy as np

from .ingest import SCHEMAS, ItineraryRecord, booking_records, empty_columns, to_columns
from .features import _Market, _window_stats
from .simulate import DemandMix, FareLadder, OdMarket, SimScenario

__all__ = [
    "ArchetypeSpec", "MarketData", "generate_market", "fixture_market", "fixture_market_columns",
    "map_fixture_markets", "fixture_scenario", "standard_fixture", "FIXTURE_SEED",
]

Archetype = Literal["price", "schedule", "comfort"]
T = TypeVar("T")

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
# A review has binomial(_WORDS_PER_SIDE, .) positive and negative words and
# three filler words, all indices into _VOCAB. _WORD_BOUNDS[n_pos][n_neg]
# holds the (low, high) arrays of the one rng.integers call that draws them
# in that order: each list's slice of _VOCAB, once per word.
_WORDS_PER_SIDE = 4
_VOCAB = _POSITIVE_WORDS + _NEGATIVE_WORDS + _FILLER
_SPANS = np.cumsum([0, len(_POSITIVE_WORDS), len(_NEGATIVE_WORDS), len(_FILLER)])
_WORD_BOUNDS = [
    [(np.repeat(_SPANS[:-1], (n_pos, n_neg, 3)), np.repeat(_SPANS[1:], (n_pos, n_neg, 3)))
     for n_neg in range(_WORDS_PER_SIDE + 1)]
    for n_pos in range(_WORDS_PER_SIDE + 1)
]

_WIDE_TYPES = ["77W", "789", "359", "388"]
_NARROW_TYPES = ["320", "738", "321", "E90"]


@dataclass(frozen=True)
class ArchetypeSpec:
    """What sets one market apart; the rest are the module constants above."""

    od: str
    archetype: Archetype
    n_airlines: int = 4

    def __post_init__(self):
        try:
            # numpy integers pass operator.index, and so would a bool, as 0 or 1
            if isinstance(self.n_airlines, bool):
                raise TypeError
            operator.index(self.n_airlines)
        except TypeError:
            raise ValueError(f"n_airlines {self.n_airlines!r} is not an integer") from None
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
    harness picks and filters them a record at a time. They are drawn as
    columns too, and a market drawn in a worker process crosses to the
    parent with its bookings still columns, each numeric one a single pickle
    buffer; the records are built once, where the market is kept. Compare two
    markets field by field (tests/oracles.assert_markets_equal): `==` on
    whole markets raises once it reaches an array, which has no single
    truth value."""

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
    n_pos = rng.binomial(_WORDS_PER_SIDE, quality)
    n_neg = rng.binomial(_WORDS_PER_SIDE, 1.0 - quality)
    words = [_VOCAB[i] for i in rng.integers(*_WORD_BOUNDS[n_pos][n_neg]).tolist()]
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
    data, bookings = _draw_market(spec, seed)
    data.bookings = booking_records(bookings)
    return data


def _draw_market(spec: ArchetypeSpec, seed: int) -> tuple[MarketData, dict]:
    """generate_market's market without its bookings, and the bookings as
    the column mapping a parsed bookings file holds."""
    rng = np.random.default_rng(seed)
    random, standard_normal, integers = rng.random, rng.standard_normal, rng.integers

    def uniform(low, high):  # rng.uniform(low, high), by numpy's own formula
        return low + (high - low) * random()

    data = MarketData()
    n_air = spec.n_airlines
    airline_ids = list(range(1, n_air + 1))
    long_haul = any(tag in spec.od for tag in ("SYD", "JFK", "DXB", "JNB"))

    # per-airline static attributes
    base_fare = {a: uniform(180, 550) * (1.6 if long_haul else 1.0) for a in airline_ids}
    # departure-time anchors: one airline near 6AM so dept_delta spans a range;
    # the actual time is re-drawn per departure day (schedule changes) so that
    # timing features are not a proxy for airline identity
    anchors = {}
    travel_times = {}
    n_itins = {}
    for i, a in enumerate(airline_ids):
        n_itins[a] = 1 + int(random() < 0.4)
        anchor = 360 if i == 0 else int(integers(300, 1350))
        times = [anchor]
        for _ in range(n_itins[a] - 1):
            times.append(int((anchor + integers(180, 720)) % 1440))
        anchors[a] = times
        base_tt = uniform(10.0, 16.0) if long_haul else uniform(0.9, 4.0)
        travel_times[a] = [round(base_tt + k * uniform(0.5, 2.5), 2) for k in range(n_itins[a])]

    # quality latent drives reviews/tweets; IFE spread is widened so the
    # comfort driver separates airlines cleanly
    quality = {a: uniform(0.25, 0.9) for a in airline_ids}
    ife_center = {
        a: 1.0 + 4.0 * (i / max(1, n_air - 1))
        for i, a in enumerate(rng.permutation(airline_ids).tolist())
    }

    # reviews, tweets, safety and fleet, each a row at a time into lists of
    # its fields, then made columns
    reviews, tweets, safety, fleet = ({name: [] for name in SCHEMAS[kind][0]}
                                      for kind in ("reviews", "tweets", "safety", "fleet"))
    for a in airline_ids:
        q, ife = quality[a], ife_center[a]
        centre, wifi_centre = 2.0 + 2.5 * q, 1.5 + 2.0 * q  # the ratings' means
        for _ in range(int(integers(30, 70))):
            _add_row(
                reviews,
                airline_id=a,
                recommended=random() < q,
                review_text=_review_text(rng, q),
                fb=_clip_rating(centre + 0.4 * standard_normal()),
                ground=_clip_rating(centre + 0.4 * standard_normal()),
                ife=_clip_rating(ife + 0.3 * standard_normal()),
                crew=_clip_rating(centre + 0.4 * standard_normal()),
                seat=_clip_rating(centre + 0.4 * standard_normal()),
                value=_clip_rating(centre + 0.4 * standard_normal()),
                wifi=_clip_rating(wifi_centre + 0.5 * standard_normal()),
            )

    # tweets, including rows the English/original filter must drop
    for a in airline_ids:
        for _ in range(40):
            kind = random()
            _add_row(
                tweets,
                airline_id=a,
                text=_review_text(rng, quality[a]),
                is_retweet=kind < 0.15,
                is_reply=0.15 <= kind < 0.25,
                language_tag="en" if random() < 0.85 else "nl",
            )

    # safety and fleet
    for a in airline_ids:
        _add_row(safety, airline_code=f"A{a}", score=round(uniform(0.005, 0.06), 4))
        types = _WIDE_TYPES if long_haul else _NARROW_TYPES
        fleet_n = int(integers(5, 25))
        for k in range(fleet_n):
            _add_row(
                fleet,
                airline_id=a,
                aircraft_type=types[integers(len(types))],  # as rng.choice(types)
                aircraft_cost=round(uniform(80, 350), 1),
                registration=f"PH-{a:02d}{k:03d}",
                aircraft_age=round(uniform(0.5, 22.0), 1),
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
        [int((t + integers(-150, 151)) % 1440) for a in airline_ids for t in anchors[a]]
        for _ in dep_days
    ]
    # per airline: its base fare, the walk's step scale and its extra itineraries
    walks = [(base_fare[a], 0.03 * base_fare[a], range(1, n_itins[a])) for a in airline_ids]
    prices: list[float] = []
    add_price = prices.append
    for _ in dep_days:
        fare = [base * uniform(0.9, 1.1) for base, _, _ in walks]
        for _ in fare_dbds:
            for i, (base, scale, extra) in enumerate(walks):
                fare[i] = max(30.0, fare[i] + 0.08 * (base - fare[i]) + scale * standard_normal())
                own = round(fare[i], 2)
                add_price(own)
                for k in extra:
                    add_price(round(own + round(18.0 * k + uniform(0, 10), 2), 2))
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
    drv_scale = 0.08 * fare_scale  # the price archetype's driver scale
    aux_scale = (0.15 if spec.archetype == "price" else 0.4) * fare_scale
    candidates: list[tuple[int, int, int]] = []  # (day index, dbd, itinerary index)
    latents: list[float] = []
    for di in range(len(dep_days)):
        for j, dbd in enumerate(display_dbds):
            z_dbd = (dbd - (DISPLAY_DBD_MIN + DISPLAY_DBD_MAX) / 2.0) / 12.0
            for ai, a in enumerate(airline_ids):
                for k in range(n_itins[a]):
                    if random() > DISPLAY_PROB:
                        continue
                    it = itin_start[a] + k
                    aux = -yy_diffs[ai][di][j] / aux_scale
                    if spec.archetype == "price":
                        drv = -mean3d_yys[ai][di][j] / drv_scale
                    elif spec.archetype == "schedule":
                        drv = -(abs(dep_times[di][it] - 360) / 180.0 - 1.5)
                    else:  # comfort
                        drv = ife_median[a] - 3.0
                    latent = (
                        DRIVER_COEF * drv
                        + 0.3 * aux
                        + INTERACTION_COEF * drv * z_dbd
                        + NOISE_SCALE * standard_normal()
                    )
                    candidates.append((di, dbd, it))
                    latents.append(latent)

    latent_arr = np.array(latents)
    intercept = _calibrate_intercept(latent_arr, PREVALENCE_TARGET)
    probs = 1.0 / (1.0 + np.exp(-(intercept + latent_arr)))
    draws = rng.random(len(candidates))
    # a displayed itinerary is its fares row (airline, day, dbd, departure
    # time, travel time and price) plus the purchase label
    di, dbd, it = np.array(candidates, dtype=np.int64).reshape(-1, 3).T
    rows = (di * len(fare_dbds) + dbd - FARE_DBD_MIN) * len(itins) + it
    bookings = {"od": [spec.od] * len(rows),
                **{name: col[rows] for name, col in data.fares.items() if name != "od"},
                "is_bought": draws < probs}
    for day, p in zip(bookings["dep_day_id"].tolist(), probs.tolist()):
        data.true_day_demand[day] = data.true_day_demand.get(day, 0.0) + p

    return data, bookings


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


def fixture_market_columns(i: int, seed: int) -> tuple[str, MarketData, dict]:
    """The OD of the i-th fixture market of FIXTURE_ODS, the market, drawn
    from seed + 1000 * (i + 1), without its bookings, and the bookings as the
    column mapping a parsed bookings file holds. Each market is drawn from
    its own generator, so the ten can be drawn in any order or in separate
    processes (`map_fixture_markets`)."""
    od, archetype, n_air = FIXTURE_ODS[i]
    spec = ArchetypeSpec(od=od, archetype=archetype, n_airlines=n_air)
    return od, *_draw_market(spec, seed=seed + 1000 * (i + 1))


def fixture_market(i: int, seed: int = FIXTURE_SEED) -> tuple[str, MarketData]:
    """The i-th fixture market of FIXTURE_ODS and its OD, drawn in this
    process; it is the market `standard_fixture(seed)` holds for that OD."""
    od, data, bookings = fixture_market_columns(i, seed)
    data.bookings = booking_records(bookings)
    return od, data


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the platform
    has one), else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_fixture_markets(fn: Callable[..., T], *args) -> Iterator[T]:
    """fn(i, *args) for each fixture market index i, yielded in FIXTURE_ODS
    order as each is ready. The calls run in worker processes, one per CPU
    this process may run on and at most one per market, one market per
    worker at a time; fn, args and each result travel by pickle. With one
    CPU, or in a daemonic process (a multiprocessing.Pool worker), which may
    start no children, they run here in turn. The first call that fails, in
    FIXTURE_ODS order, raises its error here, and markets not yet handed to
    a worker are cancelled; a worker that dies (say, to the OOM killer)
    raises concurrent.futures.BrokenExecutor. No worker outlives the
    iteration. The pool modules are imported here, on first use."""
    calls = (fn, range(len(FIXTURE_ODS)), *map(repeat, args))
    n_workers = min(_cpu_count(), len(FIXTURE_ODS))
    if n_workers > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            n_workers = 1
    if n_workers == 1:
        yield from map(*calls)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(n_workers) as pool:
        yield from pool.map(*calls)


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
    """Deterministic ten-OD corpus plus the single-flight scenario. The
    markets, by OD in FIXTURE_ODS order, are drawn through
    `map_fixture_markets`: each worker sends back its market with the
    bookings as columns, and each market's records are built here as it
    arrives, so only one market's booking columns are alive here at a time.
    They equal the markets `generate_market` draws one at a time."""
    markets = {}
    for od, data, bookings in map_fixture_markets(fixture_market_columns, seed):
        data.bookings = booking_records(bookings)
        markets[od] = data
    day_demand = {od: data.true_day_demand for od, data in markets.items()}
    return markets, fixture_scenario(seed, day_demand)
