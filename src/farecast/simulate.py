"""Seat-inventory control simulation comparing two forecast pipelines.

Class-level demand is forecast two ways: a Holt (double exponential
smoothing) time-series baseline per OD, and a model roll-up that sums
predicted purchase probabilities over candidate itineraries for covered ODs
(falling back to the time-series forecast elsewhere). Each forecast feeds an
EMSR-b booking-limit policy for a single flight; stochastic arrival streams
are replayed against both policies with common random numbers. Acceptance
does not depend on downsell behavior, so one replay per policy serves both
settings: with and without downsell.

Classes are numbered 1 (most expensive) to 12 (cheapest); fare brands
partition them as {1-3}, {4-8}, {9-12}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .ingest import quote_cells, write_csv

__all__ = [
    "N_CLASSES",
    "FARE_BRANDS",
    "FareLadder",
    "DemandMix",
    "OdMarket",
    "SimScenario",
    "Policy",
    "Arrivals",
    "des_forecast",
    "model_rollup_forecast",
    "allocate_to_classes",
    "aggregate_class_forecasts",
    "optimize_policy",
    "generate_arrivals",
    "replay",
    "compare_policies",
    "ComparisonReport",
]

N_CLASSES = 12
# fare brand -> class indices (1-based)
FARE_BRANDS = {1: (1, 2, 3), 2: (4, 5, 6, 7, 8), 3: (9, 10, 11, 12)}

# Arrival-order tendency: with this probability a request's arrival time is
# drawn from a brand-skewed Beta(a, b) (cheap brands early), else uniform.
CHEAP_EARLY_PROB = 0.7
# Per 0-based brand: first class, number of classes, and the Beta's a and b.
_BRAND_FIRST, _BRAND_SIZE = np.array([(c[0], len(c)) for c in FARE_BRANDS.values()]).T
_BETA_A, _BETA_B = np.array([(2.0, 1.0), (1.0, 1.0), (1.0, 2.0)]).T
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class FareLadder:
    fares: tuple[float, ...]

    def __post_init__(self):
        if len(self.fares) != N_CLASSES:
            raise ValueError(f"need {N_CLASSES} fares")
        if not all(math.isfinite(f) and f > 0 for f in self.fares):
            raise ValueError("fares must be finite and positive")
        if any(a < b for a, b in zip(self.fares, self.fares[1:])):
            raise ValueError("fares must be non-increasing from class 1 to 12")


@dataclass(frozen=True)
class DemandMix:
    """Fare-brand demand shares; renormalized to sum 1 at construction."""

    shares: tuple[float, float, float]

    def __post_init__(self):
        if len(self.shares) != len(FARE_BRANDS):
            raise ValueError(f"need {len(FARE_BRANDS)} brand shares, got {len(self.shares)}")
        if not all(math.isfinite(s) and s >= 0 for s in self.shares):
            raise ValueError("brand shares must be finite and nonnegative")
        total = sum(self.shares)
        if total <= 0:
            raise ValueError("brand shares must not all be zero")
        object.__setattr__(self, "shares", tuple(s / total for s in self.shares))

    def brand_share(self, brand: int) -> float:
        return self.shares[brand - 1]


@dataclass
class OdMarket:
    name: str
    ladder: FareLadder
    mix: DemandMix
    mean_demand: float
    history: list[float]          # per-departure-day demand series for Holt
    covered: bool = False         # does a trained itinerary model cover this OD

    def __post_init__(self):
        if len(self.history) < 2 or not all(math.isfinite(h) for h in self.history):
            raise ValueError(f"OD {self.name}: history needs at least 2 values, all finite")
        if not (math.isfinite(self.mean_demand) and self.mean_demand >= 0):
            raise ValueError(f"OD {self.name}: mean_demand must be finite and >= 0")


@dataclass(frozen=True)
class SimScenario:
    """One flight, the ODs that cross it, and the Monte Carlo settings.

    Construction validates the fields and then builds, once per scenario, the
    tables every replication's arrival draws read: the OD names, the CDF of
    the ODs' mean demands and each OD's fare-brand CDF. So the scenario is
    frozen, and its ODs must not be changed once it is built: derive a
    changed scenario with `dataclasses.replace`, which builds the tables
    again. OD names must be unique, as ladders and forecasts are keyed by
    name.
    """

    capacity: int
    ods: list[OdMarket]
    demand_factor_mean: float = 0.98
    demand_factor_sd: float = 0.1
    n_reps: int = 500
    seed: int = 0
    demand_cv: float = 0.3
    holt_alpha: float = 0.3
    holt_beta: float = 0.1
    cheap_early_prob: float = CHEAP_EARLY_PROB
    # departure day whose displayed itineraries feed the model roll-up
    forecast_day: int | None = None
    # arrival draw tables, built from `ods` in __post_init__
    od_names: np.ndarray = field(init=False, repr=False, compare=False)
    od_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    brand_cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        names = [od.name for od in self.ods]
        if len(set(names)) < len(names):
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValueError(f"OD {duplicate} occurs more than once")
        if sum(od.mean_demand for od in self.ods) <= 0:
            raise ValueError("total mean_demand over the ODs must be positive")
        if not (0 < self.holt_alpha < 1 and 0 < self.holt_beta < 1):
            raise ValueError("holt_alpha and holt_beta must lie in (0, 1)")
        if not math.isfinite(self.demand_factor_mean):
            raise ValueError("demand_factor_mean must be finite")
        if not all(math.isfinite(v) and v >= 0 for v in (self.demand_factor_sd, self.demand_cv)):
            raise ValueError("demand_factor_sd and demand_cv must be finite and >= 0")
        if not 0 <= self.cheap_early_prob <= 1:
            raise ValueError("cheap_early_prob must lie in [0, 1]")
        # Built as Generator.choice builds its CDF from p, so searchsorted on
        # one uniform per request draws the ODs choice would.
        weights = np.array([od.mean_demand for od in self.ods], dtype=float)
        od_cdf = (weights / weights.sum()).cumsum()
        od_cdf /= od_cdf[-1]
        # Scaled so each last column is exactly 1: a zero-share brand is never
        # drawn. That 1 lies above every uniform, so the table keeps the first
        # two columns only, as rows: row b holds each OD's CDF at brand b + 1.
        brand_cdf = np.cumsum([od.mix.shares for od in self.ods], axis=1)
        brand_cdf /= brand_cdf[:, -1:]
        object.__setattr__(self, "od_names", np.array(names, dtype=object))
        object.__setattr__(self, "od_cdf", od_cdf)
        object.__setattr__(self, "brand_cdf", np.ascontiguousarray(brand_cdf[:, :-1].T))


@dataclass
class Policy:
    """Nested booking limits per class at the flight (leg) level.

    limits[k] is the maximum cumulative seats sellable once class k+1 opens
    (0-based index k = class k+1); class k+1 is open while sold < limits[k].
    The 12 limits must be non-increasing, so at any seat count the open
    classes are always the first n (classes 1..n). protections[j] protects
    classes 1..j+1 against lower classes. od_forecasts is unread: it keeps the
    per-OD class forecasts that perfbench's sim_mc passes to optimize_policy.
    """

    limits: tuple[float, ...]
    protections: tuple[float, ...]
    od_forecasts: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.limits) != N_CLASSES:
            raise ValueError(f"need {N_CLASSES} booking limits")
        if not all(a >= b for a, b in zip(self.limits, self.limits[1:])):
            raise ValueError("booking limits must be non-increasing from class 1 to 12")


def des_forecast(history: Sequence[float], alpha: float, beta: float) -> float:
    """One-step-ahead Holt linear-trend forecast, floored at zero.

    level_t = a*y_t + (1-a)(level + trend); trend_t = b*(level_t - level) +
    (1-b)*trend; initialized with level = y_0, trend = y_1 - y_0.
    """
    if len(history) < 2:
        raise ValueError("need at least 2 history points")
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must lie in (0, 1)")
    level = float(history[0])
    trend = float(history[1]) - float(history[0])
    for y in history[1:]:
        prev_level = level
        level = alpha * float(y) + (1 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1 - beta) * trend
    return max(0.0, level + trend)


def allocate_to_classes(od_demand: float, mix: DemandMix) -> tuple[float, ...]:
    """Spread OD demand over classes: brand share, uniform within brand."""
    out = [0.0] * N_CLASSES
    for brand, classes in FARE_BRANDS.items():
        per_class = od_demand * mix.brand_share(brand) / len(classes)
        for c in classes:
            out[c - 1] = per_class
    return tuple(out)


def model_rollup_forecast(probabilities: Sequence[float], mix: DemandMix) -> tuple[float, ...]:
    """Class-level expected demand from per-itinerary purchase probabilities.

    Expected OD demand is the sum of probabilities (linearity of
    expectation), allocated to classes via the brand mix.
    """
    return allocate_to_classes(float(np.sum(probabilities)), mix)


def aggregate_class_forecasts(
    scenario: SimScenario,
    rollup_probs: Mapping[str, Sequence[float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[float, ...]]]:
    """(class demand means, class fares, per-OD forecasts) for the leg.

    Each OD is forecast by the model roll-up where covered and by Holt
    elsewhere. Class fares are demand-weighted averages over the ODs crossing
    the flight, so EMSR-b sees one 12-class ladder; a class without demand
    takes the mean of the OD ladders' fares.
    """
    per_od = {}
    for od in scenario.ods:
        if rollup_probs is not None and od.covered:
            if od.name not in rollup_probs:
                raise ValueError(f"missing model probabilities for covered OD {od.name}")
            per_od[od.name] = model_rollup_forecast(rollup_probs[od.name], od.mix)
        else:
            total = des_forecast(od.history, scenario.holt_alpha, scenario.holt_beta)
            per_od[od.name] = allocate_to_classes(total, od.mix)
    demand = np.array([per_od[od.name] for od in scenario.ods])  # (OD, class)
    ladders = np.array([od.ladder.fares for od in scenario.ods])
    means = demand.sum(axis=0)
    # One class's fares contiguous, so each mean sums in np.mean's own order.
    fallback = np.ascontiguousarray(ladders.T).mean(axis=1)
    fares = np.divide((demand * ladders).sum(axis=0), means, out=fallback, where=means > 0)
    return means, fares, per_od


def optimize_policy(
    class_means: np.ndarray,
    class_fares: np.ndarray,
    capacity: int,
    demand_cv: float = 0.3,
    od_forecasts: dict[str, tuple[float, ...]] | None = None,
) -> Policy:
    """EMSR-b nested protection levels under Gaussian class demand.

    For each class j, classes 1..j aggregate into a virtual class with summed
    mean/variance and demand-weighted average fare f_bar; the protection y_j
    solves P(S_j > y_j) = f_{j+1} / f_bar (Littlewood on the aggregate).
    Booking limits are capacity minus protection, clamped and nested.

    The quantile is `statistics.NormalDist().inv_cdf` (Wichura's AS241, 1988):
    within 1.06e-15 relative of `scipy.special.ndtri` on 299,430 values of p
    in (0, 1), from 1e-300 to 1 - 2**-53, and bit-equal on 31 % of them.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    fares = np.asarray(class_fares, dtype=float)
    if any(fares[i] < fares[i + 1] for i in range(len(fares) - 1)):
        raise ValueError("class fares must be non-increasing")
    means = np.asarray(class_means, dtype=float)
    sds = demand_cv * means

    protections = np.zeros(N_CLASSES - 1)
    for j in range(1, N_CLASSES):  # protect classes 1..j against class j+1
        mu = means[:j].sum()
        sd = math.sqrt(float((sds[:j] ** 2).sum()))
        if mu <= 0:
            protections[j - 1] = 0.0
            continue
        f_bar = float((means[:j] * fares[:j]).sum() / mu)
        ratio = fares[j] / f_bar if f_bar else math.inf  # f_bar underflowed: protect nothing
        if ratio >= 1.0:
            y = 0.0
        elif ratio <= 0.0:
            y = float(capacity)
        elif sd == 0:
            y = mu
        elif 1.0 - ratio == 1.0:  # ratio <= 2**-54: the quantile is +inf, so y clamps
            y = float(capacity)
        else:
            y = float(mu + sd * _STD_NORMAL.inv_cdf(1.0 - ratio))
        protections[j - 1] = min(max(y, 0.0), float(capacity))
    protections = np.maximum.accumulate(protections)

    limits = [float(capacity)]
    limits.extend(float(capacity) - p for p in protections)
    return Policy(
        limits=tuple(limits),
        protections=tuple(protections),
        od_forecasts=dict(od_forecasts or {}),
    )


@dataclass(frozen=True)
class Arrivals:
    """One replication's requests in arrival order: equal-length arrays, od of str objects."""

    time: np.ndarray
    od: np.ndarray
    willingness_class: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


def generate_arrivals(scenario: SimScenario, rep_seed: int) -> Arrivals:
    """One replication's request stream, stably sorted by arrival time.

    Volume is round(capacity * max(0, N(demand_factor_mean, sd))). Then, in
    this order and each as one array over all requests: an OD proportional to
    OD demand weights, a fare brand from the OD's mix (one uniform, inverse
    CDF), a willingness class uniform within the brand, and an arrival time,
    skewed by brand with probability cheap_early_prob and else uniform. The
    OD and brand CDFs come from the scenario, built once; each replication
    draws only the random numbers, the same ones and in the same order as
    `rng.choice(n_od, volume, p=weights / weights.sum())` would for the OD.
    """
    rng = np.random.default_rng(rep_seed)
    factor = max(0.0, rng.normal(scenario.demand_factor_mean, scenario.demand_factor_sd))
    volume = int(round(scenario.capacity * factor))
    od_idx = scenario.od_cdf.searchsorted(rng.random(volume), side="right")
    # The 0-based brand counts the OD's CDF values at or below the uniform.
    u = rng.random(volume)
    first, second = scenario.brand_cdf
    brand = (u >= first[od_idx]).astype(np.intp) + (u >= second[od_idx])
    cls = _BRAND_FIRST[brand] + rng.integers(0, _BRAND_SIZE[brand])
    skew = rng.random(volume) < scenario.cheap_early_prob
    time = np.where(skew, rng.beta(_BETA_A[brand], _BETA_B[brand]), rng.random(volume))
    order = np.argsort(time, kind="stable")
    return Arrivals(time[order], scenario.od_names[od_idx[order]], cls[order])


def _open_classes(limits: tuple[float, ...], n: int, sold: int, capacity: int) -> tuple[int, int]:
    """(n, step): the open-class count at `sold` seats, counted down from n,
    and the seat count at which it next falls. A full flight closes every
    class, so each limit is capped at capacity; the cap also keeps an
    infinite limit out of `ceil`. n is 0 once the flight is full."""
    while n and min(limits[n - 1], capacity) <= sold:
        n -= 1
    return n, math.ceil(min(limits[n - 1], capacity)) if n else capacity


def replay(
    arrivals: Arrivals,
    policy: Policy,
    ladders: Mapping[str, FareLadder],
    capacity: int,
) -> tuple[int, float, float]:
    """Accept requests against nested limits, once for both downsell settings;
    returns (bookings, revenue, revenue with downsell).

    The limits are nested, so with `sold` seats sold the open classes are the
    first n, where n counts the limits above `sold`; n only falls as seats
    sell, and only when `sold` reaches `step`, the next limit rounded up (or
    capacity, whichever is lower), so n is re-derived at most 13 times per
    stream, not after every sale. A request whose willingness class k lies
    beyond n is lost, in both settings. Otherwise the customer books class k
    without downsell and the cheapest open class, n, with it: one loop adds
    each fare to its own sum, in request order. The loop reads the arrays
    once as lists and stops right after the sale that fills the flight.
    """
    limits = policy.limits
    fares = {name: ladder.fares for name, ladder in ladders.items()}
    sold = 0
    revenue = revenue_downsell = 0.0
    n, step = _open_classes(limits, N_CLASSES, sold, capacity)
    for od, k in zip(arrivals.od.tolist(), arrivals.willingness_class.tolist()):
        if k > n:
            continue
        sold += 1
        ladder = fares[od]
        revenue += ladder[k - 1]
        revenue_downsell += ladder[n - 1]
        if sold == step:
            n, step = _open_classes(limits, n, sold, capacity)
            if not n:
                break
    return sold, revenue, revenue_downsell


@dataclass
class ComparisonReport:
    """Table-shaped summary: rows (downsell no/yes) x (std, xgb, % gain);
    per_rep and bookings hold each replication's revenue and seats sold."""

    mean_revenue: dict[tuple[bool, str], float]
    gain_pct: dict[bool, float]
    gain_ci95: dict[bool, tuple[float, float]]
    per_rep: dict[tuple[bool, str], list[float]]
    bookings: dict[tuple[bool, str], list[int]]

    def to_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        both = (False, True)
        values = [
            [self.mean_revenue[(ds, "std")] for ds in both],
            [self.mean_revenue[(ds, "xgb")] for ds in both],
            [self.gain_pct[ds] for ds in both],
            [self.gain_ci95[ds][0] for ds in both],
            [self.gain_ci95[ds][1] for ds in both],
        ]
        write_csv(
            path, ["downsell", "std", "xgb", "gain_pct", "gain_ci_low", "gain_ci_high"],
            [[["No", "Yes"], *([f"{v:.2f}" for v in col] for col in values)]], header_comment,
        )

    def write_replication_log(self, path: str | Path) -> None:
        reps, downsell, methods, revenue, bookings = [], [], [], [], []
        for (ds, method), revs in sorted(self.per_rep.items()):
            sold = self.bookings[(ds, method)]
            reps += map(str, range(len(revs)))
            downsell += ["Yes" if ds else "No"] * len(revs)
            methods += [method] * len(revs)
            revenue += [f"{rev:.2f}" for rev in revs]
            bookings += map(str, sold)
        columns = [reps, downsell, quote_cells(methods, {}), revenue, bookings]
        write_csv(path, ["rep", "downsell", "method", "revenue", "bookings"], [columns])


def compare_policies(
    scenario: SimScenario,
    policy_std: Policy,
    policy_xgb: Policy,
) -> ComparisonReport:
    """Replay both policies on identical arrival streams (common random
    numbers); paired 95% CI on the revenue gap in each downsell setting.

    One replay per policy and stream fills both downsell settings, because
    acceptance does not depend on downsell.
    """
    ladders = {od.name: od.ladder for od in scenario.ods}
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
    per_rep: dict[tuple[bool, str], list[float]] = {
        (ds, m): [] for ds in (False, True) for m in ("std", "xgb")
    }
    bookings: dict[tuple[bool, str], list[int]] = {key: [] for key in per_rep}
    for rep_seq in seeds:
        rep_seed = rep_seq.generate_state(1)[0]
        arrivals = generate_arrivals(scenario, int(rep_seed))
        for method, policy in (("std", policy_std), ("xgb", policy_xgb)):
            sold, revenue, revenue_downsell = replay(arrivals, policy, ladders, scenario.capacity)
            assert sold <= scenario.capacity
            for ds, rev in ((False, revenue), (True, revenue_downsell)):
                per_rep[(ds, method)].append(rev)
                bookings[(ds, method)].append(sold)

    mean_revenue = {key: float(np.mean(revs)) for key, revs in per_rep.items()}
    gain_pct = {}
    gain_ci = {}
    for ds in (False, True):
        std = np.array(per_rep[(ds, "std")])
        xgb = np.array(per_rep[(ds, "xgb")])
        diff = xgb - std
        base = std.mean()
        gain_pct[ds] = float(diff.mean() / base * 100.0) if base > 0 else 0.0
        se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
        gain_ci[ds] = (float(diff.mean() - 1.96 * se), float(diff.mean() + 1.96 * se))
    return ComparisonReport(mean_revenue, gain_pct, gain_ci, per_rep, bookings)
