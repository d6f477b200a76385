"""Seat-inventory control simulation comparing two forecast pipelines.

Class-level demand is forecast two ways: a Holt (double exponential
smoothing) time-series baseline per OD, and a model roll-up that sums
predicted purchase probabilities over candidate itineraries for covered ODs
(falling back to the time-series forecast elsewhere). Each forecast feeds an
EMSR-b booking-limit policy for a single flight; stochastic arrival streams
are replayed against both policies with common random numbers, with and
without downsell behavior.

Classes are numbered 1 (most expensive) to 12 (cheapest); fare brands
partition them as {1-3}, {4-8}, {9-12}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
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


@dataclass
class SimScenario:
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

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


@dataclass
class Policy:
    """Nested booking limits per class at the flight (leg) level.

    limits[k] is the maximum cumulative seats sellable once class k+1 opens
    (0-based index k = class k+1); class k+1 is open while sold < limits[k].
    The 12 limits must be non-increasing, so at any seat count the open
    classes are always the first n (classes 1..n). protections[j] protects
    classes 1..j+1 against lower classes. od_forecasts keeps the per-OD class
    contributions for reporting.
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


# Cephes ndtri (S. L. Moshier), the algorithm scipy.special.ndtri uses, ported
# line for line so the quantiles, and so the protection levels, are bit-equal.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
# 0 <= |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) between 2 and 8, i.e. y between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z between 8 and 64, i.e. y between exp(-32) and exp(-2048)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest power first. Cephes' p1evl, which implies a
    leading 1, is this with the 1 written out: 1 * x is exact."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile of y0: -inf at 0, inf at 1, nan for nan or outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXPM2  # the tails share one approximation, on y < exp(-2)
    y = 1.0 - y0 if upper else y0
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


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
        ratio = fares[j] / f_bar
        if ratio >= 1.0:
            y = 0.0
        elif ratio <= 0.0:
            y = float(capacity)
        elif sd == 0:
            y = mu
        else:
            y = float(mu + sd * _ndtri(1.0 - ratio))
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
    skewed by brand with probability cheap_early_prob and else uniform.
    """
    rng = np.random.default_rng(rep_seed)
    factor = max(0.0, rng.normal(scenario.demand_factor_mean, scenario.demand_factor_sd))
    volume = int(round(scenario.capacity * factor))
    od_names = np.array([od.name for od in scenario.ods], dtype=object)
    weights = np.array([od.mean_demand for od in scenario.ods], dtype=float)
    od_idx = rng.choice(len(od_names), size=volume, p=weights / weights.sum())
    # Scaled so each last column is exactly 1: a zero-share brand is never drawn.
    cdf = np.cumsum([od.mix.shares for od in scenario.ods], axis=1)
    cdf /= cdf[:, -1:]
    brand = (rng.random(volume)[:, None] >= cdf[od_idx]).sum(axis=1)
    cls = _BRAND_FIRST[brand] + rng.integers(0, _BRAND_SIZE[brand])
    skew = rng.random(volume) < scenario.cheap_early_prob
    time = np.where(skew, rng.beta(_BETA_A[brand], _BETA_B[brand]), rng.random(volume))
    order = np.argsort(time, kind="stable")
    return Arrivals(time[order], od_names[od_idx[order]], cls[order])


def replay(
    arrivals: Arrivals,
    policy: Policy,
    ladders: Mapping[str, FareLadder],
    capacity: int,
    downsell: bool,
) -> tuple[int, float]:
    """Accept requests against nested limits; returns (bookings, revenue).

    The limits are nested, so with s seats sold the open classes are always
    the first n_open[s], where n_open[s] counts the limits above s. A request
    whose willingness class k lies beyond n_open[sold] is lost. Otherwise the
    customer books the cheapest open class, n_open[sold], with downsell, and
    class k without. The loop reads the arrays once as lists.
    """
    n_open = (np.arange(capacity)[:, None] < np.asarray(policy.limits)).sum(axis=1).tolist()
    fares = {name: ladder.fares for name, ladder in ladders.items()}
    sold = 0
    revenue = 0.0
    for od, k in zip(arrivals.od.tolist(), arrivals.willingness_class.tolist()):
        if sold >= capacity:
            break
        n = n_open[sold]
        if k > n:
            continue
        sold += 1
        revenue += fares[od][(n if downsell else k) - 1]
    return sold, revenue


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
    numbers) for both downsell settings; paired 95% CI on the revenue gap."""
    ladders = {od.name: od.ladder for od in scenario.ods}
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
    per_rep: dict[tuple[bool, str], list[float]] = {
        (ds, m): [] for ds in (False, True) for m in ("std", "xgb")
    }
    bookings: dict[tuple[bool, str], list[int]] = {key: [] for key in per_rep}
    for rep_seq in seeds:
        rep_seed = rep_seq.generate_state(1)[0]
        arrivals = generate_arrivals(scenario, int(rep_seed))
        for ds in (False, True):
            for method, policy in (("std", policy_std), ("xgb", policy_xgb)):
                sold, revenue = replay(arrivals, policy, ladders, scenario.capacity, ds)
                assert sold <= scenario.capacity
                per_rep[(ds, method)].append(revenue)
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
