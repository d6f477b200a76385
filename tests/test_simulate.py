"""Revenue-management simulation: forecasting, EMSR-b, replay, comparison."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from farecast import simulate
from farecast.config import read_scenario, write_scenario
from farecast.simulate import (
    FARE_BRANDS,
    N_CLASSES,
    Arrivals,
    ComparisonReport,
    DemandMix,
    FareLadder,
    OdMarket,
    Policy,
    SimScenario,
    _ndtri,
    aggregate_class_forecasts,
    allocate_to_classes,
    compare_policies,
    des_forecast,
    generate_arrivals,
    model_rollup_forecast,
    optimize_policy,
    replay,
)
from farecast.synth import COVERED_BRAND_MIX, COVERED_FARE_LADDERS, standard_fixture

AMS_SYD = FareLadder(COVERED_FARE_LADDERS["AMS-SYD"])
LHR_SYD = FareLadder(COVERED_FARE_LADDERS["LHR-SYD"])


def _flat_ladder(fare: float) -> FareLadder:
    return FareLadder(tuple([fare] * N_CLASSES))


def _stream(pairs) -> Arrivals:
    """Arrivals for (od, willingness class) pairs, in the given order."""
    ods, classes = zip(*pairs) if pairs else ((), ())
    return Arrivals(np.arange(len(pairs), dtype=float), np.array(ods, dtype=object),
                    np.array(classes, dtype=int))


def _open_policy(capacity: int) -> Policy:
    return Policy(limits=tuple([float(capacity)] * N_CLASSES),
                  protections=tuple([0.0] * (N_CLASSES - 1)))


def _scenario(capacity: int = 50, **kw) -> SimScenario:
    od = OdMarket(
        name="AMS-SYD",
        ladder=AMS_SYD,
        mix=DemandMix(COVERED_BRAND_MIX["AMS-SYD"]),
        mean_demand=40.0,
        history=[30.0, 32.0, 31.0, 33.0],
        covered=True,
    )
    return SimScenario(capacity=capacity, ods=[od], **kw)


# ---------------------------------------------------------------- forecasting

def test_holt_matches_hand_recursion():
    history = [10.0, 12.0, 11.0, 15.0]
    alpha, beta = 0.3, 0.1
    level, trend = 10.0, 2.0
    for y in history[1:]:
        prev = level
        level = alpha * y + (1 - alpha) * (level + trend)
        trend = beta * (level - prev) + (1 - beta) * trend
    assert des_forecast(history, alpha, beta) == pytest.approx(level + trend, abs=1e-12)


def test_holt_exact_on_linear_series():
    # A perfectly linear series keeps level/trend exact, so the one-step
    # forecast continues the line.
    history = [5.0 + 3.0 * t for t in range(8)]
    assert des_forecast(history, 0.3, 0.1) == pytest.approx(5.0 + 3.0 * 8, abs=1e-9)


def test_holt_floor_and_validation():
    assert des_forecast([10.0, 0.0, 0.0, 0.0], 0.9, 0.9) >= 0.0
    with pytest.raises(ValueError):
        des_forecast([1.0], 0.3, 0.1)
    with pytest.raises(ValueError):
        des_forecast([1.0, 2.0], 0.0, 0.1)


# ------------------------------------------------------------ class roll-up

def _aggregate_oracle(scenario, rollup_probs):
    """The per-OD, per-class loop form of `aggregate_class_forecasts`."""
    per_od = {}
    for od in scenario.ods:
        if rollup_probs is not None and od.covered:
            per_od[od.name] = model_rollup_forecast(rollup_probs[od.name], od.mix)
        else:
            total = des_forecast(od.history, scenario.holt_alpha, scenario.holt_beta)
            per_od[od.name] = allocate_to_classes(total, od.mix)
    means = np.zeros(N_CLASSES)
    fare_mass = np.zeros(N_CLASSES)
    for od in scenario.ods:
        fc = per_od[od.name]
        for c in range(N_CLASSES):
            means[c] += fc[c]
            fare_mass[c] += fc[c] * od.ladder.fares[c]
    fares = np.empty(N_CLASSES)
    for c in range(N_CLASSES):
        if means[c] > 0:
            fares[c] = fare_mass[c] / means[c]
        else:
            fares[c] = float(np.mean([od.ladder.fares[c] for od in scenario.ods]))
    return means, fares, per_od


def _assert_aggregate_equals_oracle(scenario, rollup_probs):
    means, fares, per_od = aggregate_class_forecasts(scenario, rollup_probs)
    o_means, o_fares, o_per_od = _aggregate_oracle(scenario, rollup_probs)
    assert means.tobytes() == o_means.tobytes()
    assert fares.tobytes() == o_fares.tobytes()
    assert per_od == o_per_od


@lru_cache(maxsize=None)
def _fixture_flight(seed):
    """A standard fixture's scenario and its forecast-day purchase labels,
    which stand in for model probabilities."""
    markets, scenario = standard_fixture(seed)
    labels = {
        od.name: [float(b.is_bought) for b in markets[od.name].bookings
                  if b.dep_day_id == scenario.forecast_day]
        for od in scenario.ods if od.covered
    }
    return scenario, labels


@pytest.fixture(scope="module", params=[1, 7, 42])
def fixture_flight(request):
    return _fixture_flight(request.param)


def test_aggregate_equals_loop_oracle(fixture_flight):
    scenario, labels = fixture_flight
    _assert_aggregate_equals_oracle(scenario, None)
    _assert_aggregate_equals_oracle(scenario, labels)


def test_aggregate_zero_demand_class_takes_mean_ladder_fare(fixture_flight):
    # No OD sells brand 1, so classes 1-3 have no demand; fractional fares
    # make the order of the mean's sum visible in the last bits.
    scenario, labels = fixture_flight
    ods = [
        replace(od, mix=DemandMix((0.0, *od.mix.shares[1:])),
                ladder=FareLadder(tuple(f * 1.0137 for f in od.ladder.fares)))
        for od in scenario.ods
    ]
    scenario = replace(scenario, ods=ods)
    for probs in (None, labels):
        means, fares, _ = aggregate_class_forecasts(scenario, probs)
        assert list(means[:3]) == [0.0] * 3 and (means[3:] > 0).all()
        for c in range(3):
            assert fares[c] == pytest.approx(np.mean([od.ladder.fares[c] for od in ods]))
        _assert_aggregate_equals_oracle(scenario, probs)


# ----------------------------------------------------------------- structures

def test_fare_ladder_validation():
    with pytest.raises(ValueError):
        FareLadder((100.0, 50.0))  # wrong length
    increasing = tuple(float(i) for i in range(1, N_CLASSES + 1))
    with pytest.raises(ValueError):
        FareLadder(increasing)
    assert AMS_SYD.fares[0] == 2324
    assert AMS_SYD.fares[11] == 447


def test_policy_requires_12_non_increasing_limits():
    no_protection = tuple([0.0] * (N_CLASSES - 1))
    with pytest.raises(ValueError):
        Policy(limits=tuple(float(i) for i in range(N_CLASSES)), protections=no_protection)
    with pytest.raises(ValueError):
        Policy(limits=tuple([5.0] * (N_CLASSES - 1)), protections=no_protection)


def test_duplicate_od_names_are_rejected():
    # Ladders and forecasts are keyed by OD name, so a second OD of the same
    # name would price and forecast both with one of them.
    od = _scenario().ods[0]
    with pytest.raises(ValueError, match="OD AMS-SYD occurs more than once"):
        SimScenario(capacity=50, ods=[od, replace(od, mean_demand=5.0)])
    ods = _od_scenario([1.0, 2.0]).ods
    with pytest.raises(ValueError, match="OD OD0 occurs more than once"):
        SimScenario(capacity=50, ods=[*ods, replace(ods[1], name="OD0")])


def test_demand_mix_renormalizes():
    mix = DemandMix((1.0, 1.0, 2.0))
    assert mix.shares == (0.25, 0.25, 0.5)
    with pytest.raises(ValueError):
        DemandMix((-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        DemandMix((float("nan"), 0.6, 0.5))
    with pytest.raises(ValueError):
        DemandMix((0.0, 0.0, 0.0))
    for shares in ((0.5, 0.5), (0.2, 0.3, 0.3, 0.2)):
        with pytest.raises(ValueError, match="need 3 brand shares"):
            DemandMix(shares)


def test_allocate_uniform_within_brand():
    mix = DemandMix((0.3, 0.5, 0.2))
    fc = allocate_to_classes(60.0, mix)
    assert sum(fc) == pytest.approx(60.0)
    assert fc[0] == fc[1] == fc[2] == pytest.approx(60.0 * 0.3 / 3)
    assert fc[3] == pytest.approx(60.0 * 0.5 / 5)
    assert fc[8] == pytest.approx(60.0 * 0.2 / 4)


def test_model_rollup_sums_probabilities():
    mix = DemandMix((1.0, 0.0, 0.0))
    fc = model_rollup_forecast([0.2, 0.5, 0.3], mix)
    assert sum(fc) == pytest.approx(1.0)
    assert fc[0] == pytest.approx(1.0 / 3)


# --------------------------------------------------------------------- EMSR-b

def test_littlewood_two_class_protection():
    # Classes 1 and 12 only: fares 100 vs 50, D1 ~ N(30, 10). Littlewood's
    # rule protects y* with P(D1 > y*) = 50/100, i.e. the median 30.
    means = np.zeros(N_CLASSES)
    means[0] = 30.0
    means[-1] = 100.0
    fares = np.array([100.0] + [50.0] * (N_CLASSES - 1))
    policy = optimize_policy(means, fares, capacity=200, demand_cv=10.0 / 30.0)
    expected = float(norm.ppf(0.5, loc=30.0, scale=10.0))
    assert abs(policy.protections[0] - expected) <= 1.0
    # Nesting: protections are non-decreasing, limits non-increasing.
    assert all(a <= b for a, b in zip(policy.protections, policy.protections[1:]))
    assert all(a >= b for a, b in zip(policy.limits, policy.limits[1:]))
    assert policy.limits[0] == 200.0


def _protections_oracle(means, fares, capacity, demand_cv):
    """EMSR-b protection levels with the quantile from `norm.ppf`."""
    sds = demand_cv * means
    out = []
    for j in range(1, N_CLASSES):
        mu = means[:j].sum()
        sd = float(np.sqrt((sds[:j] ** 2).sum()))
        if mu <= 0:
            out.append(0.0)
            continue
        ratio = fares[j] / float((means[:j] * fares[:j]).sum() / mu)
        if ratio >= 1.0:
            y = 0.0
        elif ratio <= 0.0:
            y = float(capacity)
        elif sd == 0:
            y = mu
        else:
            y = float(norm.ppf(1.0 - ratio, loc=mu, scale=sd))
        out.append(min(max(y, 0.0), float(capacity)))
    return tuple(np.maximum.accumulate(out))


def test_protections_equal_norm_ppf_oracle(fixture_flight):
    scenario, labels = fixture_flight
    for probs in (None, labels):
        means, fares, _ = aggregate_class_forecasts(scenario, probs)
        policy = optimize_policy(means, fares, scenario.capacity, scenario.demand_cv)
        oracle = _protections_oracle(means, fares, scenario.capacity, scenario.demand_cv)
        assert policy.protections == oracle
        # the Gaussian quantile branch, not a clamp, sets most levels
        assert sum(0.0 < p < scenario.capacity for p in oracle) >= 6


def test_ndtri_equals_scipy_ndtri_oracle():
    # Cephes switches approximation at y = exp(-2) and at y = exp(-32) (and
    # at their mirror images 1 - y): each break point and the ulps around it.
    breaks = []
    for b in (math.exp(-2), math.exp(-32)):
        for point in (b, 1.0 - b):
            lo = hi = point
            for _ in range(4):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
                breaks += [lo, hi]
            breaks.append(point)
    rng = np.random.default_rng(0)
    y = np.concatenate([
        rng.random(100_000),
        np.linspace(0.0, 1.0, 100_001),
        np.logspace(-300, -1, 60_000),            # lower tail
        1.0 - np.logspace(-16, -1, 30_000),        # upper tail, to the last ulp below 1
        1.0 - rng.random(10_000) * 1e-15,
        breaks,
        [0.0, -0.0, 1.0, 5e-324, 1e-310, np.nan, -1e-300, -1.0, 1.0 + 2**-52, 2.0,
         np.inf, -np.inf],
    ])
    ours = np.array([_ndtri(v) for v in y.tolist()])
    oracle = ndtri(y)
    assert np.array_equal(ours, oracle, equal_nan=True)
    # the sign of a zero must match too; a nan's sign bit means nothing
    assert np.array_equal(np.signbit(ours) & ~np.isnan(ours),
                          np.signbit(oracle) & ~np.isnan(oracle))


def test_optimize_policy_rejects_bad_input():
    means = np.ones(N_CLASSES)
    increasing = np.arange(1.0, N_CLASSES + 1)
    with pytest.raises(ValueError):
        optimize_policy(means, increasing, capacity=100)
    with pytest.raises(ValueError):
        optimize_policy(means, increasing[::-1].copy(), capacity=0)


def test_zero_demand_gives_zero_protection():
    means = np.zeros(N_CLASSES)
    fares = np.linspace(1200, 100, N_CLASSES)
    policy = optimize_policy(means, fares, capacity=100)
    assert policy.protections == tuple([0.0] * (N_CLASSES - 1))
    assert policy.limits == tuple([100.0] * N_CLASSES)


# --------------------------------------------------------------------- replay

def _replay_oracle(arrivals, policy, ladders, capacity, downsell):
    """Class-by-class search for the cheapest open class, one downsell
    setting at a time: the reference for `replay`'s stepping count of open
    classes and for its one pass over both settings."""

    def open_class(cls, sold):
        return sold < policy.limits[cls - 1]

    sold = 0
    revenue = 0.0
    for od, k in zip(arrivals.od, arrivals.willingness_class):
        if sold >= capacity:
            break
        if downsell:
            booked = None
            for cls in range(N_CLASSES, k - 1, -1):  # cheapest first
                if open_class(cls, sold):
                    booked = cls
                    break
            if booked is None:
                continue
        else:
            if not open_class(k, sold):
                continue
            booked = k
        sold += 1
        revenue += ladders[od].fares[booked - 1]
    return sold, revenue


# Integer limits make `sold == limit` reachable, and ties make several classes
# close on one booking; fractional ones fall between seats. A limit of 0 or
# below closes its class from the start, and -inf/inf close or never close it.
_LIMIT = st.one_of(st.integers(-3, 70).map(float), st.floats(-10, 70),
                   st.sampled_from([0.0, -math.inf, math.inf]))


@settings(max_examples=300, deadline=None)
@given(
    limits=st.lists(_LIMIT, min_size=N_CLASSES, max_size=N_CLASSES),
    capacity=st.integers(1, 90),
    stream=st.lists(st.tuples(st.sampled_from(["AMS-SYD", "LHR-SYD"]),
                              st.integers(1, N_CLASSES)), max_size=120),
)
@example(limits=[40.0] * 4 + [6.0] * 8, capacity=50, stream=[("AMS-SYD", 12)] * 8)
@example(limits=[math.inf] * 6 + [-math.inf] * 6, capacity=3, stream=[("LHR-SYD", 1)] * 5)
@example(limits=[0.0] * N_CLASSES, capacity=1, stream=[])
def test_replay_equals_class_by_class_oracle(limits, capacity, stream):
    policy = Policy(limits=tuple(sorted(limits, reverse=True)),
                    protections=tuple([0.0] * (N_CLASSES - 1)))
    arrivals = _stream(stream)
    ladders = {"AMS-SYD": AMS_SYD, "LHR-SYD": LHR_SYD}
    sold, revenue, revenue_downsell = replay(arrivals, policy, ladders, capacity)
    assert (sold, revenue) == _replay_oracle(arrivals, policy, ladders, capacity, False)
    assert (sold, revenue_downsell) == _replay_oracle(arrivals, policy, ladders, capacity, True)


def test_unlimited_capacity_no_downsell_revenue_is_sum_of_fares():
    scenario = _scenario(capacity=80, seed=7)
    arrivals = generate_arrivals(scenario, rep_seed=123)
    assert arrivals, "expected a non-empty request stream"
    cap = len(arrivals) + 10
    sold, revenue, _ = replay(arrivals, _open_policy(cap), {"AMS-SYD": AMS_SYD}, cap)
    assert sold == len(arrivals)
    assert revenue == sum(AMS_SYD.fares[k - 1] for k in arrivals.willingness_class)


def test_capacity_conservation():
    # Limits above capacity, finite or not, never close a class: only the
    # capacity stop keeps these policies from selling past the flight.
    scenario = _scenario(capacity=20, demand_factor_mean=2.0, seed=3)
    no_protection = tuple([0.0] * (N_CLASSES - 1))
    policies = [_open_policy(20), Policy(limits=(math.inf,) * N_CLASSES, protections=no_protection),
                Policy(limits=(70.0,) * N_CLASSES, protections=no_protection)]
    for rep in range(10):
        arrivals = generate_arrivals(scenario, rep_seed=rep)
        assert len(arrivals) > 20
        for policy in policies:
            sold, _, _ = replay(arrivals, policy, {"AMS-SYD": AMS_SYD}, 20)
            assert sold == 20, policy.limits[0]


def test_downsell_books_cheapest_open_class():
    # A customer willing to pay class 10 (498) books class 12 (447) when all
    # classes are open under downsell, losing 51 versus her willingness fare.
    req_cls = 10
    arrivals = _stream([("AMS-SYD", req_cls)])
    _, rev_no, rev_ds = replay(arrivals, _open_policy(5), {"AMS-SYD": AMS_SYD}, 5)
    assert rev_ds == 447.0
    assert rev_no == 498.0
    assert rev_no - rev_ds == 51.0


def test_downsell_never_books_above_willingness():
    # Close every class at or below (cheaper than) class 5; a class-5
    # customer must not be bumped up into classes 1-4.
    limits = [5.0] * 4 + [0.0] * (N_CLASSES - 4)
    policy = Policy(limits=tuple(limits), protections=tuple([0.0] * (N_CLASSES - 1)))
    arrivals = _stream([("AMS-SYD", 5)])
    sold, _, revenue = replay(arrivals, policy, {"AMS-SYD": AMS_SYD}, 5)
    assert sold == 0 and revenue == 0.0


def test_revenue_monotone_in_capacity():
    scenario = _scenario(capacity=60, demand_factor_mean=1.5, seed=11)
    arrivals = generate_arrivals(scenario, rep_seed=99)
    revs = []
    for cap in (10, 20, 40, 80):
        _, _, rev = replay(arrivals, _open_policy(cap), {"AMS-SYD": AMS_SYD}, cap)
        revs.append(rev)
    assert all(a <= b for a, b in zip(revs, revs[1:]))


def test_arrivals_sorted_and_deterministic():
    scenario = _scenario(seed=5)
    a1 = generate_arrivals(scenario, rep_seed=42)
    a2 = generate_arrivals(scenario, rep_seed=42)
    for name in ("time", "od", "willingness_class"):
        assert getattr(a1, name).tolist() == getattr(a2, name).tolist()
    assert (np.diff(a1.time) >= 0).all()
    assert ((1 <= a1.willingness_class) & (a1.willingness_class <= N_CLASSES)).all()


# Beta(a, b) of the brand-skewed arrival time, by fare brand.
_BRAND_BETA = {1: (2.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 2.0)}


def _arrivals_oracle(scenario, rep_seed):
    """The per-request scalar form of the arrival draws: the same demand
    factor and OD draws as `generate_arrivals`, then one rng call per
    request for each of brand, class, cheap-early test and time."""
    rng = np.random.default_rng(rep_seed)
    factor = max(0.0, rng.normal(scenario.demand_factor_mean, scenario.demand_factor_sd))
    volume = int(round(scenario.capacity * factor))
    if volume == 0:
        return []

    od_names = [od.name for od in scenario.ods]
    weights = np.array([od.mean_demand for od in scenario.ods], dtype=float)
    weights = weights / weights.sum()
    od_idx = rng.choice(len(od_names), size=volume, p=weights)

    requests = []
    for i in range(volume):
        od = scenario.ods[od_idx[i]]
        brand = 1 + rng.choice(3, p=np.array(od.mix.shares))
        cls = int(rng.choice(FARE_BRANDS[brand]))
        if rng.random() < scenario.cheap_early_prob:
            a, b = _BRAND_BETA[brand]
            t = float(rng.beta(a, b))
        else:
            t = float(rng.random())
        requests.append((t, od.name, cls))
    requests.sort(key=lambda r: r[0])
    return requests


N_ORACLE_SEEDS = 300


def test_arrivals_match_scalar_oracle_and_analytic_rates():
    scenario, _ = _fixture_flight(42)
    streams = [generate_arrivals(scenario, seed) for seed in range(N_ORACLE_SEEDS)]
    for seed, arrivals in enumerate(streams):
        oracle = _arrivals_oracle(scenario, seed)
        assert len(arrivals) == len(oracle)
        assert sorted(arrivals.od.tolist()) == sorted(od for _, od, _ in oracle)
        assert (np.diff(arrivals.time) >= 0).all()

    # Pooled over every replication, each (OD, class) count and each brand's
    # mean arrival time lie within 4 standard errors of their analytic values.
    ods = np.concatenate([a.od for a in streams])
    classes = np.concatenate([a.willingness_class for a in streams])
    times = np.concatenate([a.time for a in streams])
    n = len(ods)
    total_demand = sum(od.mean_demand for od in scenario.ods)
    for od in scenario.ods:
        for brand, brand_classes in FARE_BRANDS.items():
            p = od.mean_demand / total_demand * od.mix.brand_share(brand) / len(brand_classes)
            for cls in brand_classes:
                count = int(((ods == od.name) & (classes == cls)).sum())
                assert abs(count - n * p) <= 4 * np.sqrt(n * p * (1 - p)) + 1e-9, (od.name, cls)
    q = scenario.cheap_early_prob
    for brand, (a, b) in _BRAND_BETA.items():
        in_brand = np.isin(classes, FARE_BRANDS[brand])
        beta_mean = a / (a + b)
        beta_sq = a * b / ((a + b) ** 2 * (a + b + 1)) + beta_mean**2
        mean = q * beta_mean + (1 - q) / 2
        sd = np.sqrt(q * beta_sq + (1 - q) / 3 - mean**2)
        assert abs(times[in_brand].mean() - mean) <= 4 * sd / np.sqrt(in_brand.sum()), brand


@pytest.mark.parametrize("brand", sorted(FARE_BRANDS))
def test_zero_share_brand_never_drawn(brand):
    shares = [0.3, 0.3, 0.4]
    shares[brand - 1] = 0.0
    base = _scenario(capacity=200, seed=1)
    scenario = replace(base, ods=[replace(od, mix=DemandMix(tuple(shares))) for od in base.ods])
    drawn = np.concatenate([generate_arrivals(scenario, seed).willingness_class
                            for seed in range(50)])
    assert not np.isin(drawn, FARE_BRANDS[brand]).any()
    others = [c for b, cs in FARE_BRANDS.items() if b != brand for c in cs]
    assert set(drawn.tolist()) == set(others)


def test_zero_demand_factor_gives_empty_arrivals():
    scenario = _scenario(demand_factor_mean=0.0, demand_factor_sd=0.0)
    arrivals = generate_arrivals(scenario, rep_seed=1)
    assert len(arrivals) == 0
    assert len(arrivals.time) == len(arrivals.od) == len(arrivals.willingness_class) == 0
    assert replay(arrivals, _open_policy(50), {"AMS-SYD": AMS_SYD}, 50) == (0, 0.0, 0.0)


def _generate_arrivals_oracle(scenario, rep_seed):
    """`generate_arrivals` as it was before the scenario built its draw
    tables: each replication builds them, and `rng.choice` draws the ODs."""
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
    cls = simulate._BRAND_FIRST[brand] + rng.integers(0, simulate._BRAND_SIZE[brand])
    skew = rng.random(volume) < scenario.cheap_early_prob
    time = np.where(skew, rng.beta(simulate._BETA_A[brand], simulate._BETA_B[brand]),
                    rng.random(volume))
    order = np.argsort(time, kind="stable")
    return Arrivals(time[order], od_names[od_idx[order]], cls[order])


def _assert_arrivals_equal_oracle(scenario, rep_seeds):
    for seed in rep_seeds:
        got = generate_arrivals(scenario, seed)
        want = _generate_arrivals_oracle(scenario, seed)
        assert got.time.tobytes() == want.time.tobytes(), seed
        assert got.od.tolist() == want.od.tolist(), seed
        assert got.willingness_class.dtype == want.willingness_class.dtype
        assert got.willingness_class.tobytes() == want.willingness_class.tobytes(), seed


def _od_scenario(weights, **kw) -> SimScenario:
    """A 50-seat flight with one OD per mean demand in `weights`."""
    base = _scenario().ods[0]
    ods = [replace(base, name=f"OD{i}", mean_demand=float(w)) for i, w in enumerate(weights)]
    return SimScenario(capacity=50, ods=ods, **kw)


def test_arrivals_equal_choice_oracle_on_fixture_flights(fixture_flight):
    scenario, _ = fixture_flight
    _assert_arrivals_equal_oracle(scenario, range(N_ORACLE_SEEDS))


@pytest.mark.parametrize("scenario", [
    _scenario(),
    _od_scenario([0.0, 30.0, 0.0, 10.0, 0.0]),
    *[replace(_scenario(), ods=[replace(_scenario().ods[0], mix=DemandMix(shares))])
      for shares in ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))],
    _scenario(cheap_early_prob=0.0),
    _scenario(cheap_early_prob=1.0),
    _scenario(demand_factor_mean=0.0, demand_factor_sd=0.0),
    _od_scenario([0.1, 0.2, 0.3]),  # the normalized weights sum to 1 - 2**-53
], ids=["one_od", "zero_demand_ods", "no_brand_1", "no_brand_2", "no_brand_3",
        "never_early", "always_early", "empty", "cumsum_below_1"])
def test_arrivals_equal_choice_oracle(scenario):
    _assert_arrivals_equal_oracle(scenario, range(100))


def _weights_on_draw(u):
    """Three OD weights for which the CDF `Generator.choice` builds has its
    first boundary exactly at u, while the plain cumsum of the normalized
    weights lies above u there (so that cumsum ends above 1): a uniform of
    exactly u picks the second OD only under `side="right"` and with the
    renormalization. None if no first weight within 64 ulps of u gives that."""
    for frac in np.linspace(0.05, 0.95, 19):
        for k in range(-64, 65):
            weights = np.array([u + k * np.spacing(u), (1 - u) * frac, (1 - u) * (1 - frac)])
            cumsum = (weights / weights.sum()).cumsum()
            if cumsum[0] / cumsum[-1] == u < cumsum[0]:
                return weights
    return None


def test_arrivals_equal_choice_oracle_on_cdf_boundaries():
    # A uniform that falls on a CDF boundary is where searchsorted's side and
    # the CDF's renormalization show; random weights almost never meet one.
    # Each case places the first OD draw of a replication on a boundary.
    base = _od_scenario([1.0])
    cases = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)  # generate_arrivals' draws up to the ODs'
        factor = max(0.0, rng.normal(base.demand_factor_mean, base.demand_factor_sd))
        weights = _weights_on_draw(rng.random(int(round(base.capacity * factor)))[0])
        if weights is None:
            continue
        cases += 1
        _assert_arrivals_equal_oracle(_od_scenario(weights), [seed])
    assert cases >= 10


# ----------------------------------------------------------------- comparison

def _compare_oracle(scenario, policy_std, policy_xgb):
    """`compare_policies` with four replays per replication, one per
    (downsell setting, policy), each through `_replay_oracle`."""
    ladders = {od.name: od.ladder for od in scenario.ods}
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
    per_rep = {(ds, m): [] for ds in (False, True) for m in ("std", "xgb")}
    bookings = {key: [] for key in per_rep}
    for rep_seq in seeds:
        arrivals = generate_arrivals(scenario, int(rep_seq.generate_state(1)[0]))
        for ds in (False, True):
            for method, policy in (("std", policy_std), ("xgb", policy_xgb)):
                sold, revenue = _replay_oracle(arrivals, policy, ladders, scenario.capacity, ds)
                per_rep[(ds, method)].append(revenue)
                bookings[(ds, method)].append(sold)

    mean_revenue = {key: float(np.mean(revs)) for key, revs in per_rep.items()}
    gain_pct = {}
    gain_ci = {}
    for ds in (False, True):
        std = np.array(per_rep[(ds, "std")])
        diff = np.array(per_rep[(ds, "xgb")]) - std
        base = std.mean()
        gain_pct[ds] = float(diff.mean() / base * 100.0) if base > 0 else 0.0
        se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
        gain_ci[ds] = (float(diff.mean() - 1.96 * se), float(diff.mean() + 1.96 * se))
    return ComparisonReport(mean_revenue, gain_pct, gain_ci, per_rep, bookings)


@pytest.mark.parametrize("n_reps", [1, 2, 50])
def test_comparison_equals_four_replay_oracle(fixture_flight, n_reps, monkeypatch):
    scenario, labels = fixture_flight
    scenario = replace(scenario, n_reps=n_reps)
    # The history policy and the policy built from forecast-day labels.
    policy_std, policy_xgb = [
        optimize_policy(*aggregate_class_forecasts(scenario, probs)[:2], scenario.capacity,
                        scenario.demand_cv)
        for probs in (None, labels)
    ]
    calls = []

    def counted_replay(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(simulate, "replay", counted_replay)
    report = compare_policies(scenario, policy_std, policy_xgb)
    assert len(calls) == 2 * n_reps
    oracle = _compare_oracle(scenario, policy_std, policy_xgb)
    for name in ("mean_revenue", "gain_pct", "gain_ci95", "per_rep", "bookings"):
        assert getattr(report, name) == getattr(oracle, name), name
    assert policy_std != policy_xgb and report.gain_pct[False] != 0.0


def test_identical_policies_gain_exactly_zero():
    scenario = _scenario(capacity=30, n_reps=20, seed=9)
    policy = _open_policy(30)
    report = compare_policies(scenario, policy, policy)
    for ds in (False, True):
        assert report.gain_pct[ds] == 0.0
        assert report.gain_ci95[ds] == (0.0, 0.0)
        assert report.per_rep[(ds, "std")] == report.per_rep[(ds, "xgb")]


def test_comparison_report_csv(tmp_path):
    scenario = _scenario(capacity=25, n_reps=5, seed=2)
    report = compare_policies(scenario, _open_policy(25), _open_policy(25))
    out = tmp_path / "sim.csv"
    report.to_csv(out, header_comment="seed=2")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1].startswith("downsell,std,xgb,gain_pct")
    assert lines[2].startswith("No,") and lines[3].startswith("Yes,")
    log = tmp_path / "reps.csv"
    report.write_replication_log(log)
    log_lines = log.read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "rep,downsell,method,revenue,bookings"
    assert len(log_lines) == 1 + 5 * 4
    # Open policies on 25 seats book min(requests, 25), and the log says so.
    seeds = np.random.SeedSequence(2).spawn(5)
    volumes = [len(generate_arrivals(scenario, int(s.generate_state(1)[0]))) for s in seeds]
    for line in log_lines[1:]:
        rep, ds, method, revenue, sold = line.split(",")
        assert int(sold) == report.bookings[(ds == "Yes", method)][int(rep)]
        assert int(sold) == min(volumes[int(rep)], 25)
        assert f"{report.per_rep[(ds == 'Yes', method)][int(rep)]:.2f}" == revenue


# ------------------------------------------------------------- scenario files

def test_scenario_roundtrip(tmp_path):
    scenario = replace(_scenario(capacity=44, n_reps=77, seed=13, demand_factor_mean=0.95),
                       forecast_day=6)
    path = tmp_path / "scenario.ini"
    write_scenario(scenario, path)
    back = read_scenario(path)
    assert back.capacity == 44
    assert back.n_reps == 77
    assert back.seed == 13
    assert back.demand_factor_mean == pytest.approx(0.95)
    assert back.forecast_day == 6
    assert len(back.ods) == 1
    od0, od1 = scenario.ods[0], back.ods[0]
    assert od1.name == od0.name
    assert od1.ladder.fares == od0.ladder.fares
    assert od1.mix.shares == pytest.approx(od0.mix.shares)
    assert od1.history == pytest.approx(od0.history)
    assert od1.covered is True


def test_scenario_missing_keys_take_dataclass_defaults(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\ncapacity = 12\n\n"
        "[od:AMS-SYD]\nfares = " + ",".join(str(f) for f in range(600, 0, -50)) + "\n"
        "brand_mix = 0.2,0.3,0.5\n"
        "mean_demand = 40\nhistory = 38,41,40\n",
        encoding="utf-8",
    )
    back = read_scenario(path)
    expected = SimScenario(capacity=12, ods=back.ods)
    assert back == expected
    assert back.forecast_day is None
    (od,) = back.ods
    assert od.name == "AMS-SYD" and od.covered is False


def test_scenario_covered_true_reads_as_covered(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\ncapacity = 12\n\n"
        "[od:AMS-SYD]\nfares = " + ",".join(str(f) for f in range(600, 0, -50)) + "\n"
        "brand_mix = 0.2,0.3,0.5\nmean_demand = 40\nhistory = 38,41,40\ncovered = true\n",
        encoding="utf-8",
    )
    (od,) = read_scenario(path).ods
    assert od.covered is True
