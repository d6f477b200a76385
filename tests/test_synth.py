"""Synthetic corpus: determinism, prevalence, and scenario wiring."""

from __future__ import annotations

import io
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from farecast import cli, synth
from farecast.ingest import (
    DATASETS, ItineraryRecord, empty_columns, parse_dataset, serialize_dataset,
)
from farecast.synth import (
    COVERED_BRAND_MIX,
    COVERED_DEMAND_SHARE,
    COVERED_FARE_LADDERS,
    COVERED_ODS,
    FIXTURE_ODS,
    FIXTURE_SEED,
    ArchetypeSpec,
    MarketData,
    fixture_markets,
    fixture_scenario,
    generate_market,
    standard_fixture,
)
from oracles import assert_markets_equal


def test_fixture_layout():
    assert len(FIXTURE_ODS) == 10
    names = [od for od, _, _ in FIXTURE_ODS]
    assert len(set(names)) == 10
    assert set(COVERED_ODS) <= set(names)
    archetypes = {a for _, a, _ in FIXTURE_ODS}
    assert archetypes == {"price", "schedule", "comfort"}


def test_market_regeneration_is_identical():
    spec = ArchetypeSpec(od="AAA-BBB", archetype="price", n_airlines=3)
    m1 = generate_market(spec, seed=17)
    m2 = generate_market(spec, seed=17)
    assert_markets_equal(m1, m2)
    m3 = generate_market(spec, seed=18)
    assert m3.bookings != m1.bookings


def test_prevalence_near_target():
    for od, archetype, n_air in FIXTURE_ODS[:4]:
        spec = ArchetypeSpec(od=od, archetype=archetype, n_airlines=n_air)
        market = generate_market(spec, seed=99)
        labels = [r.is_bought for r in market.bookings]
        prev = sum(labels) / len(labels)
        assert 0.15 <= prev <= 0.26, f"{od}: prevalence {prev:.3f}"


def test_standard_fixture_scenario():
    markets, scenario = standard_fixture(seed=42)
    assert set(markets) == {od for od, _, _ in FIXTURE_ODS}
    assert scenario.forecast_day is not None
    assert scenario.demand_factor_mean == pytest.approx(0.98)
    assert scenario.demand_factor_sd == pytest.approx(0.1)
    assert scenario.n_reps == 500

    by_name = {od.name: od for od in scenario.ods}
    covered_total = sum(od.mean_demand for od in scenario.ods if od.covered)
    total = sum(od.mean_demand for od in scenario.ods)
    assert covered_total / total == pytest.approx(COVERED_DEMAND_SHARE, abs=0.02)
    for name in COVERED_ODS:
        od = by_name[name]
        assert od.covered
        assert od.ladder.fares == COVERED_FARE_LADDERS[name]
        raw = COVERED_BRAND_MIX[name]
        assert od.mix.shares == pytest.approx(tuple(s / sum(raw) for s in raw), abs=1e-9)
        assert len(od.history) >= 2
    assert scenario.capacity == round(total / 0.98)


def test_standard_fixture_deterministic():
    m1, s1 = standard_fixture(seed=42)
    m2, s2 = standard_fixture(seed=42)
    for od in m1:
        assert_markets_equal(m1[od], m2[od])
    assert [o.history for o in s1.ods] == [o.history for o in s2.ods]
    assert s1.capacity == s2.capacity


def test_bad_archetype_rejected():
    with pytest.raises(ValueError):
        generate_market(ArchetypeSpec(od="X-Y", archetype="luxury"), seed=1)


def test_streamed_markets_and_scenario_equal_the_standard_fixture(pipeline):
    """pipeline holds standard_fixture() at the default seed."""
    markets = fixture_markets(FIXTURE_SEED)
    day_demand = {}
    for (od, data), (want_od, want) in zip(markets, pipeline.markets.items(), strict=True):
        assert od == want_od
        assert_markets_equal(data, want)
        day_demand[od] = data.true_day_demand
    assert list(day_demand) == [od for od, _, _ in FIXTURE_ODS]
    assert fixture_scenario(FIXTURE_SEED, day_demand) == pipeline.scenario


def _cheap_market(spec: ArchetypeSpec, seed: int) -> MarketData:
    """A stand-in for generate_market with 400 fare rows, as columns, and 100
    bookings, each a new record, per airline, and no rng draws."""
    n, od, n_air = 400 * spec.n_airlines, spec.od, spec.n_airlines
    i = np.arange(n)
    fares = {"od": [od] * n, "airline_id": 1 + i % n_air, "dep_day_id": 1000 + 7 * (i % 14),
             "dbd": -1 - i % 75, "dep_time_mam": 37 * i % 1440, "travel_time": 1.0 + i % 13 / 8,
             "price": 100.0 + i / 4}
    bookings = [ItineraryRecord(od, 1 + i % n_air, 1000 + 7 * (i % 14), -1 - i % 40,
                                37 * i % 1440, 1.0 + i % 13 / 8, 100.0 + i / 4, i % 5 == 0)
                for i in range(n // 4)]
    demand = {1000 + 7 * d: 1.0 + d + seed % 7 for d in range(14)}
    return MarketData(bookings=bookings, fares=fares, true_day_demand=demand)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_peak_memory_is_bounded_by_one_market(tmp_path, monkeypatch):
    """tracemalloc's peak in `farecast synth`, as a multiple of the peak of
    generating and writing its largest market alone. Markets come from a
    cheap stand-in: generate_market itself runs about 25 times slower under
    tracemalloc, about 30 s for the ten markets. Writing each market before
    the next is generated measured 1.12 (Python 3.11, numpy 2.4); holding
    all ten markets first, as standard_fixture does, measured 2.58 (4.14
    while the stand-in's fares were records). The bound is 1.12 plus a
    margin of 0.38."""
    monkeypatch.setattr(synth, "generate_market", _cheap_market)
    with redirect_stdout(io.StringIO()):
        peak = _traced_peak(lambda: cli.main(["synth", "--out", str(tmp_path / "all")]))
    largest = max(FIXTURE_ODS, key=lambda spec: spec[2])

    def largest_alone():
        data = _cheap_market(ArchetypeSpec(*largest), seed=0)
        for kind in DATASETS:
            serialize_dataset(getattr(data, kind), kind, tmp_path / "one" / f"{kind}.csv")

    alone = _traced_peak(largest_alone)
    # the stand-in was used: synth wrote the same fares as it
    assert (tmp_path / "all" / largest[0] / "fares.csv").read_bytes() == \
        (tmp_path / "one" / "fares.csv").read_bytes()
    assert peak / alone < 1.5, f"synth peak {peak} bytes, largest market alone {alone}"


@pytest.mark.parametrize("kind", DATASETS)
def test_market_datasets_round_trip_through_their_files(tmp_path, kind):
    """Each dataset generate_market holds is what parsing the file
    serialize_dataset writes from it gives: for bookings the same records,
    for the other kinds the same fields in schema order, dtypes and values;
    an empty MarketData holds the columns of a file without rows."""
    i = [od for od, _, _ in FIXTURE_ODS].index("KUL-SIN")
    data = generate_market(ArchetypeSpec(*FIXTURE_ODS[i]), seed=FIXTURE_SEED + 1000 * (i + 1))
    assert len(data.fares["price"]) == 14 * 75 * 3  # days x dbds x KUL-SIN's itineraries
    serialize_dataset(getattr(data, kind), kind, tmp_path / f"{kind}.csv")
    parsed = parse_dataset(tmp_path / f"{kind}.csv", kind)
    assert parsed.rejected == [] and parsed.n_accepted > 0
    if kind == "bookings":
        assert parsed.records == data.bookings
    else:
        assert_markets_equal(MarketData(**{kind: parsed.columns}),
                             MarketData(**{kind: getattr(data, kind)}))
        assert_markets_equal(MarketData(), MarketData(**{kind: empty_columns(kind)}))


def test_one_market_holds_its_fares_as_columns():
    """tracemalloc's memory held by one generated market (LHR-JFK at the
    fixture seed: 2,100 fare rows, 562 bookings), after a first untraced
    call has made numpy's and the package's lazy state. With the fares as
    columns it measured 254,595 bytes (Python 3.11, numpy 2.4); with one
    FareObservation record per fare row, and records without slots, it was
    544,387 bytes. The bound is the measured value plus a margin of 100,000
    bytes."""
    i = [od for od, _, _ in FIXTURE_ODS].index("LHR-JFK")
    spec, seed = ArchetypeSpec(*FIXTURE_ODS[i]), FIXTURE_SEED + 1000 * (i + 1)
    generate_market(spec, seed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        market = generate_market(spec, seed)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(market.fares["price"]) == 2100 and len(market.bookings) == 562
    assert held < 254_595 + 100_000, f"one market holds {held} bytes"
