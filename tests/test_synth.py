"""Synthetic corpus: determinism, prevalence, and scenario wiring."""

from __future__ import annotations

import concurrent.futures
import errno
import io
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from farecast import cli, synth
from farecast.config import write_scenario
from farecast.ingest import (
    DATASETS, SCHEMAS, ItineraryRecord, empty_columns, parse_dataset, serialize_dataset,
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
    fixture_scenario,
    map_fixture_markets,
    generate_market,
    standard_fixture,
)
from oracles import assert_markets_equal, fixture_markets, reference_market


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


@pytest.mark.parametrize("n_airlines", [2.5, 2.0, True, "3", None, np.bool_(True)])
def test_non_integer_airline_count_rejected(n_airlines):
    """A float, even a whole one, a bool and a non-number are refused with
    the value named, before generate_market could fail on them."""
    with pytest.raises(ValueError, match=f"n_airlines {n_airlines!r} is not an integer"):
        ArchetypeSpec(od="X-Y", archetype="price", n_airlines=n_airlines)


def test_numpy_integer_airline_count_accepted():
    with pytest.raises(ValueError, match="at least 2 airlines"):
        ArchetypeSpec(od="X-Y", archetype="price", n_airlines=np.int64(1))
    assert_markets_equal(
        generate_market(ArchetypeSpec(od="X-Y", archetype="price", n_airlines=np.int64(3)), 5),
        generate_market(ArchetypeSpec(od="X-Y", archetype="price", n_airlines=3), 5))


@pytest.mark.parametrize("seed", [FIXTURE_SEED, 1, 7])
def test_fixture_markets_equal_the_reference_draws(seed, pipeline):
    """Every fixture market, as oracles.reference_market draws it with
    rng.uniform, rng.normal and one rng.integers call per word list; this
    also compares true_day_demand. pipeline holds the FIXTURE_SEED ones."""
    markets = pipeline.markets.items() if seed == FIXTURE_SEED else fixture_markets(seed)
    for i, (od, data) in enumerate(markets):
        spec = ArchetypeSpec(*FIXTURE_ODS[i])
        assert_markets_equal(data, reference_market(spec, seed + 1000 * (i + 1)))


@pytest.mark.parametrize("od", ["AMS-SYD", "AMS-FRA"])  # long-haul, short-haul
@pytest.mark.parametrize("n_airlines", [2, 9])
@pytest.mark.parametrize("archetype", ["price", "schedule", "comfort"])
def test_market_equals_the_reference_draws(archetype, n_airlines, od):
    spec = ArchetypeSpec(od=od, archetype=archetype, n_airlines=n_airlines)
    assert_markets_equal(generate_market(spec, 11), reference_market(spec, 11))


# The numpy identities generate_market's draws rest on. Each draws from one
# stream through the plain numpy call and from a twin stream through the
# cheaper call synth makes, with other draws in between (a lone bounded
# integer leaves half a 64-bit draw buffered), and needs equal values and
# equal generator states after.

def _twin_streams(seed: int):
    """The stream, its twin, and a third generator for the calls' arguments."""
    return (np.random.default_rng(seed), np.random.default_rng(seed),
            np.random.default_rng([seed, 1]))


def _other_draws(rng: np.random.Generator, k: int) -> list:
    """The first k of a double, a bounded integer and a normal."""
    draws = (rng.random, lambda: int(rng.integers(0, 7)), rng.standard_normal)
    return [draw() for draw in draws[:k]]


def test_uniform_is_low_plus_range_times_random():
    for seed in range(300):
        rng, twin, args = _twin_streams(seed)
        for k in range(4):
            low = float(args.uniform(-500, 500)) if k % 2 else int(args.integers(-500, 500))
            high = low + (float(args.uniform(0, 100)) if k else int(args.integers(1, 100)))
            want = [_other_draws(rng, k), rng.uniform(low, high)]
            got = [_other_draws(twin, k), low + (high - low) * twin.random()]
            assert got == want, (seed, low, high)
        assert twin.bit_generator.state == rng.bit_generator.state, seed


def test_normal_is_loc_plus_scale_times_standard_normal():
    for seed in range(300):
        rng, twin, args = _twin_streams(seed)
        for k in range(4):
            loc, scale = float(args.uniform(-5, 5)), float(args.uniform(0, 100))
            want = [_other_draws(rng, k), rng.normal(loc, scale), rng.normal(0, scale)]
            got = [_other_draws(twin, k), loc + scale * twin.standard_normal(),
                   scale * twin.standard_normal()]
            assert got == want, (seed, loc, scale)
        assert twin.bit_generator.state == rng.bit_generator.state, seed


def test_integers_with_array_bounds_draw_as_one_call_per_word_list():
    lists = (synth._POSITIVE_WORDS, synth._NEGATIVE_WORDS, synth._FILLER)
    for seed in range(300):
        rng, twin, args = _twin_streams(seed)
        for k in range(4):
            n_pos, n_neg = args.integers(0, synth._WORDS_PER_SIDE + 1, size=2).tolist()
            want = [_other_draws(rng, k)] + [
                vocab[i] for vocab, n in zip(lists, (n_pos, n_neg, 3))
                for i in rng.integers(0, len(vocab), size=n).tolist()]
            got = [_other_draws(twin, k)] + [
                synth._VOCAB[i] for i in twin.integers(*synth._WORD_BOUNDS[n_pos][n_neg]).tolist()]
            assert got == want, (seed, n_pos, n_neg)
        assert twin.bit_generator.state == rng.bit_generator.state, seed


def _assert_same_markets(got: dict, want: dict) -> None:
    """Two fixtures' markets are equal field by field, in the same order,
    and every booking of `got` is an ItineraryRecord of Python values of
    its field's type."""
    assert list(got) == list(want)
    for od, data in got.items():
        assert_markets_equal(data, want[od])
        assert {type(b) for b in data.bookings} == {ItineraryRecord}
        for name, typ in SCHEMAS["bookings"][0].items():
            assert {type(getattr(b, name)) for b in data.bookings} == {typ}, (od, name)


def test_streamed_markets_and_scenario_equal_the_standard_fixture(pipeline):
    """pipeline holds standard_fixture() at the default seed, drawn in a
    pool wherever this process may run on more than one CPU."""
    markets = dict(fixture_markets(FIXTURE_SEED))
    assert list(markets) == [od for od, _, _ in FIXTURE_ODS]
    _assert_same_markets(pipeline.markets, markets)
    day_demand = {od: data.true_day_demand for od, data in markets.items()}
    assert fixture_scenario(FIXTURE_SEED, day_demand) == pipeline.scenario


@pytest.fixture(scope="module")
def sequential():
    """seed -> (fixture_markets(seed) drawn in this process, as a dict, and
    fixture_scenario of them); each seed is drawn once."""
    made = {}

    def get(seed):
        if seed not in made:
            markets = dict(fixture_markets(seed))
            day_demand = {od: data.true_day_demand for od, data in markets.items()}
            made[seed] = markets, fixture_scenario(seed, day_demand)
        return made[seed]

    return get


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("seed", [1, 7])
def test_standard_fixture_equals_the_sequential_markets(sequential, monkeypatch, seed, n_cpus):
    """standard_fixture(seed) on one CPU, where it starts no pool, and on
    two, where two workers send the markets back with their bookings as
    columns, holds the markets and scenario of drawing them in turn; no
    worker outlives the call."""
    want, want_scenario = sequential(seed)
    workers = _record_workers(monkeypatch, ProcessPoolExecutor)
    _set_cpus(monkeypatch, n_cpus)
    markets, scenario = standard_fixture(seed)
    assert workers == ([] if n_cpus == 1 else [2])
    assert multiprocessing.active_children() == []
    _assert_same_markets(markets, want)
    assert scenario == want_scenario


def _fixture_in_a_daemon(seed):
    """standard_fixture(seed) in this process, as seen with four CPUs; a
    multiprocessing.Pool worker, which is daemonic, runs it."""
    os.sched_getaffinity = lambda pid: set(range(4))
    return standard_fixture(seed)


def test_standard_fixture_in_a_pool_worker_draws_its_markets_in_turn(sequential):
    """A daemonic process may start no children, so there standard_fixture
    draws the markets in turn, as it does on one CPU; a pool there would
    raise."""
    with multiprocessing.Pool(1) as pool:
        markets, scenario = pool.apply_async(_fixture_in_a_daemon, (7,)).get(timeout=120)
        pool.close()
        pool.join()
    assert multiprocessing.active_children() == []
    want, want_scenario = sequential(7)
    _assert_same_markets(markets, want)
    assert scenario == want_scenario


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_standard_fixture_is_the_same_under_each_start_method(pipeline, method):
    """standard_fixture() in a process whose multiprocessing start method is
    `method`, with two CPUs so that it starts a pool, sends back the
    markets and scenario of the default start method (pipeline's)."""
    code = ("import multiprocessing, os, pickle, sys\n"
            "from farecast import synth\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.buffer.write(pickle.dumps(synth.standard_fixture()))\n")
    repo = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, method], capture_output=True, check=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(repo / "src"))).stdout
    markets, scenario = pickle.loads(out)
    _assert_same_markets(markets, pipeline.markets)
    assert scenario == pipeline.scenario


def _cheap_market(spec: ArchetypeSpec, seed: int) -> tuple[MarketData, dict]:
    """A stand-in for synth._draw_market with 400 fare rows and 100 bookings
    per airline, both as columns, and no rng draws."""
    n, od, n_air = 400 * spec.n_airlines, spec.od, spec.n_airlines
    i = np.arange(n)
    fares = {"od": [od] * n, "airline_id": 1 + i % n_air, "dep_day_id": 1000 + 7 * (i % 14),
             "dbd": -1 - i % 75, "dep_time_mam": 37 * i % 1440, "travel_time": 1.0 + i % 13 / 8,
             "price": 100.0 + i / 4}
    b = i[:n // 4]
    bookings = {"od": [od] * len(b), "airline_id": 1 + b % n_air,
                "dep_day_id": 1000 + 7 * (b % 14), "dbd": -1 - b % 40,
                "dep_time_mam": 37 * b % 1440, "travel_time": 1.0 + b % 13 / 8,
                "price": 100.0 + b / 4, "is_bought": b % 5 == 0}
    demand = {1000 + 7 * d: 1.0 + d + seed % 7 for d in range(14)}
    return MarketData(fares=fares, true_day_demand=demand), bookings


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _InProcessPool:
    """A pool that runs its tasks in this process and starts none."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_synth_peak_memory_is_bounded_by_one_market(tmp_path, monkeypatch):
    """tracemalloc's peak in `farecast synth`, as a multiple of the peak of
    generating and writing its largest market alone. Markets come from a
    cheap stand-in: generate_market itself runs about 25 times slower under
    tracemalloc, about 30 s for the ten markets. The pool runs its tasks in
    this process, so the trace covers what each worker holds as well as the
    parent, whatever the start method. Writing each market before the next
    is generated measured 1.07 (Python 3.11, numpy 2.4; 1.12 in the loop
    it replaced); holding all ten markets first, as standard_fixture does,
    measured 2.58 (4.14 while the stand-in's fares were records). The bound
    is 1.12 plus a margin of 0.38."""
    monkeypatch.setattr(synth, "_draw_market", _cheap_market)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    with redirect_stdout(io.StringIO()):
        peak = _traced_peak(lambda: cli.main(["synth", "--out", str(tmp_path / "all")]))
    largest = max(FIXTURE_ODS, key=lambda spec: spec[2])

    def largest_alone():
        data, bookings = _cheap_market(ArchetypeSpec(*largest), seed=0)
        for kind in DATASETS:
            columns = bookings if kind == "bookings" else getattr(data, kind)
            serialize_dataset(columns, kind, tmp_path / "one" / f"{kind}.csv")

    alone = _traced_peak(largest_alone)
    # the stand-in was used: synth wrote the same fares as it
    assert (tmp_path / "all" / largest[0] / "fares.csv").read_bytes() == \
        (tmp_path / "one" / "fares.csv").read_bytes()
    assert peak / alone < 1.5, f"synth peak {peak} bytes, largest market alone {alone}"


@pytest.fixture(scope="module")
def sequential_seed7(tmp_path_factory):
    """The files of `farecast synth --seed 7` written one market at a time
    in this process: serialize_dataset of each of fixture_markets(7), then
    write_scenario of fixture_scenario; and the run's booking count."""
    out = tmp_path_factory.mktemp("sequential")
    day_demand, n_rows = {}, 0
    for od, data in fixture_markets(7):
        for kind in DATASETS:
            serialize_dataset(getattr(data, kind), kind, out / od / f"{kind}.csv")
        day_demand[od] = data.true_day_demand
        n_rows += len(data.bookings)
    write_scenario(fixture_scenario(7, day_demand), out / "scenario.ini")
    return out, n_rows


def _files(root):
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def _record_workers(monkeypatch, pool):
    """Make the pool `map_fixture_markets` imports a subclass of `pool` that records
    each pool's worker count; the returned list holds them."""
    workers = []

    class Recording(pool):
        def __init__(self, max_workers, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return workers


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_synth_writes_the_bytes_of_a_sequential_run(tmp_path, monkeypatch, capsys,
                                                    sequential_seed7, n_cpus):
    """`farecast synth --seed 7` on one CPU, where it starts no pool, and on
    three (an uneven split of the ten markets), writes the files of writing
    the markets one at a time, byte for byte, and prints the same lines; no
    worker outlives the call."""
    want, n_rows = sequential_seed7
    workers = _record_workers(monkeypatch, ProcessPoolExecutor)
    _set_cpus(monkeypatch, n_cpus)
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--seed", "7"]) == 0
    assert workers == ([] if n_cpus == 1 else [n_cpus])
    assert multiprocessing.active_children() == []
    got, want = _files(out), _files(want)
    assert list(got) == list(want) and len(got) == 10 * len(DATASETS) + 1
    for name, path in got.items():
        assert path.read_bytes() == want[name].read_bytes(), name
    assert capsys.readouterr().out == (
        f"wrote 10 OD markets ({n_rows} labeled itineraries) to {out}\n"
        f"wrote flight scenario to {out / 'scenario.ini'}\n")


def test_synth_under_a_file_exits_2_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    """Each worker's OSError reaches the parent, which prints the first
    market's as before and exits 2, with every worker ended. The stand-in
    market reaches the workers only where they are forked; elsewhere they
    generate real markets, and fail the same way."""
    monkeypatch.setattr(synth, "_draw_market", _cheap_market)
    _set_cpus(monkeypatch, 2)
    a_file = tmp_path / "file"
    a_file.write_text("")
    out = a_file / "data"
    assert cli.main(["synth", "--out", str(out)]) == 2
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out / 'AMS-DXB'}'\n")
    assert a_file.read_text() == ""


def test_synth_stops_at_the_first_market_that_fails(tmp_path, monkeypatch, capsys,
                                                     sequential_seed7):
    """A write that fails partway through, at the fifth market, exits 2 with
    that market's error, as the sequential loop did. The four markets before
    it are written in full; markets already handed to a worker may be
    written too, and the rest are cancelled. No worker outlives the call."""
    want, _ = sequential_seed7
    _set_cpus(monkeypatch, 2)
    out = tmp_path / "data"
    blocker = out / FIXTURE_ODS[4][0]
    out.mkdir()
    blocker.write_text("")
    assert cli.main(["synth", "--out", str(out), "--seed", "7"]) == 2
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{blocker}'\n")
    assert blocker.read_text() == ""
    assert not (out / "scenario.ini").exists()
    got, want = _files(out), _files(want)
    for od, _, _ in FIXTURE_ODS[:4]:
        for kind in DATASETS:
            name = f"{od}/{kind}.csv"
            assert got[name].read_bytes() == want[name].read_bytes(), name


class _BrokenPool(_InProcessPool):
    """A pool one of whose workers was killed."""

    def map(self, fn, *iterables):
        raise BrokenProcessPool("a worker was killed")


def test_synth_with_a_killed_worker_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BrokenPool)
    _set_cpus(monkeypatch, 2)
    assert cli.main(["synth", "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == "error: synth: a worker was killed\n"


def test_synth_starts_at_most_one_worker_per_cpu_and_per_market(monkeypatch):
    workers = _record_workers(monkeypatch, _InProcessPool)
    for n_cpus in (1, 2, 9, 10, 11, 64):
        _set_cpus(monkeypatch, n_cpus)
        assert list(map_fixture_markets(divmod, 3)) == [divmod(i, 3) for i in range(10)]
    assert workers == [2, 9, 10, 10, 10]


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    """Where the platform has no affinity mask, the machine's CPU count, or
    one worker when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert synth._cpu_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert synth._cpu_count() == 1


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
