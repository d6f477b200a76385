"""Competitive-pricing features, rolling windows, aggregates, and assembly."""

from __future__ import annotations

import csv
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farecast import cli, features, synth
from farecast.config import RunConfig
from farecast.features import (
    AGGREGATE_COLUMNS,
    ALL_COLUMNS,
    FeatureTable,
    MODEL_FEATURES,
    ROLL_REFS,
    ROLL_STATS,
    ROLL_WINDOWS,
    airline_widebody_flags,
    assemble_feature_vectors,
    build_airline_aggregates,
)
from farecast.ingest import (
    CSV_BLOCK_ROWS,
    ItineraryRecord,
    DATASETS,
    ParseError,
    empty_columns,
    filter_tweets,
    parse_dataset,
    serialize_dataset,
)
from farecast.sentiment import load_default_lexicon
from oracles import (
    WORKED_FARES,
    FareRow,
    columns_of_rows,
    bucket_t,
    diff_series,
    fare_differences,
    fixture_market,
    market_reference_fares,
    read_both_ways,
    read_csv,
    rolling_price_features,
    table_bits,
)


def test_worked_example_reference_fares():
    refs = market_reference_fares(WORKED_FARES[-103])
    assert (refs.yy_fare, refs.yy_airline) == (450, 1)
    assert (refs.xx_fare, refs.xx_airline) == (500, 3)
    refs = market_reference_fares(WORKED_FARES[-100])
    assert (refs.yy_fare, refs.yy_airline) == (300, 4)
    assert (refs.xx_fare, refs.xx_airline) == (450, 1)


def test_worked_example_is_cheapest_flags():
    expected = {-103: True, -102: True, -101: False, -100: False}
    for dbd, want in expected.items():
        refs = market_reference_fares(WORKED_FARES[dbd])
        cheap, _, _ = fare_differences(WORKED_FARES[dbd][1], refs.yy_fare, refs.xx_fare)
        assert cheap is want


def test_worked_example_rolling_means():
    yy = diff_series(WORKED_FARES, 1, "yy")
    xx = diff_series(WORKED_FARES, 1, "xx")
    mean_yy, _, _, _ = rolling_price_features(yy, -100, 3)
    mean_xx, _, _, _ = rolling_price_features(xx, -100, 3)
    assert mean_yy == 30
    assert mean_xx == -25


def test_worked_example_through_assembly():
    fares = [
        FareRow(od="AAA-BBB", airline_id=a, dep_day_id=1, dbd=dbd,
                dep_time_mam=600, travel_time=2.0, price=float(price))
        for dbd, by_airline in WORKED_FARES.items() for a, price in by_airline.items()
    ]
    booking = ItineraryRecord(od="AAA-BBB", airline_id=1, dep_day_id=1, dbd=-100,
                              dep_time_mam=600, travel_time=2.0, price=450.0, is_bought=True)
    table = assemble_feature_vectors([booking], columns_of_rows("fares", fares), {})
    assert table.column("mean3d_yy")[0] == 30
    assert table.column("mean3d_xx")[0] == -25
    assert table.column("mkt_fare")[0] == 300
    assert table.column("is_cheapest")[0] == 0


def test_equal_fares_make_xx_equal_yy():
    refs = market_reference_fares({1: 450, 2: 450})
    assert refs.yy_fare == refs.xx_fare == 450
    assert (refs.yy_airline, refs.xx_airline) == (1, 2)


def test_all_airlines_equal_fare():
    refs = market_reference_fares({1: 100, 2: 100, 3: 100})
    assert refs.yy_fare == refs.xx_fare == 100


def test_single_airline_has_no_xx():
    refs = market_reference_fares({7: 320.0})
    assert refs.xx_fare is None and refs.xx_airline is None
    cheap, yy, xx = fare_differences(320.0, refs.yy_fare, refs.xx_fare)
    assert cheap and yy == 0 and xx is None


def test_empty_market_raises():
    with pytest.raises(ValueError):
        market_reference_fares({})


def test_rolling_requires_full_prior_window():
    series = {-4: 1.0, -3: 2.0, -2: 3.0}
    assert rolling_price_features(series, -1, 3) == (2.0, 1.0, 1.0, 3.0)
    # day -4 missing for t=-2's window, or any gap -> missing feature
    assert rolling_price_features(series, -2, 3) is None
    assert rolling_price_features({-3: 1.0, -1: 2.0}, 0, 3) is None
    # the current day must not leak into its own window
    assert rolling_price_features({**series, -1: 99.0}, -1, 3) == (2.0, 1.0, 1.0, 3.0)


def test_rolling_sd_uses_sample_denominator():
    series = {-3: 1.0, -2: 4.0, -1: 7.0}
    _, sd, _, _ = rolling_price_features(series, 0, 3)
    assert sd == pytest.approx(statistics.stdev([1.0, 4.0, 7.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rolling_brute_force_oracle(seed):
    """Random market vs a from-scratch recompute of every window statistic."""
    rng = np.random.default_rng(seed)
    n_air = int(rng.integers(2, 6))
    dbds = range(-40, 0)
    fares = {
        dbd: {a: float(rng.integers(50, 999)) for a in range(1, n_air + 1)}
        for dbd in dbds
        if rng.random() > 0.1  # some days unobserved
    }
    for a in range(1, n_air + 1):
        series = diff_series(fares, a, "yy")
        for dbd in dbds:
            for w in ROLL_WINDOWS:
                got = rolling_price_features(series, dbd, w)
                window = [series.get(d) for d in range(dbd - w, dbd)]
                if any(v is None for v in window):
                    assert got is None
                else:
                    mean = sum(window) / w
                    sd = statistics.stdev(window)
                    want = (mean, sd, min(window), max(window))
                    assert got == pytest.approx(want, abs=1e-9)


def test_bucket_t_groups_toward_minus_infinity():
    assert bucket_t(-1) == -10
    assert bucket_t(-10) == -10
    assert bucket_t(-11) == -20
    assert bucket_t(-100) == -100
    dbds = [-100, -11, -10, -9, -1, 0, 3, 10]
    bookings = [ItineraryRecord("AAA-BBB", 1, 1, dbd, 600, 2.0, 100.0, False) for dbd in dbds]
    table = assemble_feature_vectors(bookings, empty_columns("fares"), {})
    assert table.column("bucket_t").tolist() == [bucket_t(dbd) for dbd in dbds]


def test_aggregates_median_and_share():
    reviews = columns_of_rows("reviews", [
        (1, rec, "amazing crew", 3, 3, ife, 3, 3, 3, 2)
        for rec, ife in ((True, 2), (False, 4), (True, 5))])
    fleet = columns_of_rows("fleet", [
        (1, "77W", 100.0, "R1", 10.0),
        (1, "320", 50.0, "R2", 2.0),
        (1, "77W", 120.0, "R3", 6.0),
    ])
    safety = columns_of_rows("safety", [("A1", 0.02)])
    aggs = build_airline_aggregates(reviews, empty_columns("tweets"), safety, fleet,
                                    load_default_lexicon())
    a = aggs[1]
    assert a["rating_ife"] == 4.0
    assert a["rating_recommended"] == pytest.approx(2 / 3)
    assert a["rating_obs"] == 3
    assert a["rating_review"] == pytest.approx(9.0)  # only "amazing"=4 matches; 4 + 5 on the 0-10 scale
    assert a["safety_score"] == 0.02
    assert a["fleet_size"] == 3
    assert a["fleet_cost"] == pytest.approx(270.0)
    assert a["fleet_age"] == 6.0
    assert "twitter_sentiment" not in a


def test_aggregate_keys_are_the_aggregate_columns():
    i = [od for od, _, _ in synth.FIXTURE_ODS].index("KUL-SIN")
    _, data = fixture_market(i, synth.FIXTURE_SEED)
    aggs = build_airline_aggregates(
        data.reviews, filter_tweets(data.tweets), data.safety, data.fleet, load_default_lexicon()
    )
    assert set().union(*aggs.values()) == set(AGGREGATE_COLUMNS)
    assert len(AGGREGATE_COLUMNS) == 15


def test_widebody_flag_uses_dominant_type():
    fleet = columns_of_rows("fleet", [
        (1, "77W", 1.0, "a", 1.0),
        (1, "77W", 1.0, "b", 1.0),
        (1, "320", 1.0, "c", 1.0),
        (2, "320", 1.0, "d", 1.0),
    ])
    flags = airline_widebody_flags(fleet)
    assert flags == {1: True, 2: False}


def _tiny_market():
    bookings, fares = [], []
    for dbd in range(-8, 0):
        for a, base in ((1, 100.0), (2, 150.0)):
            fares.append(FareRow("XX-YY", a, 500, dbd, 360 if a == 1 else 720, 2.0, base + dbd))
    bookings.append(ItineraryRecord("XX-YY", 1, 500, -2, 360, 2.0, 98.0, True))
    bookings.append(ItineraryRecord("XX-YY", 2, 500, -1, 720, 2.0, 149.0, False))
    return bookings, columns_of_rows("fares", fares)


def test_assemble_preserves_rows_and_keys():
    bookings, fares = _tiny_market()
    table = assemble_feature_vectors(bookings, fares, {1: {}, 2: {}})
    assert len(table) == 2
    assert table.ods == ["XX-YY", "XX-YY"]
    assert list(table.column("airline_id")) == [1, 2]
    assert list(table.column("dbd")) == [-2, -1]
    # airline 1 is always cheapest in this market
    assert table.column("is_cheapest")[0] == 1.0
    assert table.column("is_cheapest")[1] == 0.0
    lo, hi = table.column("dept_delta")
    assert (lo, hi) == (0.0, 360.0)


def test_assemble_rolling_column_against_manual():
    bookings, fares = _tiny_market()
    table = assemble_feature_vectors(bookings, fares, {})
    # airline 2's yy diff is the constant 50, so every window statistic is flat
    row = 1
    assert table.column("mean3d_yy")[row] == pytest.approx(50.0)
    assert table.column("sd3d_yy")[row] == pytest.approx(0.0)
    assert table.column("min7d_yy")[row] == pytest.approx(50.0)
    # airline 1 self-movement: fare(t) - fare(t-1) = +1 every day
    assert table.column("mean3d_al")[0] == pytest.approx(1.0)


def test_rolling_windows_start_at_the_first_fare_dbd():
    """Complete fares for three airlines from dbd -40, as synth writes them.
    The yy and xx diffs exist from the first fare dbd, so a booking exactly w
    days after it has window w and no longer one; the day-over-day al diffs
    start a day later, and so do their windows. A booking on the first fare
    dbd has no window at all."""
    fares = columns_of_rows("fares", [
        ("AAA-BBB", a, 100, dbd, 300 * a, 2.0, 100.0 * a + (7 * a * dbd) % 13)
        for dbd in range(-40, 0) for a in (1, 2, 3)])
    first_diff = {"al": -39, "yy": -40, "xx": -40}
    dbds = [-40, *(-40 + w for w in ROLL_WINDOWS), *(-39 + w for w in ROLL_WINDOWS)]
    bookings = [ItineraryRecord("AAA-BBB", 2, 100, dbd, 600, 2.0, 200.0, False) for dbd in dbds]
    table = assemble_feature_vectors(bookings, fares, {})
    rolling = [f"{s}{w}d_{ref}" for ref in ROLL_REFS for w in ROLL_WINDOWS for s in ROLL_STATS]
    assert len(rolling) == 48
    assert np.isnan(table.values[0, [ALL_COLUMNS.index(c) for c in rolling]]).all()
    for i, dbd in enumerate(dbds):
        for ref in ROLL_REFS:
            for w in ROLL_WINDOWS:
                got = np.array([table.column(f"{s}{w}d_{ref}")[i] for s in ROLL_STATS])
                if dbd - w >= first_diff[ref]:
                    assert not np.isnan(got).any(), (dbd, ref, w)
                else:
                    assert np.isnan(got).all(), (dbd, ref, w)


def test_feature_csv_roundtrip_with_missing(tmp_path):
    bookings, fares = _tiny_market()
    table = assemble_feature_vectors(bookings, fares, {})
    path = tmp_path / "features.csv"
    table.to_csv(path, header_comment="config_hash=abc seed=1")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config_hash=abc seed=1\n")
    assert "_zz" in text.splitlines()[1] and "_xx" not in text.splitlines()[1]
    back = FeatureTable.from_csv(path)
    assert back.values.shape == (len(table), len(ALL_COLUMNS))
    assert back.ods == table.ods
    assert np.allclose(back.values, table.values, equal_nan=True)


def _set_cell(line: int, column: str, value: str):
    """An edit of a feature CSV's lines that sets one cell of `line` (1-based)."""
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[lines[1].split(",").index(column)] = value
        return lines[:line - 1] + [",".join(cells)] + lines[line:]
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 2)[0]] + lines[4:], "line 4: expected"),
    (lambda lines: lines[:2] + [lines[2].replace("XX-YY,1,", "XX-YY,one,", 1)] + lines[3:],
     "line 3: could not convert string to float: 'one'"),
    (lambda lines: ["price,od"] + lines[2:], "header must start with an 'od' column"),
    (lambda lines: ["od,price,is_bought", "XX-YY,100,1"], "header is not the feature table's"),
    (_set_cell(4, "airline_id", "nan"), "line 4: airline_id is nan"),
    (_set_cell(3, "price", "-NaN"), "line 3: price is nan"),
    (_set_cell(3, "price", "inf"), "line 3: price is infinite"),
    *[(_set_cell(4, "is_bought", v), f"line 4: is_bought must be 0 or 1, got '{v}'")
      for v in ("2", "0.5", "-1", "")],
])
def test_feature_csv_malformed_names_file_and_line(tmp_path, edit, message):
    bookings, fares = _tiny_market()
    path = tmp_path / "features.csv"
    assemble_feature_vectors(bookings, fares, {}).to_csv(path, header_comment="seed=1")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FeatureTable.from_csv(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


PRICE = 1 + ALL_COLUMNS.index("price")  # its cell in a features.csv row, after od


def _multi_block_table(n: int) -> FeatureTable:
    rng = np.random.default_rng(2)
    values = rng.normal(scale=100.0, size=(n, len(ALL_COLUMNS))).round(2)
    values[rng.random(values.shape) < 0.1] = math.nan
    values[:, ALL_COLUMNS.index("is_bought")] = rng.integers(0, 2, n)
    return FeatureTable(ods=[f"OD-{i % 3}" for i in range(n)], values=values)


def test_from_csv_across_blocks_equals_per_row_reader(tmp_path):
    path = tmp_path / "features.csv"
    _multi_block_table(2 * CSV_BLOCK_ROWS + 5).to_csv(path, header_comment="seed=1")
    rows = [row for _, row in read_csv(path)][1:]
    back = FeatureTable.from_csv(path)
    assert back.ods == [row[0] for row in rows]
    want = np.array([[float(c) if c else math.nan for c in row[1:]] for row in rows])
    np.testing.assert_array_equal(back.values, want)


def test_an_od_starting_with_hash_reads_back(tmp_path):
    """An od that starts with "#" is written quoted, so that its row reads
    back as data, not as a comment."""
    path = tmp_path / "features.csv"
    table = _multi_block_table(5)
    table.ods[1:4] = ["#AMS-LHR", "#", "AMS-#"]
    table.to_csv(path, header_comment="seed=1")
    back = FeatureTable.from_csv(path)
    assert back.ods == table.ods
    np.testing.assert_array_equal(back.values, table.values)


@pytest.mark.parametrize("row", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS],
                         ids=["last-of-first-block", "first-of-second-block"])
@pytest.mark.parametrize("fault, message", [
    (lambda cells: cells[:-1], f"expected {len(ALL_COLUMNS) + 1} fields, got {len(ALL_COLUMNS)}"),
    (lambda cells: cells[:2] + ["one"] + cells[3:], "could not convert string to float: 'one'"),
    (lambda cells: cells[:-1] + ["2"], "is_bought must be 0 or 1, got '2'"),
    (lambda cells: cells[:PRICE] + ["nan"] + cells[PRICE + 1:],
     "price is nan; a missing value is an empty cell"),
], ids=["field-count", "bad-cell", "is_bought", "literal-nan"])
def test_from_csv_fault_at_a_block_boundary_names_its_line(tmp_path, row, fault, message):
    path = tmp_path / "features.csv"
    _multi_block_table(2 * CSV_BLOCK_ROWS + 5).to_csv(path, header_comment="seed=1")
    lines = path.read_text(encoding="utf-8").splitlines()
    line = row + 3  # after the comment and the header
    lines[line - 1] = ",".join(fault(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FeatureTable.from_csv(path)
    assert str(exc.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize("faults, message", [
    ([(5, "price", "inf"), (9, "price", "one")], "line 5: price is infinite"),
    ([(5, "price", "one"), (9, "price", "inf")], "line 5: could not convert string to float: 'one'"),
    ([(5, "is_bought", "2"), (9, "dbd", "x,y")], "line 5: is_bought must be 0 or 1, got '2'"),
], ids=["infinite-first", "unreadable-first", "is_bought-first"])
def test_from_csv_names_the_first_faulty_line(tmp_path, faults, message):
    """Faults that the C parse reads and faults that it refuses are named by
    one reader, the row reader, so the first faulty line is named."""
    path = tmp_path / "features.csv"
    _multi_block_table(9).to_csv(path, header_comment="seed=1")
    lines = path.read_text(encoding="utf-8").splitlines()
    for line, column, cell in faults:
        lines = _set_cell(line, column, cell)(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FeatureTable.from_csv(path)
    assert str(exc.value) == f"{path}: {message}"


_CSV_COLUMNS = ["od"] + ALL_COLUMNS

# ({column: cell}, whether the C parse's table is kept): each edit is made to
# a few rows of a table, the od's cell as written in the file. A table with
# a fault that the C parse reads (a literal nan, an infinite cell, an empty
# is_bought) is read again by the row reader, which names the fault.
TABLE_EDITS = [
    ({"airline_id": ""}, True),
    ({name: "" for name in ALL_COLUMNS[10:17]}, True),
    ({"price": "-0.0", "travel_time": "1e-7"}, True),
    ({"price": "999999999999999", "mkt_fare": "1e16"}, True),
    ({"dbd": " 5 ", "dep_time_mam": "+5"}, True),
    ({"dep_day_id": "9223372036854775808", "airline_id": "5.0"}, True),
    ({"price": "nan"}, False),
    ({"mkt_fare": "-NaN"}, False),
    ({"price": "inf"}, False),
    ({"is_bought": ""}, False),
    ({"is_bought": "-0"}, True),
    ({"price": "1_000"}, False),
    ({"dbd": "٣"}, False),
    ({"dbd": "२"}, False),
    ({"od": "SÃO-LIS"}, False),
    ({"price": "nan(1)"}, False),
    ({"is_bought": "true"}, False),
    ({"is_bought": "yes"}, False),
    ({"price": "\x1c5"}, False),
    ({"od": '"AMS,LHR"'}, False),
    ({"od": '"say ""KUL"""'}, False),
    ({"od": 'say "KUL"'}, False),
    ({"od": ""}, True),
    ({"od": " AMS LHR\t", "airline_id": ""}, True),
    ({"od": "AMS#LHR", "is_bought": "1"}, True),
]


LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("end", list(LINE_ENDS.values()), ids=list(LINE_ENDS))
@pytest.mark.parametrize("cells, by_c", TABLE_EDITS,
                         ids=["-".join(c.values()) or "empty" for c, _ in TABLE_EDITS])
def test_c_parse_of_a_table_equals_the_row_reader(tmp_path, cells, by_c, end):
    """A table whose C parse is kept gives the row reader's ods and values,
    bit for bit; every other table is read by the row reader, which gives
    them or the ParseError text. The edited rows sit between blank and `#`
    lines."""
    path = tmp_path / "features.csv"
    _multi_block_table(9).to_csv(path, header_comment="seed=1")
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in (5, 9):
        row = lines[line - 1].split(",")
        for name, cell in cells.items():
            row[_CSV_COLUMNS.index(name)] = cell
        lines[line - 1] = ",".join(row)
    lines[6:6] = ["", "# a comment between rows"]
    path.write_bytes((end.join(lines) + end).encode("utf-8"))
    got, read_by_c, want = read_both_ways(features, table_bits, path)
    assert got == want
    assert read_by_c == by_c


# ------------------------------------------------ to_csv vs per-cell oracle

def _fmt(v: float) -> str:
    if math.isnan(v):
        return ""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _write_per_cell(table, path, comment):
    """The per-cell reference writer for FeatureTable.to_csv: csv.writer rows."""
    header = ["od"] + [c[:-3] + "_zz" if c.endswith("_xx") else c for c in ALL_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([od] + [_fmt(v) for v in row] for od, row in zip(table.ods, table.values))


EDGE_VALUES = [-0.0, 0.5, -3.0, 1e15 - 1, 1e15, 1e16, 1234567.5, 1e-7, 123456789.0]


def test_to_csv_equals_per_cell_oracle(tmp_path):
    n = len(EDGE_VALUES) + 1
    rng = np.random.default_rng(0)
    mixed = np.array(EDGE_VALUES + [math.nan])
    columns = {
        "ints": np.array([-0.0, -3.0, 1e15 - 1, -(1e15 - 1), 123456789.0, 0.0, 7.0, 7.0, 42.0, 1.0]),
        "missing": np.full(n, math.nan),
        "mixed": mixed,
        "mixed_xx": rng.permutation(mixed),
        "floats": np.array(EDGE_VALUES + [-1e15])[[1, 4, 5, 6, 7, 1, 4, 5, 6, 9]],
        "small": rng.normal(scale=1e-3, size=n),
    }
    reps = 250  # more rows than one formatting block
    # the six kinds of column repeat across the table, with mixed_xx under each *_xx name
    cycle = list(columns.values())
    kinds = [columns["mixed_xx"] if c.endswith("_xx") else cycle[j % len(cycle)]
             for j, c in enumerate(ALL_COLUMNS)]
    table = FeatureTable(ods=[f"OD-{i % 7}" for i in range(n * reps)],
                         values=np.tile(np.column_stack(kinds), (reps, 1)))
    table.to_csv(tmp_path / "got.csv", header_comment="seed=1")
    _write_per_cell(table, tmp_path / "want.csv", "seed=1")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert b",mean3d_zz," in (tmp_path / "got.csv").read_bytes()


def test_to_csv_quotes_ods_as_the_per_cell_oracle(tmp_path):
    ods = ['AMS,LHR', 'say "KUL"', "AMS-LHR", " FRA-SYD"]
    n = CSV_BLOCK_ROWS + 5  # the quoting memo carries over into the second block
    values = np.random.default_rng(1).normal(size=(n, len(ALL_COLUMNS)))
    table = FeatureTable(ods=[ods[i % len(ods)] for i in range(n)], values=values)
    table.to_csv(tmp_path / "got.csv", header_comment="seed=1")
    _write_per_cell(table, tmp_path / "want.csv", "seed=1")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b'\r\n"AMS,LHR",' in got and b'\r\n"say ""KUL""",' in got


def test_columns_and_records_give_one_table(tmp_path):
    """A seed-42 fixture market, written as `farecast synth` writes it: its
    bookings as columns or as records give one table, the one that
    `farecast features` writes."""
    od, data = fixture_market([od for od, _, _ in synth.FIXTURE_ODS].index("KUL-SIN"), 42)
    for kind in DATASETS:
        serialize_dataset(getattr(data, kind), kind, tmp_path / "data" / od / f"{kind}.csv")
    parsed = {kind: parse_dataset(tmp_path / "data" / od / f"{kind}.csv", kind) for kind in DATASETS}
    fleet = parsed["fleet"].columns
    aggregates = build_airline_aggregates(
        parsed["reviews"].columns, filter_tweets(parsed["tweets"].columns),
        parsed["safety"].columns, fleet, load_default_lexicon(),
    )
    widebody = airline_widebody_flags(fleet)
    from_columns = assemble_feature_vectors(
        parsed["bookings"].columns, parsed["fares"].columns, aggregates, widebody=widebody)
    from_records = assemble_feature_vectors(
        parsed["bookings"].records, parsed["fares"].columns, aggregates, widebody=widebody)
    assert from_columns.ods == from_records.ods
    np.testing.assert_array_equal(from_columns.values, from_records.values)

    assert cli.main(["features", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                     "--od", od]) == 0
    _write_per_cell(from_records, tmp_path / "want.csv", cli._stamp(RunConfig()))
    assert (tmp_path / "out" / od / "features.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_model_matrix_masks_missing():
    bookings, fares = _tiny_market()
    table = assemble_feature_vectors(bookings, fares, {})
    X, missing, names = table.model_matrix()
    assert names == list(MODEL_FEATURES)
    assert np.isfinite(X).all()
    # aggregates were absent entirely -> masked
    j = names.index("rating_ife")
    assert missing[:, j].all()
    # 28-day windows can't fill from 8 days of history
    j = names.index("mean28d_yy")
    assert missing[:, j].all()
    assert "airline_id" not in names and "dep_day_id" not in names


# ------------------------------------------------- assembly vs per-row oracle

def _expected_rows(bookings, fares, aggregates, widebody):
    """Recompute every column row by row from the raw fare rows: the scalar
    pricing functions for pricing and rolling columns, plain min/max/any over
    the matching fare rows for the schedule columns."""
    out = np.full((len(bookings), len(ALL_COLUMNS)), np.nan)
    for i, b in enumerate(bookings):
        want = {
            "airline_id": b.airline_id, "dep_day_id": b.dep_day_id, "dbd": b.dbd,
            "dep_time_mam": b.dep_time_mam, "price": b.price, "travel_time": b.travel_time,
            "bucket_t": bucket_t(b.dbd), "is_bought": float(b.is_bought),
            "dept_delta": abs(b.dep_time_mam - 360),
        }
        od = [f for f in fares if f.od == b.od]
        if od:
            want.update(_expected_market_columns(b, od))
            if b.airline_id in widebody:
                want["wide_body"] = float(widebody[b.airline_id])
            agg = aggregates.get(b.airline_id)
            if agg is not None:
                want.update(agg)
        for name, v in want.items():
            out[i, ALL_COLUMNS.index(name)] = v
    return out


def _expected_market_columns(b, od):
    fare = {}
    for f in od:
        k = (f.airline_id, f.dep_day_id, f.dbd)
        fare[k] = min(fare.get(k, math.inf), f.price)
    airlines = sorted({f.airline_id for f in od})

    def diff(ref, dbd):
        own = fare.get((b.airline_id, b.dep_day_id, dbd))
        if own is None:
            return None
        if ref == "al":
            prev = fare.get((b.airline_id, b.dep_day_id, dbd - 1))
            return None if prev is None else own - prev
        here = {a: fare[(a, b.dep_day_id, dbd)] for a in airlines
                if (a, b.dep_day_id, dbd) in fare}
        refs = market_reference_fares(here)
        _, yy, xx = fare_differences(own, refs.yy_fare, refs.xx_fare)
        return yy if ref == "yy" else xx

    want = {}
    own = fare.get((b.airline_id, b.dep_day_id, b.dbd))
    base = min(f.travel_time for f in od)
    if own is not None:
        refs = market_reference_fares({a: fare[(a, b.dep_day_id, b.dbd)] for a in airlines
                                       if (a, b.dep_day_id, b.dbd) in fare})
        cheap, yy, xx = fare_differences(own, refs.yy_fare, refs.xx_fare)
        want.update(is_cheapest=float(cheap), mkt_fare=refs.yy_fare, mkt_fare_diff=yy,
                    mkt_fare_diff_perc=own / refs.yy_fare - 1.0, min_flying_time=base)
        if xx is not None:
            want["xx_fare_diff"] = xx
        for ref in ("al", "yy", "xx"):
            series = {d: diff(ref, d) for d in range(b.dbd - max(ROLL_WINDOWS), b.dbd)}
            series = {d: v for d, v in series.items() if v is not None}
            for w in ROLL_WINDOWS:
                stats = rolling_price_features(series, b.dbd, w)
                if stats is not None:
                    want.update(zip((f"{s}{w}d_{ref}" for s in ("mean", "sd", "min", "max")), stats))

    group = [f for f in od if (f.airline_id, f.dep_day_id, f.dbd) == (b.airline_id, b.dep_day_id, b.dbd)]
    if group:
        ends = [f.dep_time_mam + f.travel_time * 60.0 for f in group]
        want.update(
            has_night_flight=float(any(e >= 1440 for e in ends)),
            has_day_flight=float(any(e < 1440 for e in ends)),
            has_evening_departure=float(any(f.dep_time_mam > 18 * 60 for f in group)),
            first_flight_dep=min(f.dep_time_mam for f in group),
            last_flight_dep=max(f.dep_time_mam for f in group),
            first_flight_arr=min(e % 1440 for e in ends),
            last_flight_arr=max(e % 1440 for e in ends),
            min_conn_time=min(max(0.0, f.travel_time - base) for f in group),
        )
    market_tt = [f.travel_time for f in od if (f.dep_day_id, f.dbd) == (b.dep_day_id, b.dbd)]
    if market_tt:
        want.update(min_travel_time=min(market_tt), tt_delta=max(0.0, b.travel_time - min(market_tt)))
    freq = {a: len({f.dep_time_mam for f in od if f.airline_id == a}) for a in airlines}
    home = min(airlines, key=lambda a: (-freq[a], a))
    want.update(
        direct_flight=float(b.travel_time - base < 0.5),
        has_night_departure=float(b.dep_time_mam >= 21 * 60 or b.dep_time_mam < 5 * 60),
        has_morning_arrival=float((b.dep_time_mam + b.travel_time * 60.0) % 1440 < 9 * 60),
        num_frequencies=float(freq.get(b.airline_id, 0)),
        home_carrier=float(b.airline_id == home),
    )
    return want


def _random_fares(rng, od, n_air):
    """Gappy fares over two departure days, 1-2 itineraries per airline, with
    prices drawn from a dozen cent amounts so that ties occur; one airline is
    mostly absent, leaving single-airline keys."""
    prices = np.round(rng.uniform(60.0, 90.0, size=12), 2)
    fares = []
    for a in range(1, n_air + 1):
        gap = 0.6 if a == n_air else float(rng.choice([0.0, 0.03, 0.2]))
        times = [(int(rng.integers(0, 1440)), round(float(rng.uniform(0.5, 16.0)), 2))
                 for _ in range(int(rng.integers(1, 3)))]
        for day in (100, 107):
            for dbd in range(-45, 0):
                if rng.random() < gap:
                    continue
                for dep, tt in times:
                    fares.append(FareRow(od, a, day, dbd, dep, tt, float(rng.choice(prices))))
    return fares


@pytest.mark.parametrize("seed", range(12))
def test_assembly_equals_per_row_oracle(seed):
    """Two ODs with fares and one without in one call; bookings also fall on
    days, dbds and an airline the fares do not have."""
    rng = np.random.default_rng(seed)
    fares = _random_fares(rng, "AAA-BBB", int(rng.integers(1, 4))) + _random_fares(rng, "CCC-DDD", 3)
    bookings = [
        ItineraryRecord(
            str(rng.choice(["AAA-BBB", "CCC-DDD", "EEE-FFF"], p=[0.45, 0.45, 0.1])),
            int(rng.integers(1, 5)), int(rng.choice([100, 107, 114], p=[0.45, 0.45, 0.1])),
            int(rng.integers(-50, 3)),
            int(rng.integers(0, 1440)), round(float(rng.uniform(0.5, 16.0)), 2),
            float(rng.integers(60, 90)), bool(rng.random() < 0.3),
        )
        for _ in range(80)
    ]
    aggregates = {1: {"rating_ife": 3.0, "fleet_size": 12.0}, 4: {"safety_score": 0.02}}
    widebody = {1: True, 2: False}
    table = assemble_feature_vectors(bookings, columns_of_rows("fares", fares), aggregates,
                                     widebody=widebody)
    assert table.ods == [b.od for b in bookings]
    want = _expected_rows(bookings, fares, aggregates, widebody)
    for name, got, exp in zip(ALL_COLUMNS, table.values.T, want.T):
        np.testing.assert_array_equal(got, exp, err_msg=name)


def test_frequencies_count_departure_times_that_move_per_day():
    """Synth's schedule pattern: each airline's departure times move from one
    departure day to the next and can collide with another airline's. Airline
    5 (whose fares come first) and airline 2 tie on four distinct times, so
    the lower id is the home carrier; airline 7 has no fares."""
    schedule = {
        5: {100: [480, 600], 107: [495, 600], 114: [480, 1000]},
        2: {100: [600, 720], 107: [480, 720], 114: [735]},
        3: {100: [600], 107: [600], 114: [610]},
    }
    rng = np.random.default_rng(0)
    fares = [
        FareRow("AAA-BBB", a, day, dbd, dep, 2.5 + k, float(rng.integers(60, 90)))
        for a, days in schedule.items()
        for day, times in days.items()
        for k, dep in enumerate(times)
        for dbd in range(-12, 0)
    ]
    bookings = [
        ItineraryRecord("AAA-BBB", a, day, int(rng.integers(-14, 0)), int(rng.integers(0, 1440)),
                        2.5, 75.0, bool(rng.random() < 0.3))
        for a in (5, 2, 3, 7)
        for day in (100, 107, 114)
    ]
    table = assemble_feature_vectors(bookings, columns_of_rows("fares", fares), {})
    want = _expected_rows(bookings, fares, {}, {})
    for name in ("num_frequencies", "home_carrier"):
        col = ALL_COLUMNS.index(name)
        np.testing.assert_array_equal(table.values[:, col], want[:, col], err_msg=name)
    freq = dict(zip(table.column("airline_id"), table.column("num_frequencies")))
    assert freq == {5: 4.0, 2: 4.0, 3: 2.0, 7: 0.0}
    home = table.column("airline_id")[table.column("home_carrier") == 1.0]
    assert set(home) == {2}
