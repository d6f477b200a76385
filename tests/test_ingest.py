"""Dataset parsing, validation, serialization, and the atomic CSV writer."""

from __future__ import annotations

import codecs
import csv
import io
import math
import string
import tracemalloc
from collections import namedtuple
from contextlib import redirect_stdout
from dataclasses import astuple, fields, replace
from importlib import resources
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farecast import cli, features, ingest, synth
from farecast.config import load_config, read_scenario
from farecast.features import ALL_COLUMNS, FeatureTable
from farecast.ingest import (
    _COERCERS,
    CSV_BLOCK_ROWS,
    DATASETS,
    REVIEW_SCORES,
    SCHEMAS,
    ItineraryRecord,
    ParseError,
    ParseResult,
    empty_columns,
    filter_tweets,
    format_numbers,
    parse_dataset,
    quote_cells,
    serialize_dataset,
    to_columns,
    write_csv,
)
from farecast.sentiment import load_default_lexicon
from farecast.synth import MarketData
from oracles import (
    assert_columns_equal,
    column_bits,
    columns_of_rows,
    feature_cell,
    fixture_market,
    read_both_ways,
    read_csv,
    table_bits,
)

BOOKING = ItineraryRecord(
    od="AMS-LHR", airline_id=1, dep_day_id=100, dbd=-10,
    dep_time_mam=360, travel_time=1.5, price=120.5, is_bought=True,
)


def schema_columns(schema):
    return list(SCHEMAS[schema][0])


def _rows(columns):
    """A column mapping's rows as tuples of Python values."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                      for c in columns.values())))


def _typed(rows):
    """Each value of each row with its type, so that 1 and True differ."""
    return [[(type(v), v) for v in row] for row in rows]


def _write(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_roundtrip_preserves_records(tmp_path):
    records = [
        BOOKING,
        ItineraryRecord("AMS-LHR", 2, 100, -9, 1020, 1.4, 99.0, False),
    ]
    path = tmp_path / "bookings.csv"
    serialize_dataset(records, "bookings", path)
    result = parse_dataset(path, "bookings")
    assert result.records == records
    assert result.rejected == []


def test_missing_file_raises(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        parse_dataset(tmp_path / "nope.csv", "bookings")


def test_header_mismatch_raises(tmp_path):
    path = tmp_path / "bad.csv"
    _write(path, ["wrong", "header"], [])
    with pytest.raises(ParseError, match="header mismatch"):
        parse_dataset(path, "bookings")


def test_bad_rows_rejected_with_position(tmp_path):
    header = schema_columns("bookings")
    good = ["AMS-LHR", 1, 100, -10, 360, 1.5, 120.5, 1]
    bad_type = ["AMS-LHR", "x", 100, -10, 360, 1.5, 120.5, 1]
    bad_range = ["AMS-LHR", 1, 100, 10, 360, 1.5, 120.5, 1]  # dbd must be negative
    path = tmp_path / "bookings.csv"
    _write(path, header, [good, bad_type, bad_range, good])
    result = parse_dataset(path, "bookings")
    assert result.n_accepted == 2
    assert [line for line, _ in result.rejected] == [3, 4]


def test_comment_lines_skipped(tmp_path):
    header = schema_columns("bookings")
    path = tmp_path / "bookings.csv"
    path.write_text(
        "# generated by a tool\n" + ",".join(header) + "\n"
        + "AMS-LHR,1,100,-10,360,1.5,120.5,1\n",
        encoding="utf-8",
    )
    assert parse_dataset(path, "bookings").n_accepted == 1


def test_reject_line_numbers_count_comment_lines(tmp_path):
    path = tmp_path / "safety.csv"
    path.write_text(
        "# config_hash=abc seed=1\nairline_code,score\nA1,0.5\nA2,-0.1\nA3,0.2\nA4,0.3\n",
        encoding="utf-8",
    )
    result = parse_dataset(path, "safety")
    assert result.rejected == [(4, "score must be nonnegative at line 4")]
    assert result.n_accepted == 3


def test_read_csv_yields_physical_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'# stamp\r\na,b\r\n\r\n1,"x\r\ny"\r\n# note\r\n2,z\r\n')
    assert read_csv(path) == [(2, ["a", "b"]), (5, ["1", "x\r\ny"]), (7, ["2", "z"])]


def test_hash_line_inside_a_quoted_field_is_data(tmp_path):
    tweets = columns_of_rows("tweets", [
        (1, "great flight\n#KLM rocks", False, False, "en"),
        (2, 'say "hi"\n# no comment "here', False, True, "en"),
        (3, "plain", True, False, "nl"),
    ])
    path = tmp_path / "tweets.csv"
    serialize_dataset(tweets, "tweets", path)
    result = parse_dataset(path, "tweets")
    assert_columns_equal(result.columns, tweets)
    assert result.rejected == []
    # a comment's own quotes open no field, nor does a quote inside an unquoted field
    path.write_bytes(b'a,b\r\n1,"x\r\n#y"\r\n# note "\r\n2,z"w\r\n#\r\n')
    assert read_csv(path) == [(1, ["a", "b"]), (3, ["1", "x\r\n#y"]), (5, ["2", 'z"w'])]


@pytest.fixture
def opened(monkeypatch):
    """Every file opened through Path.open while the test runs."""
    files, real_open = [], Path.open

    def tracked(self, *args, **kwargs):
        files.append(real_open(self, *args, **kwargs))
        return files[-1]

    monkeypatch.setattr(Path, "open", tracked)
    return files


def test_readers_that_stop_early_leave_no_file_open(tmp_path, opened):
    """Each reader opens its file once, in one `with`, whether the file is
    clean, refused by the C parse or faulty: a refused file is read again by
    the row reader through the same handle. None is open even while the
    error that stopped a reader is still held."""
    good = tmp_path / "bookings.csv"
    _write_rows(good, "bookings", [["AMS-LHR", "1", "100", "-9", "1020", "1.4", "99.0", "1"]] * 5)
    quoted = tmp_path / "quoted_bookings.csv"
    _write_rows(quoted, "bookings", [['"AMS,LHR"', "1", "100", "-9", "1020", "1.4", "99.0", "1"]] * 5)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("od,x\r\nAMS-LHR,1\r\n", encoding="utf-8")
    values = np.zeros((2, len(ALL_COLUMNS)))
    FeatureTable(ods=["A-B"] * 2, values=values).to_csv(tmp_path / "features.csv")
    values[1, ALL_COLUMNS.index("is_bought")] = 2
    FeatureTable(ods=["A-B"] * 2, values=values).to_csv(tmp_path / "label.csv")
    del opened[:]  # the files written above

    assert parse_dataset(good, "bookings").n_accepted == 5
    assert len(FeatureTable.from_csv(tmp_path / "features.csv")) == 2
    with pytest.raises(ParseError, match="header mismatch") as header_error:
        parse_dataset(wrong, "bookings")
    with pytest.raises(ParseError, match="header is not the feature table") as from_csv_header:
        FeatureTable.from_csv(good)
    # the C parse reads the table, and the row reader, reading it again
    # through the same handle, stops at the faulty line
    with pytest.raises(ParseError, match="line 3: is_bought must be 0 or 1") as row_fault:
        FeatureTable.from_csv(tmp_path / "label.csv")
    assert header_error.value and from_csv_header.value and row_fault.value
    assert len(opened) == 5 and all(fh.closed for fh in opened)
    # a quoted od makes the C parse refuse the file, and the row reader reads it again
    FeatureTable(ods=["A,B"] * 2, values=np.zeros((2, len(ALL_COLUMNS)))).to_csv(tmp_path / "quoted.csv")
    del opened[:]
    assert FeatureTable.from_csv(tmp_path / "quoted.csv").ods == ["A,B"] * 2
    assert len(opened) == 1 and all(fh.closed for fh in opened)
    del opened[:]
    assert parse_dataset(quoted, "bookings").columns["od"] == ["AMS,LHR"] * 5
    assert len(opened) == 1 and all(fh.closed for fh in opened)


_SCENARIO = ("[scenario]\ncapacity = 9\n[od:X]\nfares = " + ",".join(map(str, range(1200, 0, -100)))
             + "\nbrand_mix = 1,1,1\nmean_demand = 4\nhistory = 5,6\n")


def test_a_byte_order_mark_is_skipped_on_every_input(tmp_path):
    """A dataset, a feature table (each read by the C parse and, with a
    quoted od, by the row reader), a run config and a scenario each read
    the same with a UTF-8 byte-order mark as without one."""
    booking = ["1", "100", "-9", "1020", "1.4", "99.0", "1"]
    datasets = {"bookings.csv": "AMS-LHR", "quoted_bookings.csv": '"AMS,LHR"'}
    for name, od in datasets.items():
        _write_rows(tmp_path / name, "bookings", [[od, *booking]] * 3)
    tables = {"features.csv": "A-B", "quoted_features.csv": "A,B"}
    for name, od in tables.items():
        FeatureTable(ods=[od] * 2, values=np.zeros((2, len(ALL_COLUMNS)))).to_csv(
            tmp_path / name, header_comment="seed=1")
    (tmp_path / "run.ini").write_text("[run]\nseed = 3\n[gbt]\nn_trees = 5\n", encoding="utf-8")
    (tmp_path / "scenario.ini").write_text(_SCENARIO, encoding="utf-8")

    def parse_bookings(path):
        result = parse_dataset(path, "bookings")
        return column_bits(result.columns), result.rejected

    reads = {**dict.fromkeys(datasets, parse_bookings), **dict.fromkeys(tables, table_bits),
             "run.ini": load_config, "scenario.ini": read_scenario}
    for name, read in reads.items():
        path = tmp_path / name
        marked = tmp_path / f"bom_{name}"
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read(marked) == read(path), name


def test_datasets_are_the_market_data_fields():
    """Each per-OD kind is the MarketData field of its name, in order:
    bookings a list of ItineraryRecord, the one row type, and every other
    kind the schema's columns, which have no records."""
    held = tuple(f.name for f in fields(MarketData) if f.name in SCHEMAS)
    assert held == DATASETS
    assert len(DATASETS) == 6 and "lexicon" not in DATASETS
    assert get_type_hints(MarketData)["bookings"] == list[ItineraryRecord]
    assert list(get_type_hints(ItineraryRecord).items()) == list(SCHEMAS["bookings"][0].items())
    assert schema_columns("fares") == schema_columns("bookings")[:-1]
    for kind in DATASETS[1:]:
        assert_columns_equal(getattr(MarketData(), kind), empty_columns(kind), kind)
        with pytest.raises(TypeError, match=f"^{kind} rows are held as columns only"):
            _ = ParseResult(kind, empty_columns(kind), []).records


def test_review_scores_are_the_ordinal_review_fields():
    assert REVIEW_SCORES == ("fb", "ground", "ife", "crew", "seat", "value", "wifi")
    assert schema_columns("reviews")[-7:] == list(REVIEW_SCORES)


def test_packaged_lexicon_parses_cleanly():
    text = resources.files("farecast.data").joinpath("lexicon.csv").read_text("utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == "word,score"
    want = {word: int(score) for word, score in (line.split(",") for line in lines[1:])}
    with resources.as_file(resources.files("farecast.data").joinpath("lexicon.csv")) as path:
        result = parse_dataset(path, "lexicon")
    assert result.n_rejected == 0
    assert len(want) == 82
    assert load_default_lexicon() == want


def test_majority_rejection_circuit_breaker(tmp_path):
    header = schema_columns("bookings")
    bad = ["AMS-LHR", "x", 100, -10, 360, 1.5, 120.5, 1]
    good = ["AMS-LHR", 1, 100, -10, 360, 1.5, 120.5, 1]
    path = tmp_path / "bookings.csv"
    _write(path, header, [bad, bad, good])
    with pytest.raises(ParseError, match="50%"):
        parse_dataset(path, "bookings")


def test_filter_tweets_keeps_original_english():
    keep = (1, "nice flight", False, False, "en")
    tweets = columns_of_rows("tweets", [
        (1, "rt", True, False, "en"),
        keep,
        (1, "reply", False, True, "en"),
        (2, "mooi", False, False, "nl"),
        keep,
    ])
    assert_columns_equal(filter_tweets(tweets), columns_of_rows("tweets", [keep, keep]))
    assert_columns_equal(filter_tweets(empty_columns("tweets")), empty_columns("tweets"))


def test_review_rating_bounds(tmp_path):
    header = schema_columns("reviews")
    good = [1, 1, "fine trip", 3, 3, 3, 3, 3, 3, 3]
    bad = [1, 1, "fine trip", 6, 3, 3, 3, 3, 3, 3]  # rating outside 1..5
    path = tmp_path / "reviews.csv"
    _write(path, header, [good, bad, good])
    result = parse_dataset(path, "reviews")
    assert result.n_accepted == 2
    assert result.rejected[0][0] == 3


def test_write_csv_comment_header_and_crlf(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, ["a", "b"], [[["1", "2"], quote_cells(["x,y", ""], {})]], comment="seed=1")
    assert path.read_bytes() == b'# seed=1\na,b\r\n1,"x,y"\r\n2,\r\n'


def test_write_csv_failure_leaves_existing_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[["1", "2"]]])
    before = path.read_bytes()

    def rows():
        yield [["3"]]
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting failed"):
        write_csv(path, ["a"], rows(), comment="new")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


# ------------------------------------- column-wise serialize vs per-record oracle

def _format_value(val) -> str:
    if isinstance(val, bool):
        return "1" if val else "0"
    if isinstance(val, float):
        return f"{val:.6g}"
    return str(val)


def _serialize_oracle(rows, schema, path):
    """The per-row reference writer for serialize_dataset; each row a tuple
    in column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema_columns(schema))
        writer.writerows([_format_value(v) for v in row] for row in rows)


@pytest.mark.parametrize("kind", DATASETS)
def test_serialize_equals_per_record_oracle_on_a_fixture_market(tmp_path, kind):
    """Bookings are held as records, the other kinds as columns."""
    _, data = fixture_market(0, 42)
    held = getattr(data, kind)
    rows = list(map(astuple, held)) if kind == "bookings" else _rows(held)
    serialize_dataset(held, kind, tmp_path / "got.csv")
    _serialize_oracle(rows, kind, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.fixture(scope="module")
def seed42_files(tmp_path_factory):
    """(path, kind) of every file `farecast synth` writes at the fixture
    seed except the scenario, and of the package's lexicon."""
    out = tmp_path_factory.mktemp("synth42")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "42"]) == 0
    lexicon = resources.files("farecast") / "data" / "lexicon.csv"
    return [(out / od / f"{kind}.csv", kind) for od, _, _ in synth.FIXTURE_ODS
            for kind in DATASETS] + [(Path(str(lexicon)), "lexicon")]


def test_columns_and_records_serialize_to_the_same_bytes(tmp_path, seed42_files):
    """Every seed-42 file parsed, then written from its columns, and a
    bookings file also from its records: each gives the synth file's own
    bytes (the lexicon, written with LF line ends, is not serialize_dataset's
    output, so it must read back as the same columns)."""
    assert len(seed42_files) == 61
    for path, kind in seed42_files:
        parsed = parse_dataset(path, kind)
        serialize_dataset(parsed.columns, kind, tmp_path / "columns.csv")
        got = (tmp_path / "columns.csv").read_bytes()
        if kind == "bookings":
            serialize_dataset(parsed.records, kind, tmp_path / "records.csv")
            assert got == (tmp_path / "records.csv").read_bytes(), path
        if kind == "lexicon":
            assert_columns_equal(parse_dataset(tmp_path / "columns.csv", kind).columns,
                                 parsed.columns)
        else:
            assert got == path.read_bytes(), path
    frasyd = next(path for path, kind in seed42_files
                  if path.parent.name == "FRA-SYD" and kind == "fares")
    assert parse_dataset(frasyd, "fares").n_accepted == 13_650 > 13 * CSV_BLOCK_ROWS


EDGE_FLOATS = [0.0, -0.0, 1e-7, 123456.5, 1234567.0, -2.5, 1e16, 0.1]
EDGE_TEXT = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " leading", "", "plain", "AMS-LHR"]


def test_serialize_equals_per_record_oracle_across_blocks(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 37  # more rows than one formatting block
    bookings = [
        ItineraryRecord(
            od=EDGE_TEXT[i % len(EDGE_TEXT)], airline_id=i % 5 - 2, dep_day_id=1000 + i,
            dbd=-(i % 40), dep_time_mam=i % 1440, travel_time=EDGE_FLOATS[i % len(EDGE_FLOATS)],
            price=EDGE_FLOATS[(i * 3) % len(EDGE_FLOATS)], is_bought=i % 3 == 0,
        )
        for i in range(n)
    ]
    tweets = [
        (i, EDGE_TEXT[i % len(EDGE_TEXT)], i % 2 == 0, i % 5 == 0, EDGE_TEXT[(i + 3) % len(EDGE_TEXT)])
        for i in range(n)
    ]
    serialize_dataset(bookings, "bookings", tmp_path / "bookings.csv")
    for kind, rows in (("bookings", list(map(astuple, bookings))), ("tweets", tweets)):
        _serialize_oracle(rows, kind, tmp_path / "want.csv")
        if kind == "bookings":
            assert (tmp_path / "bookings.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        serialize_dataset(columns_of_rows(kind, rows), kind, tmp_path / "columns.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # 0.0 and -0.0 share one float column and must still be written "0" and "-0"
    travel_time = [row[5] for _, row in read_csv(tmp_path / "bookings.csv")[1:]]
    assert {"0", "-0", "1e-07", "123456", "1.23457e+06"} <= set(travel_time)


def test_format_numbers_passes_each_distinct_value_in_the_column_dtype():
    """format_numbers gives each cell its value's text, for int64 columns
    (extremes and repeats included) and float64 ones (0.0 and -0.0 apart),
    also for a column that is a strided view, as FeatureTable.to_csv passes;
    the rule sees each distinct value once, in the column's dtype."""
    ints = np.array([7, -1, 2**63 - 1, 0, -2**63, 7, -1], dtype=np.int64)
    floats = np.array([0.0, -0.0, 1.5, np.nan, 1.5, -2.25])
    seen = []

    def rule(values):
        seen.append(values)
        return list(map(repr, values.tolist()))

    assert format_numbers(ints, rule) == list(map(repr, ints.tolist()))
    assert format_numbers(floats, rule) == list(map(repr, floats.tolist()))
    strided = np.stack([floats, floats[::-1]], axis=1)[:, 1]
    assert format_numbers(strided, rule) == list(map(repr, floats[::-1].tolist()))
    assert [v.dtype for v in seen] == [np.int64, np.float64, np.float64]
    assert list(map(len, seen)) == [5, 5, 5]


# Values where "%.6g" and the feature-cell rule turn: signed zeros, NaN, the
# 1e15 edge of the integer rule, a rounded integer, subnormals, 0.1.
_EDGE_VALUES = [-0.0, 0.0, math.nan, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e6, 1e-300,
                5e-324, -2.5e-320, 2.2250738585072014e-308 / 3, 0.1, -1234567.5, 3.0]


@pytest.mark.parametrize("rule, cell", [(ingest._g6, "%.6g".__mod__),
                                        (features._feature_cells, feature_cell)])
def test_block_formatter_matches_the_per_value_rule(rule, cell):
    """format_numbers with either float rule gives each cell what the rule
    gives its value alone, for a column, for a 2-D block and for a block's
    transpose (its columns, as FeatureTable.to_csv passes); a value repeated
    across columns gets one cell object."""
    rng = np.random.default_rng(5)
    block = rng.choice(np.array(_EDGE_VALUES), size=(40, 6))
    block[3] = _EDGE_VALUES[:6]
    block[:, 4] = block[:, 1]  # the same values in a second column
    rows = [[cell(v) for v in row] for row in block.tolist()]
    assert format_numbers(block[:, 2], rule) == [row[2] for row in rows]
    assert format_numbers(block, rule) == rows
    columns = format_numbers(block.T, rule)
    assert columns == [list(col) for col in zip(*rows)]
    assert all(a is b for a, b in zip(columns[1], columns[4]))
    assert format_numbers(block[:0], rule) == []


@pytest.mark.parametrize("field, value", [
    ("airline_id", True),   # a bool in an int field
    ("price", 120),         # an int in a float field
    ("is_bought", 1),       # an int in a bool field
    ("od", 7),              # an int in a str field
])
def test_serialize_rejects_a_value_of_another_type(tmp_path, field, value):
    records = [BOOKING] * (CSV_BLOCK_ROWS + 1) + [replace(BOOKING, **{field: value})]
    with pytest.raises(TypeError, match=rf"bookings\.{field}\b"):
        serialize_dataset(records, "bookings", tmp_path / "bookings.csv")
    assert not (tmp_path / "bookings.csv").exists()


@pytest.mark.parametrize("field, column, message", [
    ("airline_id", np.ones(CSV_BLOCK_ROWS + 1, dtype=bool), "holds a bool value; the field is int"),
    ("price", np.arange(CSV_BLOCK_ROWS + 1), "holds a int value; the field is float"),
])
def test_serialize_rejects_a_column_of_another_dtype(tmp_path, field, column, message):
    fare = ("AMS-LHR", 1, 100, -10, 360, 1.5, 120.5)
    columns = {**columns_of_rows("fares", [fare] * len(column)), field: column}
    with pytest.raises(TypeError, match=rf"^fares\.{field} {message}$"):
        serialize_dataset(columns, "fares", tmp_path / "fares.csv")
    assert not (tmp_path / "fares.csv").exists()


@pytest.mark.parametrize("schema, row, field, value, message", [
    ("fleet", (1, "77W", 250.0, "PH-ABC", 7.5), "aircraft_cost", 250,
     "holds a int value; the field is float"),
    ("reviews", (1, True, "fine trip", 3, 4, 5, 1, 2, 3, 4), "fb", True,
     "holds a bool value; the field is int"),
])
def test_to_columns_rejects_a_value_of_another_type(schema, row, field, value, message):
    lists = {name: list(col) for name, col in zip(schema_columns(schema), zip(*[row] * 3))}
    assert_columns_equal(to_columns(schema, lists), columns_of_rows(schema, [row] * 3))
    lists[field][1] = value
    with pytest.raises(TypeError, match=rf"^{schema}\.{field} {message}$"):
        to_columns(schema, lists)


@pytest.mark.parametrize("header, block", [
    (["a", "b"], [["1"]]),                  # a column short
    (["a", "b"], [["1", "2"], ["3"]]),      # columns of unequal length
    (["a"], [["1", ""]]),                   # an empty one-column row is a blank line
])
def test_write_csv_rejects_a_malformed_block(tmp_path, header, block):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", header, [block])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("schema", ["bookings", "fares", "safety", "lexicon"])
def test_a_first_text_cell_starting_with_hash_reads_back(tmp_path, schema):
    """A kind whose first field is text: a cell of it that starts with "#"
    is written quoted, so that it reads back as data, not as a comment."""
    path = tmp_path / f"{schema}.csv"
    _write(path, schema_columns(schema), [GOOD_ROWS[schema]] * 3)
    columns = parse_dataset(path, schema).columns
    first = schema_columns(schema)[0]
    columns[first] = ["#" + columns[first][0], columns[first][1], "#"]
    serialize_dataset(columns, schema, path)
    assert path.read_text(encoding="utf-8").count('"#') == 2
    assert_columns_equal(parse_dataset(path, schema).columns, columns)


# ------------------------------------------- column-wise parse vs per-row oracle

def _validate_itinerary_common(rec):
    if rec.dbd > 0:
        return "dbd out of range (must be <= 0)"
    if not (0 <= rec.dep_time_mam < 1440):
        return "dep_time_mam out of range"
    if rec.travel_time <= 0:
        return "travel_time must be positive"
    if rec.price <= 0:
        return "price must be positive"
    return None


def _validate_review(rec):
    for name in REVIEW_SCORES:
        if getattr(rec, name) not in (1, 2, 3, 4, 5):
            return f"{name} score outside 1..5"
    return None


def _validate_fleet(rec):
    if rec.aircraft_age < 0:
        return "aircraft_age must be nonnegative"
    if rec.aircraft_cost <= 0:
        return "aircraft_cost must be positive"
    return None


def _validate_lexicon(rec):
    if not (-5 <= rec.score <= 5):
        return "score outside -5..5"
    if rec.word != rec.word.lower():
        return "word must be lowercase"
    return None


ROW_VALIDATORS = {
    "bookings": _validate_itinerary_common,
    "fares": _validate_itinerary_common,
    "reviews": _validate_review,
    "tweets": lambda rec: None,
    "safety": lambda rec: None if rec.score >= 0 else "score must be nonnegative",
    "fleet": _validate_fleet,
    "lexicon": _validate_lexicon,
}


def _parse_rows(path, schema):
    """The row-at-a-time reference: each row through the scalar coercers into
    a named tuple of the schema's fields, then through the schema's row
    validator."""
    hints = SCHEMAS[schema][0]
    rec_type = namedtuple("Row", hints)
    coercers = [_COERCERS.get(typ, str) for typ in hints.values()]
    records, rejected = [], []
    for lineno, row in read_csv(path)[1:]:
        if len(row) != len(coercers):
            rejected.append((lineno, f"expected {len(coercers)} fields, got {len(row)}"))
            continue
        try:
            rec = rec_type(*[coerce(raw) for coerce, raw in zip(coercers, row)])
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
            continue
        problem = ROW_VALIDATORS[schema](rec)
        if problem is not None:
            rejected.append((lineno, f"{problem} at line {lineno}"))
            continue
        records.append(rec)
    total = len(records) + len(rejected)
    if total > 0 and len(rejected) > total / 2:
        raise ParseError(f"{path}: {len(rejected)}/{total} rows rejected (over 50% circuit breaker)")
    return records, rejected


GOOD_ROWS = {
    "bookings": ["AMS-LHR", "1", "100", "-10", "360", "1.5", "120.5", "1"],
    "fares": ["AMS-LHR", "2", "100", "-9", "1020", "1.4", "99.0"],
    "reviews": ["1", "yes", "fine trip", "3", "4", "5", "1", "2", "3", "4"],
    "tweets": ["1", "nice flight", "0", "f", "en"],
    "safety": ["A1", "0.5"],
    "fleet": ["1", "77W", "250.0", "PH-ABC", "7.5"],
    "lexicon": ["good", "3"],
}

# (column, cell) edits that break a schema's range rules
RANGE_EDITS = {
    "bookings": [{"dbd": "1"}, {"dep_time_mam": "-1"}, {"dep_time_mam": "1440"},
                 {"travel_time": "0"}, {"price": "-2.5"},
                 {"dbd": "3", "dep_time_mam": "2000"}, {"dep_time_mam": "-5", "travel_time": "0"},
                 {"travel_time": "-1", "price": "0"}, {"dbd": "3", "price": "abc"}],
    "reviews": [{"fb": "0"}, {"wifi": "6"}, {"ife": "9", "crew": "0"}],
    "safety": [{"score": "-0.1"}],
    "fleet": [{"aircraft_age": "-1"}, {"aircraft_cost": "0"},
              {"aircraft_cost": "-1", "aircraft_age": "-1"}],
    "lexicon": [{"score": "6"}, {"score": "-6"}, {"word": "Good"}, {"word": "Bad", "score": "9"}],
}
RANGE_EDITS["fares"] = RANGE_EDITS["bookings"]

BAD_CELLS = {int: ["x", "1.5", "", "99999999999999999999"], float: ["nan", "inf", "-inf", "1.5.0"],
             bool: ["maybe", ""], str: []}
PADDED_CELLS = {int: " 7 ", float: "\t2.25 ", bool: " Yes ", str: " padded "}


def _edit(schema, **cells):
    return [cells.get(name, cell) for name, cell in zip(schema_columns(schema), GOOD_ROWS[schema])]


def _two_bad_fields(schema):
    """The first and last typed columns both hold a bad cell."""
    hints = SCHEMAS[schema][0]
    typed = [name for name in schema_columns(schema) if hints[name] is not str]
    return _edit(schema, **{name: BAD_CELLS[hints[name]][0] for name in (typed[0], typed[-1])})


def _oracle_rows(schema):
    """One row per case: a short and a long row, each bad and each padded
    cell of every column, two bad fields, and each range-rule break."""
    good = GOOD_ROWS[schema]
    hints = SCHEMAS[schema][0]
    variants = [good[:-1], good + ["extra"], _two_bad_fields(schema)]
    for name in schema_columns(schema):
        variants += [_edit(schema, **{name: cell}) for cell in BAD_CELLS[hints[name]]]
        variants.append(_edit(schema, **{name: PADDED_CELLS[hints[name]]}))
    variants += [_edit(schema, **cells) for cells in RANGE_EDITS.get(schema, [])]
    return variants


def _write_rows(path, schema, rows):
    lines = ["# generated for the parse oracle", ",".join(schema_columns(schema))]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i % 7 == 3:
            lines.append("# a comment between rows")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("schema", list(SCHEMAS))
def test_parse_equals_per_row_oracle(tmp_path, schema):
    good = GOOD_ROWS[schema]
    variants = _oracle_rows(schema)
    path = tmp_path / f"{schema}.csv"
    _write_rows(path, schema, [row for v in variants for row in (v, good, good)])
    records, rejected = _parse_rows(path, schema)
    result = parse_dataset(path, schema)
    assert len(rejected) > len(variants) // 2  # most variants are rejects
    assert result.rejected == rejected
    assert result.n_accepted == len(records)
    assert _typed(_rows(result.columns)) == _typed(records)
    hints = SCHEMAS[schema][0]
    for name, col in result.columns.items():
        if hints[name] is str:
            assert isinstance(col, list)
        else:
            assert col.dtype == {int: np.int64, float: np.float64, bool: np.bool_}[hints[name]]


@pytest.mark.parametrize("schema", list(SCHEMAS))
def test_circuit_breaker_equals_per_row_oracle(tmp_path, schema):
    good = GOOD_ROWS[schema]
    bad = [good[:-1], good + ["extra"], _two_bad_fields(schema)]
    path = tmp_path / f"{schema}.csv"
    _write_rows(path, schema, bad + [good] * 3)  # exactly half rejected: parses
    result = parse_dataset(path, schema)
    records, rejected = _parse_rows(path, schema)
    assert (_typed(_rows(result.columns)), result.rejected) == (_typed(records), rejected)
    _write_rows(path, schema, bad + [good] * 2)
    with pytest.raises(ParseError) as want:
        _parse_rows(path, schema)
    with pytest.raises(ParseError) as got:
        parse_dataset(path, schema)
    assert str(got.value) == str(want.value)


# ------------------------------------------------ block boundaries and memory

def _numbered_rows(n):
    """n good bookings rows, each with its own dep_day_id so that row order shows."""
    return [_edit("bookings", dep_day_id=str(100 + i)) for i in range(n)]


def _with(row, **cells):
    """A bookings row with the named cells replaced."""
    return [cells.get(name, cell) for name, cell in zip(schema_columns("bookings"), row)]


# Faulty rows for the rows either side of a CSV_BLOCK_ROWS boundary.
BOUNDARY_FAULTS = {
    "bad-cell": lambda row: _with(row, airline_id="x"),
    "field-count": lambda row: row[:-1],
    "validator": lambda row: _with(row, dbd="1"),
    "literal-nan": lambda row: _with(row, price="nan"),
}


@pytest.mark.parametrize("fault", list(BOUNDARY_FAULTS))
def test_parse_across_block_boundaries_equals_per_row_oracle(tmp_path, fault):
    rows = _numbered_rows(3 * CSV_BLOCK_ROWS + 5)
    # the last row of the first block, the first and a later row of the
    # second, and the first of the third
    at = (CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 7, 2 * CSV_BLOCK_ROWS)
    for i in at:
        rows[i] = BOUNDARY_FAULTS[fault](rows[i])
    path = tmp_path / "bookings.csv"
    _write_rows(path, "bookings", rows)
    records, rejected = _parse_rows(path, "bookings")
    result = parse_dataset(path, "bookings")
    lines = [lineno for lineno, _ in read_csv(path)][1:]
    assert [line for line, _ in result.rejected] == [lines[i] for i in at]
    assert result.rejected == rejected
    assert result.n_accepted == len(records) == len(rows) - len(at)
    assert _typed(map(astuple, result.records)) == _typed(records)


def test_parse_without_data_rows_gives_empty_typed_columns(tmp_path):
    path = tmp_path / "bookings.csv"
    _write_rows(path, "bookings", [])
    result = parse_dataset(path, "bookings")
    assert result.n_accepted == 0 and result.rejected == []
    hints = SCHEMAS["bookings"][0]
    for name, col in result.columns.items():
        if hints[name] is str:
            assert col == []
        else:
            assert col.shape == (0,) and col.dtype == {int: np.int64, float: np.float64,
                                                       bool: np.bool_}[hints[name]]


def test_parse_peak_memory_is_bounded_by_one_block(tmp_path):
    """tracemalloc's peak while parsing an 8-block fares file, as a multiple
    of what the result holds. Parsing in C as the lines are read measured
    1.84 (Python 3.11, numpy 2.4). The row reader coercing a block at a time
    measured 2.13; reading all the file's lines first measured 2.94, and
    coercing the whole file at once 5.29. The bound is 2.13 plus a margin of
    0.47 for other builds."""
    n = 8 * CSV_BLOCK_ROWS + 17
    lines = [",".join(schema_columns("fares"))]
    lines += [f"AMS-LHR,{1 + i % 5},{1000 + 7 * (i % 14)},{-1 - i % 75},{37 * i % 1440},"
              f"{1 + i % 13 / 7:.4g},{100 + i * 7919 % 50000 / 100:.2f}" for i in range(n)]
    path = tmp_path / "fares.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        result = parse_dataset(path, "fares")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_accepted == n
    assert peak / held < 2.6, f"peak {peak} bytes for a result of {held}"


# ------------------------------------------------ C parse vs the row reader

def _parsed(schema):
    def read(path):
        result = parse_dataset(path, schema)
        return column_bits(result.columns), result.rejected
    return read


# (schema, {field: cell}, whether the C parse reads the file): each edit is
# made to a few rows of a file of good rows
NUMERIC_EDITS = [
    ("fares", {"price": "-0.0"}, True),
    ("fares", {"travel_time": "1e-7", "price": "1e16"}, True),
    ("fares", {"price": "999999999999999"}, True),
    ("bookings", {"dbd": " -5 ", "airline_id": "+5"}, True),
    ("bookings", {"dep_day_id": "9223372036854775807", "dbd": "-0"}, True),
    ("safety", {"score": "\t2.5 "}, True),
    ("lexicon", {"score": "+3"}, True),
    ("lexicon", {"word": "say KUL", "score": "-5"}, True),
    ("bookings", {"airline_id": "1_000"}, False),
    ("bookings", {"airline_id": "٣"}, False),
    ("bookings", {"airline_id": "२"}, False),
    ("lexicon", {"word": "café"}, False),
    ("bookings", {"dep_day_id": "9223372036854775808"}, False),
    ("bookings", {"airline_id": "5.0"}, False),
    ("bookings", {"price": "nan"}, False),
    ("bookings", {"price": "-NaN"}, False),
    ("bookings", {"travel_time": "inf"}, False),
    ("bookings", {"price": "1e400"}, False),
    ("bookings", {"price": "nan(1)"}, False),
    ("bookings", {"is_bought": "true"}, False),
    ("bookings", {"is_bought": "yes"}, False),
    ("bookings", {"is_bought": "2"}, False),
    ("bookings", {"is_bought": " 1"}, False),
    ("bookings", {"is_bought": "01"}, False),
    ("bookings", {"od": '"AMS,LHR"'}, False),
    ("bookings", {"od": 'say "KUL"'}, False),
    ("bookings", {"airline_id": "", "dep_day_id": ""}, False),
    ("bookings", {"dbd": "", "dep_time_mam": "", "travel_time": ""}, False),
    ("bookings", {"is_bought": ""}, False),
    ("fares", {"price": "1\x1c"}, False),
    ("safety", {"score": ""}, False),
    ("lexicon", {"score": "3.0"}, False),
    ("reviews", {"review_text": ""}, True),
    ("reviews", {"review_text": " roomy seats ", "recommended": "0"}, True),
    ("reviews", {"review_text": "#1 #crew"}, True),
    ("reviews", {"review_text": "4.5", "fb": "+5"}, True),
    ("tweets", {"text": "\tlate again\t", "language_tag": " en"}, True),
    ("tweets", {"text": "", "language_tag": ""}, True),
    ("tweets", {"text": "#delayed", "is_retweet": "1"}, True),
    ("tweets", {"language_tag": "en "}, True),
    ("fleet", {"aircraft_type": "", "registration": " PH-ABC\t"}, True),
    ("fleet", {"aircraft_type": "777", "registration": "12.5"}, True),
    ("fleet", {"registration": "#7"}, True),
    ("reviews", {"recommended": "true"}, False),
    ("reviews", {"recommended": ""}, False),
    ("reviews", {"review_text": '"good, not great"'}, False),
    ("reviews", {"wifi": ""}, False),
    ("tweets", {"is_reply": "true"}, False),
    ("tweets", {"text": '"late, again"'}, False),
    ("tweets", {"text": "naïve"}, False),
    ("fleet", {"aircraft_type": '"7,7W"'}, False),
    ("fleet", {"aircraft_cost": ""}, False),
    ("fleet", {"aircraft_age": "inf"}, False),
]


# GOOD_ROWS with each bool spelled "0" or "1", as the C parse reads it
C_ROWS = {**GOOD_ROWS,
          "reviews": ["1", "1", "fine trip", "3", "4", "5", "1", "2", "3", "4"],
          "tweets": ["1", "nice flight", "0", "0", "en"]}


def _edited_file(path, schema, cells, rows_edited, end, gaps=True):
    """Eight rows of the schema's row in C_ROWS, those in `rows_edited` with
    `cells` set, with a `#` line and a blank line among them if `gaps`;
    each line ending in `end`."""
    edited = [cells.get(name, cell) for name, cell in zip(schema_columns(schema), C_ROWS[schema])]
    rows = [edited if i in rows_edited else C_ROWS[schema] for i in range(8)]
    lines = ["# stamp", ",".join(schema_columns(schema))] + [",".join(r) for r in rows]
    if gaps:
        lines[4:4] = ["# a comment between rows", ""]
    path.write_bytes((end.join(lines) + end).encode("utf-8"))


LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("end", list(LINE_ENDS.values()), ids=list(LINE_ENDS))
@pytest.mark.parametrize("schema, cells, by_c", NUMERIC_EDITS,
                         ids=[f"{s}-{'-'.join(c.values())}" for s, c, _ in NUMERIC_EDITS])
def test_c_parse_equals_the_row_reader(tmp_path, schema, cells, by_c, end):
    """A file the C parse reads gives the row reader's columns, bit for bit,
    and its rejects; every other file is refused and read by the row reader.
    Edited in two rows the file parses; in five of eight, the circuit breaker
    raises with the same text either way. The rows sit with and without a
    `#` line and a blank line among them."""
    path = tmp_path / f"{schema}.csv"
    for rows_edited, gaps in product(({1, 6}, {0, 2, 3, 5, 7}), (True, False)):
        _edited_file(path, schema, cells, rows_edited, end, gaps)
        got, read_by_c, want = read_both_ways(ingest, _parsed(schema), path)
        assert got == want
        assert read_by_c == by_c


def test_c_parse_of_a_mixed_multi_block_file_equals_the_row_reader(tmp_path):
    """A fares file of three blocks whose cells are spelled in every way the
    C parse reads, with comment and blank lines and mixed line ends, some
    rows breaking a range rule: the same columns and line-numbered rejects."""
    rng = np.random.default_rng(7)
    spellings = {int: ["{}", " {} ", "+{}", "{}\t"],
                 float: ["{}", "{:.1e}", " {} ", "+{}", "{:.17g}"]}
    hints = SCHEMAS["fares"][0]
    lines = ["od,airline_id,dep_day_id,dbd,dep_time_mam,travel_time,price"]
    for i in range(3 * CSV_BLOCK_ROWS - 3):
        values = [rng.integers(1, 6), rng.integers(0, 400), -rng.integers(0, 90),
                  rng.integers(0, 1440), rng.uniform(0.5, 30), rng.uniform(50, 5000)]
        if i % 97 == 5:
            values[4] = -0.0  # travel_time must be positive
        if i % 89 == 3:
            values[2] = 1  # dbd out of range
        cells = [rng.choice(spellings[typ]).format(v).replace("+-", "-")
                 for typ, v in zip(list(hints.values())[1:], values)]
        lines.append(",".join([f"OD-{i % 3}"] + cells))
        if rng.random() < 0.01:
            lines.append("# comment" if rng.random() < 0.5 else "")
    ends = rng.choice(["\n", "\r\n"], len(lines))
    path = tmp_path / "fares.csv"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
    (columns, rejected), read_by_c, want = read_both_ways(ingest, _parsed("fares"), path)
    assert read_by_c and (columns, rejected) == want
    assert len(rejected) > 50 and len(columns["od"]) > 2 * CSV_BLOCK_ROWS


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text_cells")


@settings(max_examples=300, deadline=None)
@given(schema=st.sampled_from(list(SCHEMAS)),
       texts=st.lists(st.text(st.sampled_from(sorted(set(string.printable) - {'"'})),
                              max_size=12), min_size=1, max_size=9),
       end=st.sampled_from(list(LINE_ENDS.values())))
def test_random_text_cells_read_as_the_row_reader_reads_them(text_dir, schema, texts, end):
    """Rows of C_ROWS whose text fields hold random printable ASCII without
    a quote, line ends and commas included: the same columns, rejects or
    ParseError text, bit for bit, as the row reader gives; through the C
    parse whenever no text holds a comma or a line end."""
    hints = SCHEMAS[schema][0]
    text_fields = [i for i, typ in enumerate(hints.values()) if typ is str]
    lines = [",".join(hints)]
    for i in range(len(texts)):
        row = list(C_ROWS[schema])
        for j, field in enumerate(text_fields):
            row[field] = texts[(i + j) % len(texts)]
        lines.append(",".join(row))
    path = text_dir / f"{schema}.csv"
    path.write_bytes((end.join(lines) + end).encode("ascii"))
    got, read_by_c, want = read_both_ways(ingest, _parsed(schema), path)
    assert got == want
    assert read_by_c or any(set(text) & set(",\r\n") for text in texts)


@pytest.fixture(scope="module")
def seed42_tables(seed42_files, tmp_path_factory):
    """Every features.csv `farecast features` writes from the seed-42 files."""
    out = tmp_path_factory.mktemp("features42")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["features", "--data", str(seed42_files[0][0].parents[1]),
                         "--out", str(out)]) == 0
    tables = sorted(out.glob("*/features.csv"))
    assert len(tables) == len(synth.FIXTURE_ODS)
    return tables


def test_every_file_farecast_writes_reads_as_the_row_reader_reads_it(seed42_files, seed42_tables):
    """All 61 seed-42 inputs and the ten tables: the same columns, bit for
    bit, and rejects as the row reader gives, every file through the C
    parse."""
    for path, kind in seed42_files:
        got, read_by_c, want = read_both_ways(ingest, _parsed(kind), path)
        assert read_by_c and got == want, path
    for path in seed42_tables:
        got, read_by_c, want = read_both_ways(features, table_bits, path)
        assert read_by_c and got == want, path


def test_every_numeric_file_farecast_writes_takes_the_c_parse(seed42_files, seed42_tables,
                                                              monkeypatch):
    """The row conversions are made to raise: every file of all six kinds
    `farecast synth` writes, the packaged lexicon and every features.csv
    `farecast features` writes still read, so none of them falls back to
    the row reader."""
    def no_row_conversion(*args):
        raise AssertionError("the row reader converted a file")

    monkeypatch.setattr(ingest, "_read_rows", no_row_conversion)
    monkeypatch.setattr(features, "_read_rows", no_row_conversion)
    assert len(seed42_files) == 61
    assert {kind for _, kind in seed42_files} == set(SCHEMAS)
    for path, kind in seed42_files:
        assert parse_dataset(path, kind).n_accepted > 0, path
    for path in seed42_tables:
        assert len(FeatureTable.from_csv(path)) > 0, path
