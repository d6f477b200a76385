"""Dataset parsing, validation, serialization, and the atomic CSV writer."""

from __future__ import annotations

from dataclasses import fields
from importlib import resources
from typing import get_type_hints

import pytest

from farecast.ingest import (
    DATASETS,
    REVIEW_SCORES,
    SCHEMAS,
    ItineraryRecord,
    ParseError,
    ReviewRecord,
    TweetRecord,
    filter_tweets,
    parse_dataset,
    read_csv,
    schema_columns,
    serialize_dataset,
    write_csv,
)
from farecast.sentiment import load_default_lexicon
from farecast.synth import MarketData

BOOKING = ItineraryRecord(
    od="AMS-LHR", airline_id=1, dep_day_id=100, dbd=-10,
    dep_time_mam=360, travel_time=1.5, price=120.5, is_bought=True,
)


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
    assert list(read_csv(path)) == [(2, ["a", "b"]), (5, ["1", "x\r\ny"]), (7, ["2", "z"])]


def test_datasets_are_the_market_data_record_fields():
    record_types = {rec_type: kind for kind, (rec_type, _) in SCHEMAS.items()}
    hints = get_type_hints(MarketData)
    held = tuple(
        f.name for f in fields(MarketData)
        if getattr(hints[f.name], "__origin__", None) is list
        and record_types.get(hints[f.name].__args__[0]) == f.name
    )
    assert held == DATASETS
    assert len(DATASETS) == 6 and "lexicon" not in DATASETS


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
    keep = TweetRecord(1, "nice flight", False, False, "en")
    tweets = [
        keep,
        TweetRecord(1, "rt", True, False, "en"),
        TweetRecord(1, "reply", False, True, "en"),
        TweetRecord(1, "mooi", False, False, "nl"),
    ]
    assert filter_tweets(tweets) == [keep]


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
    write_csv(path, ["a", "b"], [[1, "x,y"], [2, ""]], comment="seed=1")
    assert path.read_bytes() == b'# seed=1\na,b\r\n1,"x,y"\r\n2,\r\n'


def test_write_csv_failure_leaves_existing_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[1], [2]])
    before = path.read_bytes()

    def rows():
        yield [3]
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting failed"):
        write_csv(path, ["a"], rows(), comment="new")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
