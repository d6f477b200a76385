"""Dataset parsing, validation, serialization, and the atomic CSV writer."""

from __future__ import annotations

import pytest

from farecast.ingest import (
    ItineraryRecord,
    ParseError,
    ReviewRecord,
    TweetRecord,
    filter_tweets,
    parse_dataset,
    schema_columns,
    serialize_dataset,
    write_csv,
)

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
