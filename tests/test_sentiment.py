"""Tokenization, lexicon scoring, and the 0-10 scale map."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.sentiment import (
    aggregate_airline_sentiment,
    load_default_lexicon,
    load_stopwords,
    scale_to_10,
    score_text,
    tokenize,
)

TABLE_WORDS = {
    "amazing": 4,
    "breathtaking": 5,
    "disaster": -2,
    "distrust": -3,
    "excellence": 3,
    "fraudsters": -4,
    "limited": -1,
    "misleading": -3,
}


def test_shipped_lexicon_contains_reference_words():
    lexicon = load_default_lexicon()
    for word, score in TABLE_WORDS.items():
        assert lexicon[word] == score


def test_tokenize_strips_punctuation_case_and_stopwords():
    assert tokenize("Amazing crew, breathtaking views!") == [
        "amazing", "crew", "breathtaking", "views",
    ]


def test_tokenize_drops_apostrophes_and_stopwords():
    tokens = tokenize("The plane's crew wasn't rude")
    assert "the" not in tokens
    assert "crew" in tokens and "rude" in tokens


def test_score_text_mean_of_matches():
    lexicon = load_default_lexicon()
    assert score_text(["amazing", "disaster"], lexicon) == pytest.approx(1.0)
    assert score_text(["breathtaking"], lexicon) == pytest.approx(5.0)
    # unmatched tokens do not dilute the mean
    assert score_text(["amazing", "zzzunknown"], lexicon) == pytest.approx(4.0)


def test_score_text_none_when_no_match():
    assert score_text(["zzzunknown"], load_default_lexicon()) is None


def test_score_text_empty_lexicon_raises():
    with pytest.raises(ValueError):
        score_text(["amazing"], {})


def test_scale_endpoints_exact():
    assert scale_to_10(-5.0) == 0.0
    assert scale_to_10(0.0) == 5.0
    assert scale_to_10(5.0) == 10.0


def test_scale_rejects_out_of_range():
    with pytest.raises(ValueError):
        scale_to_10(5.01)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_scale_monotone_and_invertible(a, b):
    if a < b:
        assert scale_to_10(a) <= scale_to_10(b)
    if b - a > 1e-9:
        assert scale_to_10(a) < scale_to_10(b)
    assert scale_to_10(a) - 5.0 == pytest.approx(a, abs=1e-12)


def test_aggregate_mean_vs_median():
    lexicon = load_default_lexicon()
    texts = {1: ["amazing trip", "disaster trip", "breathtaking views"]}
    # raw per-text scores: 4, -2, 5 -> mean 7/3, median 4
    by_mean = aggregate_airline_sentiment(texts, lexicon, method="mean")
    by_median = aggregate_airline_sentiment(texts, lexicon, method="median")
    assert by_mean[1] == pytest.approx(5 + 7 / 3)
    assert by_median[1] == pytest.approx(9.0)


def test_aggregate_omits_airline_without_matches():
    lexicon = load_default_lexicon()
    out = aggregate_airline_sentiment({1: ["zzz qqq"], 2: ["amazing"]}, lexicon, method="mean")
    assert 1 not in out and 2 in out


def test_stopword_list_does_not_swallow_content_words():
    stopwords = load_stopwords()
    assert "the" in stopwords and "a" in stopwords
    for word in ("amazing", "crew", "breathtaking", "views"):
        assert word not in stopwords
