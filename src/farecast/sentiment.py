"""Lexicon-based sentiment scoring aggregated per airline on a 0-10 scale.

Review free text is scored as the mean lexicon valence of its matched tokens
and airline review sentiment is aggregated by mean; tweet sentiment is
aggregated by median. Raw scores live in [-5, 5] and are mapped to [0, 10]
by adding 5.
"""

from __future__ import annotations

import logging
import re
import statistics
from functools import cache
from importlib import resources
from typing import Literal, Mapping, Sequence

from .ingest import parse_dataset

__all__ = [
    "load_stopwords",
    "lexicon_from",
    "load_default_lexicon",
    "tokenize",
    "score_text",
    "scale_to_10",
    "aggregate_airline_sentiment",
]

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[^0-9a-z]+")


@cache
def load_stopwords() -> frozenset[str]:
    """Fixed, versioned English stop-word list shipped with the package."""
    text = resources.files("farecast.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def lexicon_from(columns: Mapping[str, Sequence]) -> dict[str, int]:
    """word -> integer score in -5..5, from the parsed columns of a lexicon
    file; a word given twice keeps its last score."""
    return dict(zip(columns["word"], columns["score"].tolist()))


def load_default_lexicon() -> dict[str, int]:
    """The valence lexicon subset shipped with the package."""
    with resources.as_file(resources.files("farecast.data").joinpath("lexicon.csv")) as path:
        return lexicon_from(parse_dataset(path, "lexicon").columns)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop stop words; order preserved.

    Internal apostrophes are removed before splitting, so "don't" -> "dont".
    """
    stopwords = load_stopwords()
    lowered = text.lower().replace("'", "").replace("’", "")
    tokens = [tok for tok in _WORD_RE.split(lowered) if tok]
    return [tok for tok in tokens if tok not in stopwords]


def score_text(tokens: Sequence[str], lexicon: Mapping[str, int]) -> float | None:
    """Mean lexicon score over matched tokens; None when nothing matches."""
    if not lexicon:
        raise ValueError("lexicon must be nonempty")
    scores = [lexicon[tok] for tok in tokens if tok in lexicon]
    if not scores:
        return None
    return sum(scores) / len(scores)


def scale_to_10(raw: float) -> float:
    """Affine map from [-5, 5] onto [0, 10]."""
    if not -5.0 <= raw <= 5.0:
        raise ValueError(f"raw sentiment {raw} outside [-5, 5]")
    return raw + 5.0


def aggregate_airline_sentiment(
    texts_by_airline: Mapping[int, Sequence[str]],
    lexicon: Mapping[str, int],
    method: Literal["mean", "median"],
) -> dict[int, float]:
    """Score each text and reduce per airline to a 0-10 score with the
    requested statistic.

    Texts with no lexicon match are excluded from the aggregate. Airlines
    without a single scored text are omitted with a warning.
    """
    if method not in ("mean", "median"):
        raise ValueError(f"unknown aggregation method: {method!r}")
    reduce = statistics.mean if method == "mean" else statistics.median
    out: dict[int, float] = {}
    for airline_id in sorted(texts_by_airline):
        raws: list[float] = []
        for text in texts_by_airline[airline_id]:
            raw = score_text(tokenize(text), lexicon)
            if raw is not None:
                raws.append(raw)
        if not raws:
            log.warning("airline %s: no text matched the lexicon; omitted", airline_id)
            continue
        out[airline_id] = scale_to_10(reduce(raws))
    return out
