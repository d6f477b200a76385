"""Additive per-feature decomposition of boosted-tree predictions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from farecast import gbt
from farecast.explain import (
    Explanation,
    explain_prediction,
    render_waterfall,
    write_waterfall_data,
)


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_hand_example_single_depth1_tree():
    # One split: G/H masses known, so expected values are checkable by hand.
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1, eta=0.3, gamma=0.0),
                      feature_names=["x"])
    # leaves hold -+0.2 with equal cover, so the root expectation is 0
    exp = explain_prediction(model, np.array([1.0]))
    assert exp.base == pytest.approx(0.0)
    assert exp.contributions["x"] == pytest.approx(0.2)
    assert exp.final_log_odds == pytest.approx(0.2)
    assert exp.final_probability == pytest.approx(sigmoid(0.2))


def _model_and_rows(seed=0, n=300, m=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    missing = rng.random((n, m)) < 0.1
    logits = 1.2 * X[:, 0] - 0.9 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=8, max_depth=3, seed=3),
                      missing=missing)
    return model, X, missing


def test_additivity_exact_across_rows():
    model, X, missing = _model_and_rows()
    probs = gbt.predict_proba(model, X, missing)
    for i in range(len(X)):
        exp = explain_prediction(model, X[i], missing[i])
        total = exp.base + sum(exp.contributions.values())
        assert abs(1 / (1 + math.exp(-total)) - probs[i]) <= 1e-9


def test_contributions_ordered_by_magnitude():
    model, X, missing = _model_and_rows(1)
    exp = explain_prediction(model, X[0], missing[0])
    mags = [abs(exp.contributions[name]) for name in exp.ordering]
    assert mags == sorted(mags, reverse=True)
    assert set(exp.ordering) == set(exp.contributions)


def test_waterfall_render_mentions_verdict_and_features():
    model, X, missing = _model_and_rows(2)
    exp = explain_prediction(model, X[3], missing[3])
    text = render_waterfall(exp)
    assert "base" in text
    assert ("purchase" in text) or ("no purchase" in text)
    top_feature = next(iter(exp.contributions))
    assert top_feature in text


def test_waterfall_row_limit():
    exp = Explanation(base=0.1, contributions={"a": 0.5, "b": -0.3, "c": 0.2},
                      final_log_odds=0.5, final_probability=sigmoid(0.5),
                      ordering=["a", "b", "c"])
    rows = [line.split()[0] for line in render_waterfall(exp).splitlines()[1:-1]]
    assert rows == ["(base)", "a", "b", "c"]
    for top in (0, 1, 3, 10):
        shown = [line.split()[0] for line in render_waterfall(exp, top).splitlines()[1:-1]]
        assert shown == rows[: top + 1]
    with pytest.raises(ValueError, match="max_features"):
        render_waterfall(exp, max_features=-2)


def test_waterfall_data_file(tmp_path):
    model, X, missing = _model_and_rows(3)
    exp = explain_prediction(model, X[0], missing[0])
    path = tmp_path / "waterfall.csv"
    write_waterfall_data(exp, path, header_comment="seed=3")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "feature,log_odds,cumulative_probability"
    # last cumulative probability equals the model's prediction
    last_p = float(lines[-1].split(",")[2])
    assert last_p == pytest.approx(exp.final_probability, abs=1e-9)


def test_zero_contribution_for_unused_feature():
    X = np.array([[0.0, 7.0], [0.0, 7.0], [1.0, 7.0], [1.0, 7.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1, gamma=0.0),
                      feature_names=["used", "constant"])
    exp = explain_prediction(model, X[0])
    assert exp.contributions.get("constant", 0.0) == 0.0
