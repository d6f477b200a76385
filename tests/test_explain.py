"""Additive per-feature decomposition of boosted-tree predictions."""

from __future__ import annotations

import math
from functools import lru_cache

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
    mags = [abs(v) for v in exp.contributions.values()]
    assert mags == sorted(mags, reverse=True)
    assert list(exp.contributions) == sorted(
        exp.contributions, key=lambda k: (-abs(exp.contributions[k]), k))


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
                      final_log_odds=0.5, final_probability=sigmoid(0.5))
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


# ------------------------------------------------- stored expectations, oracle

def _expected_value(node, cache):
    """Cover-weighted mean of the leaf weights below the node, recomputed
    recursively: the reference for the stored TreeNode.expected."""
    key = id(node)
    if key in cache:
        return cache[key]
    if node.is_leaf:
        val = node.weight
    else:
        lv = _expected_value(node.left, cache)
        rv = _expected_value(node.right, cache)
        total = node.left.cover + node.right.cover
        val = (node.left.cover * lv + node.right.cover * rv) / total if total > 0 else 0.5 * (lv + rv)
    cache[key] = val
    return val


def _explain_oracle(model, row, missing=None):
    """Path decomposition on recomputed expectations, read through numpy."""
    row = np.asarray(row, dtype=np.float64).ravel()
    if missing is None:
        missing = np.zeros(row.shape, dtype=bool)
    base = model.base_score
    contributions = {}
    cache = {}
    for tree in model.trees:
        base += _expected_value(tree, cache)
        node = tree
        current = _expected_value(node, cache)
        while not node.is_leaf:
            child = node.route(row[node.feature], bool(missing[node.feature]))
            child_val = _expected_value(child, cache)
            name = model.feature_names[node.feature]
            contributions[name] = contributions.get(name, 0.0) + (child_val - current)
            node, current = child, child_val
    final = base + sum(contributions.values())
    ordering = sorted(contributions, key=lambda k: (-abs(contributions[k]), k))
    return base, contributions, ordering, final


@lru_cache(maxsize=None)
def _oracle_case(seed):
    """A model trained on rows with missing values and subsample < 1."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 6))
    missing = rng.random(X.shape) < 0.15
    logits = 1.2 * X[:, 0] - 0.9 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
    y = (rng.random(300) < 1 / (1 + np.exp(-logits))).astype(float)
    params = gbt.GbtParams(n_trees=8, max_depth=4, subsample=0.7, colsample=0.8, seed=seed)
    return gbt.train(X, y, params, missing=missing), X, missing


_VARIANTS = {
    "trained": lambda m: m,
    "from_json": lambda m: gbt.TreeEnsemble.from_json(m.to_json()),
    "refit_lam0": lambda m: gbt.refit_leaf_weights(m, 0.0),
    "refit_lam7.5": lambda m: gbt.refit_leaf_weights(m, 7.5),
}


def _nodes(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += [node.left, node.right]


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_stored_expectations_and_explanations_equal_oracle(seed, variant):
    trained, X, missing = _oracle_case(seed)
    model = _VARIANTS[variant](trained)
    for tree in model.trees:
        cache = {}
        for node in _nodes(tree):
            assert node.expected == _expected_value(node, cache)
    for i in range(len(X)):
        for mask in (missing[i], None):
            exp = explain_prediction(model, X[i], mask)
            base, contributions, ordering, final = _explain_oracle(model, X[i], mask)
            assert exp.base == base
            assert list(exp.contributions.items()) == [(k, contributions[k]) for k in ordering]
            assert exp.final_log_odds == final


def test_zero_cover_split_expects_midpoint_of_children():
    left = gbt.TreeNode(cover=0.0, grad_sum=0.0, weight=0.3)
    right = gbt.TreeNode(cover=0.0, grad_sum=0.0, weight=-0.1)
    root = gbt.TreeNode(cover=0.0, grad_sum=0.0, feature=0, threshold=0.5, left=left, right=right)
    assert root.expected == _expected_value(root, {}) == 0.5 * (0.3 + -0.1)


def test_missing_mask_length_must_match_row():
    model, X, missing = _oracle_case(0)
    for mask in (np.zeros(7, dtype=bool), np.zeros(5, dtype=bool)):
        with pytest.raises(ValueError, match=f"missing mask has {len(mask)} entries, row has 6"):
            explain_prediction(model, X[0], mask)
