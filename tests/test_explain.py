"""Additive per-feature decomposition of boosted-tree predictions."""

from __future__ import annotations

import csv
import io
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
from farecast.gbt import sigmoid as model_sigmoid
from oracles import refit_leaf_weights, route


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
            child = route(node, row[node.feature], bool(missing[node.feature]))
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
    "refit_lam0": lambda m: refit_leaf_weights(m, 0.0),
    "refit_lam7.5": lambda m: refit_leaf_weights(m, 7.5),
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


def test_rows_on_a_threshold_route_as_tree_node_route():
    # a value equal to a split threshold goes right; the oracle routes with
    # oracles.route, so this pins the inlined routing at ties
    model, X, missing = _oracle_case(0)
    splits = {(n.feature, n.threshold) for t in model.trees for n in _nodes(t) if not n.is_leaf}
    assert splits
    for f, threshold in sorted(splits):
        row = X[0].copy()
        row[f] = threshold
        mask = missing[0].copy()
        mask[f] = False
        exp = explain_prediction(model, row, mask)
        base, contributions, ordering, final = _explain_oracle(model, row, mask)
        assert list(exp.contributions.items()) == [(k, contributions[k]) for k in ordering]
        assert (exp.base, exp.final_log_odds) == (base, final)


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


# ------------------------------------------------------ render, scalar oracle

def _trace_oracle(explanation):
    """(feature, log-odds contribution, cumulative probability) rows."""
    rows = [("(base)", explanation.base, model_sigmoid(explanation.base))]
    running = explanation.base
    for name, lo in explanation.contributions.items():
        running += lo
        rows.append((name, lo, model_sigmoid(running)))
    return rows


def _render_oracle(explanation, max_features=None):
    """Row-at-a-time waterfall with a running sum and a four-spec f-string."""
    rows = _trace_oracle(explanation)
    if max_features is not None:
        if max_features < 0:
            raise ValueError(f"max_features must be >= 0, got {max_features}")
        rows = rows[: max_features + 1]
    lines = ["feature                      log_odds   delta_prob  cum_prob"]
    prev_p = None
    for name, lo, p in rows:
        delta = "" if prev_p is None else f"{p - prev_p:+10.4f}"
        marker = " <-- crosses 0.5" if prev_p is not None and (prev_p < 0.5) != (p < 0.5) else ""
        lines.append(f"{name:<28} {lo:+9.4f} {delta:>10}  {p:8.4f}{marker}")
        prev_p = p
    verdict = "purchase" if explanation.final_probability >= 0.5 else "no purchase"
    lines.append(
        f"final: log_odds={explanation.final_log_odds:+.4f} "
        f"p={explanation.final_probability:.4f} -> {verdict} (cut-off 0.5)"
    )
    return "\n".join(lines)


_MAX_FEATURES = (None, 0, 1, 3, 99)


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_render_equals_oracle_on_every_row(seed, variant):
    trained, X, missing = _oracle_case(seed)
    model = _VARIANTS[variant](trained)
    for i in range(len(X)):
        for mask in (missing[i], None):
            exp = explain_prediction(model, X[i], mask)
            for top in _MAX_FEATURES:
                assert render_waterfall(exp, top) == _render_oracle(exp, top)


def _hand(base, contributions):
    final = base + sum(contributions.values())
    return Explanation(base=base, contributions=contributions,
                       final_log_odds=final, final_probability=model_sigmoid(final))


_HAND_BUILT = {
    "crosses_up_then_down": _hand(-0.2, {"up": 0.5, "down": -0.6, "flat": 0.05}),
    "base_at_half": _hand(0.0, {"a": -0.1, "b": 0.3}),
    "final_at_half": _hand(0.25, {"a": 0.5, "b": -0.75}),
    "empty": _hand(-1.5, {}),
    "long_name": _hand(0.4, {"x" * 40: -0.9, "short": 0.1}),
    "non_finite": _hand(0.3, {"nan": math.nan, "pos_inf": math.inf, "neg_inf": -math.inf,
                              "neg_zero": -0.0, "huge": 1e300}),
    "signed_zeros": _hand(-0.0, {"z": -0.0, "inf": math.inf, "back": -math.inf}),
}


@pytest.mark.parametrize("case", sorted(_HAND_BUILT))
def test_render_equals_oracle_on_hand_built_explanations(case):
    exp = _HAND_BUILT[case]
    for top in _MAX_FEATURES:
        assert render_waterfall(exp, top) == _render_oracle(exp, top)


def test_hand_built_edges_render_as_intended():
    lines = render_waterfall(_HAND_BUILT["crosses_up_then_down"]).splitlines()
    assert [line.split()[0] for line in lines if line.endswith("<-- crosses 0.5")] == ["up", "down"]
    base_row = render_waterfall(_HAND_BUILT["base_at_half"]).splitlines()[1]
    assert base_row == f"{'(base)':<28} {0.0:+9.4f} {'':>10}  {0.5:8.4f}"
    exp = _HAND_BUILT["final_at_half"]
    assert exp.final_probability == 0.5
    assert render_waterfall(exp).endswith("p=0.5000 -> purchase (cut-off 0.5)")
    assert len(render_waterfall(_HAND_BUILT["empty"]).splitlines()) == 3
    assert render_waterfall(_HAND_BUILT["long_name"]).splitlines()[2].startswith("x" * 40 + " ")


def _oracle_file(explanation, comment):
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(["feature", "log_odds", "cumulative_probability"])
    writer.writerows([name, f"{lo:.10g}", f"{p:.10g}"] for name, lo, p in _trace_oracle(explanation))
    return buf.getvalue().encode("utf-8")


def test_waterfall_data_file_equals_oracle(tmp_path):
    trained, X, missing = _oracle_case(0)
    cases = [explain_prediction(trained, X[i], missing[i]) for i in range(0, len(X), 30)]
    cases += [_HAND_BUILT[case] for case in sorted(_HAND_BUILT)]
    path = tmp_path / "waterfall.csv"
    for exp in cases:
        write_waterfall_data(exp, path, header_comment="seed=0")
        assert path.read_bytes() == _oracle_file(exp, "seed=0")
