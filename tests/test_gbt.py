"""Boosted-tree learner: split oracle, hand examples, invariants, parity."""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from farecast import gbt
from farecast.gbt import (
    _PREVALENCE_CLIP, _best_split, _check_inputs, _keep_rows, _margins_tree, _presort,
    holdout_split_by_day,
)
from oracles import refit_leaf_weights, route


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# --- exhaustive split oracle -------------------------------------------------

def node_oracle_gain(X, g, h, missing, lam):
    """Brute-force best split gain over every feature, threshold and missing
    direction, for the rows given."""
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot**2 / (h_tot + lam)
    best = -np.inf
    for f in range(X.shape[1]):
        present = ~missing[:, f]
        vals = np.unique(X[present, f])
        g_miss = g[~present].sum()
        h_miss = h[~present].sum()
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = present & (X[:, f] < thr)
            right = present & ~left
            for miss_left in (True, False):
                gl = g[left].sum() + (g_miss if miss_left else 0.0)
                hl = h[left].sum() + (h_miss if miss_left else 0.0)
                gr = g_tot - gl
                hr = h_tot - hl
                gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
                best = max(best, gain)
    return best


def oracle_best_gain(X, y, missing, lam):
    """Brute-force best first-split gain at base prevalence log-odds."""
    prevalence = min(max(y.mean(), 1e-6), 1 - 1e-6)
    p = sigmoid(math.log(prevalence / (1 - prevalence)))
    g = p - y
    h = np.full_like(g, p * (1 - p))
    return node_oracle_gain(X, g, h, missing, lam)


def _random_instance(rng):
    n = int(rng.integers(5, 101))
    m = int(rng.integers(1, 5))
    X = rng.integers(0, 8, size=(n, m)).astype(float)
    y = rng.integers(0, 2, size=n).astype(float)
    missing = rng.random((n, m)) < 0.15
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y, missing


@pytest.mark.parametrize("seed", range(20))
def test_learned_split_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    X, y, missing = _random_instance(rng)
    params = gbt.GbtParams(n_trees=1, max_depth=1, gamma=0.0, lam=1.0)
    model = gbt.train(X, y, params, missing=missing)
    root = model.trees[0]
    want = oracle_best_gain(X, y, missing, params.lam)
    if root.is_leaf:
        assert want <= 0.0 + 1e-12
    else:
        assert root.gain == pytest.approx(want, abs=1e-9)


# --- hand-computed examples --------------------------------------------------

def test_identical_features_opposite_labels_stay_at_half():
    X = np.zeros((2, 1))
    y = np.array([1.0, 0.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1))
    assert model.trees[0].is_leaf
    assert model.trees[0].weight == 0.0
    assert gbt.predict_proba(model, X)[0] == pytest.approx(0.5)


def test_hand_computed_leaf_weights_and_gain():
    # Balanced perfectly-separable data: base log-odds 0, p = 0.5, so
    # g = +-0.5 and h = 0.25. Each side: G = +-1, H = 0.5, w* = -G/(H+1),
    # shrunk by eta = 0.3 -> -+0.2; split gain = 1/2 (1/1.5 + 1/1.5 - 0) = 2/3.
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1, eta=0.3, lam=1.0, gamma=0.0))
    root = model.trees[0]
    assert not root.is_leaf
    assert root.threshold == pytest.approx(0.5)
    assert root.gain == pytest.approx(2 / 3)
    assert root.left.weight == pytest.approx(-0.2)  # left side holds the zeros
    assert root.right.weight == pytest.approx(0.2)
    margins = gbt.predict_margin(model, X)
    assert margins == pytest.approx([-0.2, -0.2, 0.2, 0.2])


def test_empty_like_ensemble_predicts_base():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1, gamma=10.0))
    # huge gamma forces a single leaf with zero weight; p stays at prevalence
    assert gbt.predict_proba(model, X)[0] == pytest.approx(0.5)


def test_label_boundary_counts_as_purchase():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=1, max_depth=1, gamma=10.0))
    assert gbt.predict_label(model, X).tolist() == [1, 1]  # p = 0.5 exactly


def test_extreme_margins_give_closed_interval_without_warning():
    # margins -800, 0 and 40: exp(800) overflows to inf, so p is exactly 0.0,
    # and 1 + exp(-40) rounds to 1, so p is exactly 1.0
    def leaf(weight):
        return gbt.TreeNode(cover=1.0, grad_sum=0.0, weight=weight)

    inner = gbt.TreeNode(cover=2.0, grad_sum=0.0, feature=0, threshold=1.5,
                         left=leaf(0.0), right=leaf(40.0))
    root = gbt.TreeNode(cover=3.0, grad_sum=0.0, feature=0, threshold=0.5,
                        left=leaf(-800.0), right=inner)
    model = gbt.TreeEnsemble([root], 0.0, gbt.GbtParams(), ["x"])
    X = np.array([[0.0], [1.0], [2.0]])
    assert gbt.predict_margin(model, X).tolist() == [-800.0, 0.0, 40.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gbt.predict_proba(model, X).tolist() == [0.0, 0.5, 1.0]
        assert gbt.predict_label(model, X).tolist() == [False, True, True]


# --- invariants ---------------------------------------------------------------

def _training_data(seed=0, n=400, m=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 1] * (X[:, 2] > 0) - 0.8
    y = (rng.random(n) < sigmoid(logits)).astype(float)
    return X, y


def test_training_logloss_non_increasing():
    X, y = _training_data()
    params = gbt.GbtParams(n_trees=10, max_depth=3, eta=0.3, gamma=0.0,
                           subsample=1.0, colsample=1.0)
    model = gbt.train(X, y, params)
    margins = np.full(len(y), model.base_score)
    losses = []
    for tree in model.trees:
        margins = margins + _margins_tree(tree, X, np.zeros(X.shape, bool))
        p = sigmoid(margins)
        losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_lambda_monotonicity_on_fixed_structure():
    X, y = _training_data(1)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=5, max_depth=3, lam=1.0))

    def max_abs_leaf(m):
        out = 0.0
        def walk(node):
            nonlocal out
            if node.is_leaf:
                out = max(out, abs(node.weight))
            else:
                walk(node.left)
                walk(node.right)
        for t in m.trees:
            walk(t)
        return out

    maxima = [max_abs_leaf(refit_leaf_weights(model, lam)) for lam in (0.0, 1.0, 10.0)]
    assert maxima[0] >= maxima[1] >= maxima[2]


def test_gamma_monotonicity_of_leaf_count():
    X, y = _training_data(2)
    leaves = []
    for gamma in (0.0, 0.25, 1.0):
        model = gbt.train(X, y, gbt.GbtParams(n_trees=5, max_depth=4, gamma=gamma))
        leaves.append(model.n_leaves())
    assert leaves[0] >= leaves[1] >= leaves[2]


def test_determinism_bit_for_bit():
    X, y = _training_data(3)
    params = gbt.GbtParams(n_trees=8, max_depth=3, subsample=0.7, colsample=0.8, seed=11)
    a = gbt.train(X, y, params).to_json()
    b = gbt.train(X, y, params).to_json()
    assert a == b


def test_different_seed_changes_subsampled_model():
    X, y = _training_data(3)
    a = gbt.train(X, y, gbt.GbtParams(n_trees=8, subsample=0.5, seed=1)).to_json()
    b = gbt.train(X, y, gbt.GbtParams(n_trees=8, subsample=0.5, seed=2)).to_json()
    assert a != b


def test_serialization_roundtrip_preserves_predictions():
    X, y = _training_data(4)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=5, max_depth=3))
    back = gbt.TreeEnsemble.from_json(model.to_json())
    assert np.array_equal(gbt.predict_margin(model, X), gbt.predict_margin(back, X))
    assert back.gain_table == model.gain_table


def test_tree_node_frozen_and_expected_not_serialized():
    X, y = _training_data(4)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=5, max_depth=3))
    root = model.trees[0]
    assert not root.is_leaf
    for node in (root, root.left.left):
        for f in fields(gbt.TreeNode):
            with pytest.raises(FrozenInstanceError):
                setattr(node, f.name, getattr(node, f.name))

    def keys(d):
        yield from d
        for child in ("left", "right"):
            if child in d:
                yield from keys(d[child])

    assert "expected" not in set(keys(root.to_dict()))
    text = model.to_json()
    assert gbt.TreeEnsemble.from_json(text).to_json() == text


def test_gain_table_normalized():
    X, y = _training_data(5)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=10, max_depth=3))
    gains = gbt.feature_gain(model)
    assert sum(gains.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in gains.values())


def test_no_split_gain_table_empty():
    X = np.zeros((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=2, max_depth=2))
    assert gbt.feature_gain(model) == {}


def test_missing_direction_learned():
    # missing rows are the only positives; present values carry no signal
    X = np.array([[0.0], [0.0], [0.0], [1.0], [0.0], [0.0]])
    missing = np.array([[False], [False], [False], [False], [True], [True]])
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    model = gbt.train(X, y, gbt.GbtParams(n_trees=4, max_depth=2), missing=missing)
    p_missing = gbt.predict_proba(model, np.array([[0.0]]), np.array([[True]]))[0]
    p_zero = gbt.predict_proba(model, np.array([[0.0]]), np.array([[False]]))[0]
    assert p_missing > p_zero  # missing rows routed toward the positive side


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="labels"):
        gbt.train(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]), gbt.GbtParams())
    with pytest.raises(ValueError, match="non-finite"):
        gbt.train(np.array([[np.nan], [1.0]]), np.array([0.0, 1.0]), gbt.GbtParams())
    with pytest.raises(ValueError):
        gbt.GbtParams(eta=0.0)
    with pytest.raises(ValueError):
        gbt.GbtParams(subsample=0.0)


def test_prediction_rejects_mask_of_another_shape():
    X, y = _training_data(4, m=3)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=3, max_depth=2))
    wide = np.zeros((X.shape[0], 4), dtype=bool)
    wide[:, 3] = True  # a column the model does not have
    for predict in (gbt.predict_margin, gbt.predict_proba, gbt.predict_label):
        with pytest.raises(ValueError, match="missing mask shape"):
            predict(model, X, wide)
        with pytest.raises(ValueError, match="missing mask shape"):
            predict(model, X, np.zeros((X.shape[0] - 1, 3), dtype=bool))
    # a single row may come as 1-D arrays, mask included
    one = gbt.predict_margin(model, X[0], np.zeros(3, dtype=bool))
    assert np.array_equal(one, gbt.predict_margin(model, X[:1]))


# --- node scan ----------------------------------------------------------------

def _scan_split_py(values, grads, hess, g_miss, h_miss, lam, g_total, h_total):
    """Scalar reference scan of one feature at one node.

    `values` sorted ascending with `grads`/`hess` in the same order; the
    missing rows' pooled gradient/hessian are g_miss/h_miss. Returns the best
    (gain, threshold, missing_left) over midpoint thresholds, -1.0 gain when
    no two distinct values exist. Ties keep the first (lowest) threshold and
    prefer routing missing values left.
    """
    n = values.shape[0]
    parent = g_total * g_total / (h_total + lam)
    best_gain = -1.0
    best_thr = 0.0
    best_miss_left = True
    gl = 0.0
    hl = 0.0
    for i in range(n - 1):
        gl += grads[i]
        hl += hess[i]
        if values[i] == values[i + 1]:
            continue
        thr = 0.5 * (values[i] + values[i + 1])
        # missing left
        gl_m = gl + g_miss
        hl_m = hl + h_miss
        gr_m = g_total - gl_m
        hr_m = h_total - hl_m
        gain = 0.5 * (
            gl_m * gl_m / (hl_m + lam) + gr_m * gr_m / (hr_m + lam) - parent
        )
        if gain > best_gain:
            best_gain = gain
            best_thr = thr
            best_miss_left = True
        # missing right
        gr = g_total - g_miss - gl
        hr = h_total - h_miss - hl
        gain = 0.5 * (
            gl * gl / (hl + lam)
            + (gr + g_miss) * (gr + g_miss) / (hr + h_miss + lam)
            - parent
        )
        if gain > best_gain:
            best_gain = gain
            best_thr = thr
            best_miss_left = False
    return best_gain, best_thr, best_miss_left


def _node_instance(rng):
    """A node's rows over columns of every kind the scan must handle: integer
    ties, a constant column, an all-missing column, no-missing columns, heavy
    missingness, and a duplicate column (a tie between features)."""
    n = int(rng.integers(2, 80))
    ties = rng.integers(0, 4, size=n).astype(float)
    cols = [
        (ties, rng.random(n) < 0.2),
        (np.full(n, 2.0), rng.random(n) < 0.3),
        (rng.normal(size=n), np.ones(n, dtype=bool)),
        (rng.normal(size=n), np.zeros(n, dtype=bool)),
        (rng.integers(0, 8, size=n).astype(float), np.zeros(n, dtype=bool)),
        (np.round(rng.normal(size=n), 1), rng.random(n) < 0.5),
    ]
    cols.append(cols[int(rng.integers(len(cols)))])
    order = rng.permutation(len(cols))
    X = np.column_stack([cols[j][0] for j in order])
    missing = np.column_stack([cols[j][1] for j in order])
    g = rng.normal(size=n)
    h = rng.random(n) * 0.25 + 0.01
    idx = np.flatnonzero(rng.random(n) < 0.8)
    if idx.shape[0] < 2:
        idx = np.arange(n)
    m = X.shape[1]
    feat_ids = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
    return X, missing, g, h, idx, feat_ids


@pytest.mark.parametrize("seed", range(10))
def test_numpy_and_python_kernels_agree(seed):
    """The all-features numpy node scan equals the scalar scan run feature
    by feature, with the first strictly better feature kept."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        X, missing, g, h, idx, feat_ids = _node_instance(rng)
        lam = float(rng.choice([0.5, 1.0, 3.0]))
        g_tot, h_tot = float(g[idx].sum()), float(h[idx].sum())
        want = (-1.0, -1, 0.0, True)
        blocks = []
        for f in feat_ids:
            present = idx[~missing[idx, f]]
            rows = present[np.argsort(X[present, f], kind="stable")]
            blocks.append(np.concatenate([rows, idx[missing[idx, f]]]))
            gain, thr, miss_left = _scan_split_py(
                X[rows, f], g[rows], h[rows],
                g_tot - float(g[present].sum()), h_tot - float(h[present].sum()),
                lam, g_tot, h_tot,
            )
            if gain > want[0]:
                want = (gain, int(f), thr, miss_left)
        got = _best_split(X, missing, g, h, idx, np.array(blocks), feat_ids, g_tot, h_tot, lam)
        assert got == (want if want[1] >= 0 else None)


# The all-features kernel as it stood before the complex running sum and the
# single-direction pass: two float cumsums and both missing routings at every
# candidate. Kept verbatim as the oracle the current kernel must equal.
def _best_split_oracle(
    X: np.ndarray,
    missing: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    block: np.ndarray,
    feat_ids: np.ndarray,
    g_total: float,
    h_total: float,
    lam: float,
) -> tuple[float, int, float, bool] | None:
    """Best (gain, feature, threshold, missing_left) at one node, or None.

    idx holds the node's rows in ascending order; block[j] the same rows in
    the presorted order of feature feat_ids[j]. All features are scanned at
    once: cumulative G/H run along each block's present rows, and the gain

        0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - GT^2/(HT+lam))

    is evaluated at every boundary between distinct values, once with the
    missing rows sent left and once sent right. Ties keep the lowest
    feature, then the lowest threshold, then missing routed left.
    """
    n_feat, k = block.shape
    # a boundary needs distinct values on both sides, and present rows only:
    # missing rows sit at the end of each block
    vals = X[block, feat_ids[:, None]]
    valid = vals[:, :-1] != vals[:, 1:]
    del vals  # freed before the G/H blocks to keep peak memory down
    gl = g[block[:, :-1]]
    hl = h[block[:, :-1]]
    np.cumsum(gl, axis=1, out=gl)
    np.cumsum(hl, axis=1, out=hl)
    # a feature with no missing row in the node keeps exactly zero missing
    # mass: g_total minus a re-summed total would leave rounding noise that
    # can flip the missing-left tie
    g_miss = np.zeros(n_feat)
    h_miss = np.zeros(n_feat)
    g_node, h_node = g[idx], h[idx]
    for j in np.flatnonzero(missing[block[:, -1], feat_ids]):
        present = ~missing[idx, feat_ids[j]]
        valid[j, max(int(present.sum()) - 1, 0):] = False
        g_miss[j] = g_total - float(g_node[present].sum())
        h_miss[j] = h_total - float(h_node[present].sum())

    at = np.flatnonzero(valid)
    if at.shape[0] == 0:
        return None
    feat, pos = np.divmod(at, k - 1)
    gl, hl = gl.ravel()[at], hl.ravel()[at]
    g_miss, h_miss = g_miss[feat], h_miss[feat]
    parent = g_total * g_total / (h_total + lam)
    gl_m = gl + g_miss
    hl_m = hl + h_miss
    gr = g_total - g_miss - gl
    hr = h_total - h_miss - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain_left = 0.5 * (
            gl_m**2 / (hl_m + lam)
            + (g_total - gl_m) ** 2 / (h_total - hl_m + lam)
            - parent
        )
        gain_right = 0.5 * (
            gl**2 / (hl + lam)
            + (gr + g_miss) ** 2 / (hr + h_miss + lam)
            - parent
        )
    take_left = gain_left >= gain_right
    gain = np.where(take_left, gain_left, gain_right)
    # a zero denominator (lam = 0) can give nan or inf; as in a scan of each
    # feature alone, a feature whose best gain is not finite offers no split
    bad = np.isnan(gain) | (gain == np.inf)
    if bad.any():
        gain[np.isin(feat, feat[bad])] = -np.inf
    best = int(gain.argmax())
    if gain[best] <= -1.0:  # -1 is the no-split gain of a single-feature scan
        return None
    j, p = feat[best], pos[best]
    f = int(feat_ids[j])
    thr = 0.5 * (X[block[j, p], f] + X[block[j, p + 1], f])
    return float(gain[best]), f, float(thr), bool(take_left[best])


def _oracle_nodes(rng, n_nodes):
    """_node_instance nodes with their presorted blocks, in three kinds: as
    drawn, with no missing row anywhere, and with a missing row in every
    selected feature; every other node also gets zero hessians on some rows,
    so that lam = 0 meets zero denominators."""
    for i in range(n_nodes):
        X, missing, g, h, idx, feat_ids = _node_instance(rng)
        if i % 3 == 1:
            missing[:] = False
        elif i % 3 == 2:
            missing[idx[int(rng.integers(idx.shape[0]))], feat_ids] = True
        if i % 2:
            h[rng.random(h.shape[0]) < 0.3] = 0.0
            h[idx[0]] = 0.1  # keeps the node's hessian mass positive
        block = _keep_rows(_presort(X, missing)[feat_ids], idx, X.shape[0])
        yield X, missing, g, h, idx, block, feat_ids


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_kernel_equals_pre_rewrite_oracle(seed, lam):
    rng = np.random.default_rng(seed)
    kinds = {"none": 0, "split": 0}
    for X, missing, g, h, idx, block, feat_ids in _oracle_nodes(rng, 60):
        g_tot, h_tot = float(g[idx].sum()), float(h[idx].sum())
        want = _best_split_oracle(X, missing, g, h, idx, block, feat_ids, g_tot, h_tot, lam)
        got = _best_split(X, missing, g, h, idx, block, feat_ids, g_tot, h_tot, lam)
        assert got == want
        kinds["none" if want is None else "split"] += 1
    assert min(kinds.values()) > 0


def test_lam0_feature_with_infinite_gain_offers_no_split():
    # at lam = 0, feature 0's first boundary leaves a zero-hessian row alone on
    # the left: GL^2 / HL is inf, so feature 0 offers no split and feature 1's
    # boundary (GL = 1, HL = 0.25, GR = -1, HR = 0.5, gain 3) wins
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
    missing = np.zeros(X.shape, dtype=bool)
    g = np.array([0.5, 0.5, -0.5, -0.5])
    h = np.array([0.0, 0.25, 0.25, 0.25])
    idx = np.arange(4)
    block = _presort(X, missing)
    args = (X, missing, g, h, idx, block, np.arange(2), 0.0, 0.75, 0.0)
    assert _best_split(*args) == _best_split_oracle(*args) == (3.0, 1, 0.5, True)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_model_equals_pre_rewrite_oracle_model(pipeline, monkeypatch, lam):
    X, missing, names = pipeline.tables["LHR-JFK"].model_matrix()
    y = pipeline.tables["LHR-JFK"].labels()
    X, missing, y = X[:500], missing[:500], y[:500]
    params = gbt.GbtParams(subsample=0.7, colsample=0.6, lam=lam, seed=1)
    got = gbt.train(X, y, params, feature_names=names, missing=missing)
    # the kernel reads X by flat index; any memory layout gives the same model
    fortran = gbt.train(np.asfortranarray(X), y, params, feature_names=names, missing=missing)
    assert fortran.to_json() == got.to_json()
    monkeypatch.setattr(gbt, "_best_split", _best_split_oracle)
    want = gbt.train(X, y, params, feature_names=names, missing=missing)
    assert got.n_leaves() > 2 * len(got.trees)
    assert got.to_json() == want.to_json()


# Tree growing as it stood before features without values were left out of
# the blocks and each split gathered its children's rows once: every feature
# drawn gets a block, and each child gets one whether or not it is scanned.
# Kept verbatim (the names aside) as the oracle the current train must equal.
def _keep_rows_oracle(block: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The blocks restricted to the rows where keep is set. A stable filter
    keeps every block sorted, so no block is ever sorted again."""
    return block[keep[block]].reshape(block.shape[0], -1)


def _grow_node_oracle(
    X: np.ndarray,
    missing: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    block: np.ndarray,
    depth: int,
    feat_ids: np.ndarray,
    params: gbt.GbtParams,
) -> gbt.TreeNode:
    g_total = float(g[idx].sum())
    h_total = float(h[idx].sum())

    split = None
    if depth < params.max_depth and idx.shape[0] >= 2:
        split = _best_split(
            X, missing, g, h, idx, block, feat_ids, g_total, h_total, params.lam
        )
    if split is None or split[0] - params.gamma <= 0.0:
        weight = -g_total / (h_total + params.lam) * params.eta
        return gbt.TreeNode(cover=h_total, grad_sum=g_total, weight=weight)

    gain, feature, threshold, missing_left = split
    goes_left = np.where(missing[idx, feature], missing_left, X[idx, feature] < threshold)
    left_rows = np.zeros(X.shape[0], dtype=bool)
    left_rows[idx[goes_left]] = True
    left = _grow_node_oracle(
        X, missing, g, h, idx[goes_left], _keep_rows_oracle(block, left_rows),
        depth + 1, feat_ids, params,
    )
    right = _grow_node_oracle(
        X, missing, g, h, idx[~goes_left], _keep_rows_oracle(block, ~left_rows),
        depth + 1, feat_ids, params,
    )
    return gbt.TreeNode(
        cover=h_total, grad_sum=g_total, feature=feature, threshold=threshold,
        missing_left=missing_left, gain=gain, left=left, right=right,
    )


def _train_oracle(
    X: np.ndarray,
    y: np.ndarray,
    params: gbt.GbtParams,
    feature_names=None,
    missing: np.ndarray | None = None,
) -> gbt.TreeEnsemble:
    """Fit the boosted ensemble; deterministic given (data, params, seed)."""
    X = np.ascontiguousarray(X, dtype=np.float64)  # _best_split reads it by flat index
    y = np.asarray(y, dtype=np.float64)
    missing = _check_inputs(X, y, missing)
    n, m = X.shape
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(m)]
    if len(names) != m:
        raise ValueError("feature_names length must match column count")

    prevalence = min(max(float(y.mean()), _PREVALENCE_CLIP), 1 - _PREVALENCE_CLIP)
    base_score = math.log(prevalence / (1 - prevalence))
    rng = np.random.default_rng(params.seed)

    margins = np.full(n, base_score)
    trees: list[gbt.TreeNode] = []
    order = _presort(X, missing)
    n_sub = max(1, round(params.subsample * n))
    m_sub = max(1, round(params.colsample * m))
    for _ in range(params.n_trees):
        p = 1.0 / (1.0 + np.exp(-margins))
        g = p - y
        h = p * (1.0 - p)
        rows = (
            np.sort(rng.choice(n, size=n_sub, replace=False))
            if n_sub < n else np.arange(n)
        )
        cols = (
            np.sort(rng.choice(m, size=m_sub, replace=False))
            if m_sub < m else np.arange(m)
        )
        block = order[cols] if m_sub < m else order
        if n_sub < n:
            in_tree = np.zeros(n, dtype=bool)
            in_tree[rows] = True
            block = _keep_rows_oracle(block, in_tree)
        tree = _grow_node_oracle(X, missing, g, h, rows, block, 0, cols, params)
        trees.append(tree)
        margins += _margins_tree(tree, X, missing)

    return gbt.TreeEnsemble(trees=trees, base_score=base_score, params=params, feature_names=names)


def _assert_grows_as_oracle(X, y, params, missing, names=None):
    got = gbt.train(X, y, params, feature_names=names, missing=missing)
    want = _train_oracle(X, y, params, feature_names=names, missing=missing)
    assert got.to_json() == want.to_json()
    return got


@pytest.mark.parametrize("m", [0, 1, 6])
def test_keep_rows_equals_oracle(m):
    """One row, all rows and random subsets of a full block and of a block
    already cut down; with no feature only the shape is left to check, and
    the oracle cannot infer it."""
    rng = np.random.default_rng(m)
    n = 50
    X = np.round(rng.normal(size=(n, m)), 1)
    missing = rng.random((n, m)) < 0.2
    full = _presort(X, missing)
    part = np.sort(rng.choice(n, size=30, replace=False))
    in_part = np.zeros(n, dtype=bool)
    in_part[part] = True
    cut = _keep_rows_oracle(full, in_part) if m else np.empty((0, 30), dtype=full.dtype)
    checked = 0
    for block, own in ((full, np.arange(n)), (cut, part)):
        subsets = [own[:1], own[-1:], own] + [
            np.sort(rng.choice(own, size=k, replace=False)) for k in (2, 7, 15, own.shape[0] - 1)
        ]
        for rows in subsets:
            keep = np.zeros(n, dtype=bool)
            keep[rows] = True
            got = _keep_rows(block, rows, n)
            assert got.shape == (m, rows.shape[0]) and got.dtype == block.dtype
            if m:
                np.testing.assert_array_equal(got, _keep_rows_oracle(block, keep))
            checked += 1
    assert checked == 14


def test_fixture_models_equal_pre_rewrite_growing(pipeline):
    """Every fixture market, by default and subsampled; each has features
    missing on every row (sc1 and sc2), which no longer get a block."""
    for od, table in pipeline.tables.items():
        X, missing, names = table.model_matrix()
        y = table.labels()
        X, missing, y = X[:600], missing[:600], y[:600]
        assert missing.all(axis=0).sum() >= 2, od
        for params in (gbt.GbtParams(seed=1),
                       gbt.GbtParams(subsample=0.7, colsample=0.6, lam=0.0, seed=2)):
            model = _assert_grows_as_oracle(X, y, params, missing, names)
            assert model.n_leaves() > 2 * len(model.trees), od


def _sparse_instance(rng):
    """Columns of every kind the growing must handle: two missing on every
    row, one holding NaN and one varied placeholder values in its missing
    cells; one present only where column 0 is 0.5 or more, so it is missing
    on every row of a node that a split on column 0 at 0 sends left; integer ties;
    and scattered missing cells. The label is the sign of column 0, one in
    ten flipped."""
    n = int(rng.integers(30, 160))
    x0 = np.round(rng.normal(size=n), 1)
    cols = [
        (x0, np.zeros(n, dtype=bool)),
        (np.full(n, np.nan), np.ones(n, dtype=bool)),
        (rng.normal(size=n) * 100.0, np.ones(n, dtype=bool)),
        (rng.normal(size=n), x0 < 0.5),
        (rng.integers(0, 4, size=n).astype(float), np.zeros(n, dtype=bool)),
        (np.round(rng.normal(size=n), 1), rng.random(n) < 0.3),
    ]
    order = [0] + list(1 + rng.permutation(len(cols) - 1))
    X = np.column_stack([cols[j][0] for j in order])
    missing = np.column_stack([cols[j][1] for j in order])
    y = ((x0 >= 0.0) ^ (rng.random(n) < 0.1)).astype(float)
    return X, y, missing


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_sparse_models_equal_pre_rewrite_growing(seed, lam, max_depth):
    rng = np.random.default_rng(seed)
    X, y, missing = _sparse_instance(rng)
    samples = [(1.0, 1.0), (0.5, 0.5), (0.7, 1.0), (1.0, 0.4)]
    for subsample, colsample in samples:
        params = gbt.GbtParams(n_trees=4, max_depth=max_depth, gamma=0.0, lam=lam,
                               subsample=subsample, colsample=colsample, seed=seed)
        model = _assert_grows_as_oracle(X, y, params, missing)
        if (subsample, colsample) == (1.0, 1.0) and max_depth > 1:
            assert _scans_a_node_where_a_partly_missing_column_has_no_value(model, X, missing)


def _scans_a_node_where_a_partly_missing_column_has_no_value(model, X, missing):
    partly = missing.any(axis=0) & ~missing.all(axis=0)
    for tree in model.trees:
        stack = [(tree, np.arange(X.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            scanned = depth < model.params.max_depth and rows.shape[0] >= 2
            if scanned and missing[rows][:, partly].all(axis=0).any():
                return True
            if not node.is_leaf:
                f = node.feature
                left = np.where(missing[rows, f], node.missing_left, X[rows, f] < node.threshold)
                stack += [(node.left, rows[left], depth + 1), (node.right, rows[~left], depth + 1)]
    return False


@pytest.mark.parametrize("m", [0, 3])
def test_features_without_values_give_single_leaf_trees(m):
    """No column, or only columns missing on every row: no block has a
    feature, and each tree is one leaf even with rows and columns sampled."""
    rng = np.random.default_rng(m)
    X = rng.normal(size=(40, m))
    missing = np.ones(X.shape, dtype=bool)
    y = (rng.random(40) < 0.4).astype(float)
    params = gbt.GbtParams(n_trees=3, subsample=0.5, colsample=0.5, seed=1)
    model = gbt.train(X, y, params, missing=missing)
    assert [t.is_leaf for t in model.trees] == [True] * 3
    assert gbt.feature_gain(model) == {}
    p = gbt.predict_proba(model, X, missing)
    assert p.shape == (40,) and np.all(p == p[0])


def test_every_node_gain_matches_oracle_at_depth_3():
    rng = np.random.default_rng(3)
    n, m = 240, 4
    X = rng.integers(0, 6, size=(n, m)).astype(float)
    missing = rng.random((n, m)) < 0.15
    y = (rng.random(n) < sigmoid(X[:, 0] - X[:, 1] * (X[:, 2] > 2) - 0.5)).astype(float)
    params = gbt.GbtParams(n_trees=2, max_depth=3, gamma=0.0, lam=1.0)
    model = gbt.train(X, y, params, missing=missing)
    margins = np.full(n, model.base_score)
    checked = 0
    for tree in model.trees:
        p = sigmoid(margins)
        g, h = p - y, p * (1 - p)
        stack = [(tree, np.arange(n), 0)]
        while stack:
            node, rows, depth = stack.pop()
            want = node_oracle_gain(X[rows], g[rows], h[rows], missing[rows], params.lam)
            if node.is_leaf:
                assert depth == params.max_depth or rows.shape[0] < 2 or want <= 1e-12
                margins[rows] += node.weight
                continue
            assert node.gain == pytest.approx(want, abs=1e-9)
            checked += 1
            left = np.array([route(node, X[i, node.feature], missing[i, node.feature]) is node.left
                             for i in rows], dtype=bool)
            stack += [(node.left, rows[left], depth + 1), (node.right, rows[~left], depth + 1)]
    assert checked >= 8


def test_mask_routing_matches_per_row_walk():
    rng = np.random.default_rng(12)
    n, m = 300, 5
    X = np.round(rng.normal(size=(n, m)), 1)
    missing = rng.random((n, m)) < 0.2
    y = (rng.random(n) < sigmoid(X[:, 0] + missing[:, 1] - 0.3)).astype(float)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=5, max_depth=4, gamma=0.0), missing=missing)

    # fresh rows, plus rows sitting exactly on every threshold
    splits = []
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            splits.append((node.feature, node.threshold))
            stack += [node.left, node.right]
    X_eval = np.round(rng.normal(size=(200, m)), 1)
    on_threshold = np.zeros((len(splits), m))
    for i, (f, thr) in enumerate(splits):
        on_threshold[i, f] = thr
    X_eval = np.vstack([X_eval, on_threshold])
    miss_eval = rng.random(X_eval.shape) < 0.2

    def walk(tree, x, miss):
        node = tree
        while not node.is_leaf:
            node = route(node, x[node.feature], bool(miss[node.feature]))
        return node.weight

    for tree in model.trees:
        want = np.array([walk(tree, X_eval[i], miss_eval[i]) for i in range(X_eval.shape[0])])
        assert np.array_equal(_margins_tree(tree, X_eval, miss_eval), want)


# --- holdout ------------------------------------------------------------------

def test_holdout_takes_latest_days():
    days = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    mask = holdout_split_by_day(days, 0.2)
    assert set(days[mask]) == {5}
    assert set(days[~mask]) == {1, 2, 3, 4}
