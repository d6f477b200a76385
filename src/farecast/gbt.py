"""From-scratch gradient boosted trees with a binary logistic objective.

Second-order boosting on the binary logistic loss: per round, gradients
g_i = p_i - y_i and hessians h_i = p_i (1 - p_i) at the current margin;
trees are grown by exact greedy split search (midpoint thresholds) over
column blocks presorted once per fit, one vectorized pass over a complex
G + iH running sum scanning every feature of a node; each split learns the
routing of missing values (scored both ways only where a feature has them).
Leaf weights are the Newton step -G/(H + lam) shrunk by eta. Splits must
improve the structure score by more than gamma.

Work whose result no split can use is skipped, so every model is the same as
with it: a feature missing on every training row gets no block (it has no
boundary, so it could never split), and a node cuts its parent's block down
to its own rows only when it is scanned (below max_depth, with 2 rows or more).

Models serialize to self-describing JSON, checked value by value on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence, get_type_hints

import numpy as np

__all__ = [
    "GbtParams",
    "TreeNode",
    "TreeEnsemble",
    "sigmoid",
    "feature_gain",
    "train",
    "predict_margin",
    "predict_proba",
    "predict_label",
    "holdout_split_by_day",
    "numba_enabled",
]

_PREVALENCE_CLIP = 1e-6


def numba_enabled() -> bool:
    """Always False: the split search is plain numpy, with no JIT path."""
    return False


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class GbtParams:
    eta: float = 0.3
    n_trees: int = 10
    max_depth: int = 4
    subsample: float = 1.0
    colsample: float = 1.0
    gamma: float = 0.25
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # types first: the comparisons below would take a bool as 0 or 1
        for name, kind in get_type_hints(GbtParams).items():
            value = getattr(self, name)
            if kind is int and type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an integer")
            if kind is float and type(value) not in (int, float):
                raise ValueError(f"{name} {value!r} is not a number")
        if not all(math.isfinite(v) for v in (self.eta, self.gamma, self.lam)):
            raise ValueError("eta, gamma and lam must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be >= 1")
        if not (0 < self.subsample <= 1 and 0 < self.colsample <= 1):
            raise ValueError("subsample and colsample must be in (0, 1]")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("gamma and lam must be nonnegative")


@dataclass(frozen=True)
class TreeNode:
    """Either a split node (feature/threshold/children) or a leaf (weight).

    cover is the hessian mass of the training rows routed through the node;
    grad_sum the corresponding gradient mass (kept so leaf weights can be
    re-derived for any ridge penalty). gain is the realized structure-score
    improvement of the split, 0 for leaves. Leaf weights already include the
    learning-rate shrinkage.

    expected is the cover-weighted mean of the leaf weights below the node.
    It is derived from the children once, when the node is built or loaded,
    and never serialized; the node is frozen so it cannot go stale.
    """

    cover: float
    grad_sum: float
    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    missing_left: bool = True
    gain: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None
    expected: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.left is None:
            val = self.weight
        else:
            lc, le = self.left.cover, self.left.expected
            rc, re = self.right.cover, self.right.expected
            total = lc + rc
            val = (lc * le + rc * re) / total if total > 0 else 0.5 * (le + re)
        object.__setattr__(self, "expected", val)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.n_leaves() + self.right.n_leaves()

    def to_dict(self) -> dict:
        d = {"cover": self.cover, "grad_sum": self.grad_sum}
        if self.is_leaf:
            d["weight"] = self.weight
        else:
            d.update(
                feature=self.feature,
                threshold=self.threshold,
                missing_left=self.missing_left,
                gain=self.gain,
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return d

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeNode":
        """The node and its subtree. A node whose cover, grad_sum, weight (at
        a leaf) or gain (at a split) is not a finite number, or a split whose
        feature is not an index below n_features, whose threshold is not a
        finite number or whose missing_left is not a boolean, raises
        ValueError."""
        for key in ("cover", "grad_sum", "weight", "gain"):
            if key in d:
                _check_finite(d[key], f"node {key}")
        if "left" in d:
            feature, threshold = d["feature"], d["threshold"]
            if type(feature) is not int or not 0 <= feature < n_features:
                raise ValueError(
                    f"split feature {feature!r} is not an index into {n_features} feature_names")
            _check_finite(threshold, "split threshold")
            if type(d["missing_left"]) is not bool:
                raise ValueError(f"split missing_left {d['missing_left']!r} is not a boolean")
            return cls(
                cover=d["cover"],
                grad_sum=d["grad_sum"],
                feature=feature,
                threshold=threshold,
                missing_left=d["missing_left"],
                gain=d["gain"],
                left=cls.from_dict(d["left"], n_features),
                right=cls.from_dict(d["right"], n_features),
            )
        return cls(cover=d["cover"], grad_sum=d["grad_sum"], weight=d["weight"])


def _check_finite(value, what: str) -> None:
    """Raise ValueError naming `what` unless value is a JSON number (an int
    or a float; a bool, which math.isfinite takes as 0 or 1, is not one) and
    finite."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")


@dataclass
class TreeEnsemble:
    trees: list[TreeNode]
    base_score: float
    params: GbtParams
    feature_names: list[str]

    @property
    def gain_table(self) -> dict[str, float]:
        """feature_gain of the trees: computed on each read, never stored."""
        return feature_gain(self)

    def n_leaves(self) -> int:
        return sum(t.n_leaves() for t in self.trees)

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "farecast-gbt",
                "version": 1,
                "base_score": self.base_score,
                "params": asdict(self.params),
                "feature_names": self.feature_names,
                "gain_table": self.gain_table,
                "trees": [t.to_dict() for t in self.trees],
            },
            indent=1,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreeEnsemble":
        d = json.loads(text)
        if d.get("format") != "farecast-gbt":
            raise ValueError("not a farecast gbt model file")
        names = list(d["feature_names"])
        _check_finite(d["base_score"], "base_score")
        return cls(
            trees=[TreeNode.from_dict(t, len(names)) for t in d["trees"]],
            base_score=d["base_score"],
            params=GbtParams(**d["params"]),
            feature_names=names,
        )


def feature_gain(model: TreeEnsemble) -> dict[str, float]:
    """Per-feature realized split gain, normalized to sum 1 and ordered by
    descending share. Ensembles without splits give an empty table."""
    totals: dict[str, float] = {}

    def walk(node: TreeNode):
        if node.is_leaf:
            return
        name = model.feature_names[node.feature]
        totals[name] = totals.get(name, 0.0) + node.gain
        walk(node.left)
        walk(node.right)

    for tree in model.trees:
        walk(tree)
    total = sum(totals.values())
    if total <= 0:
        return {}
    return {k: v / total for k, v in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))}


def _leaf_weight(grad_sum: float, cover: float, params: GbtParams) -> float:
    """The Newton step -G/(H + lam), shrunk by eta."""
    return -grad_sum / (cover + params.lam) * params.eta


def _check_inputs(X: np.ndarray, y: np.ndarray, missing: np.ndarray | None):
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least 2 rows")
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels and features disagree on row count")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if missing is None:
        missing = np.zeros(X.shape, dtype=bool)
    elif missing.shape != X.shape:
        raise ValueError("missing mask shape must match X")
    if not np.isfinite(X[~missing]).all():
        raise ValueError("non-finite feature values; mark missing via the mask")
    return missing


def _presort(X: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Row order of every column, shape (m, n): ascending by value, ties in
    row order, missing rows last."""
    keyed = np.where(missing, np.inf, X)
    return np.ascontiguousarray(np.argsort(keyed, axis=0, kind="stable").T)


def _keep_rows(block: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The block cut down to rows, a subset of its rows, out of n in all. A
    stable filter keeps every block sorted, so none is ever sorted again. The
    width comes from rows: a block of no features has no row count to infer."""
    keep = np.zeros(n, dtype=bool)
    keep[rows] = True
    return np.compress(keep[block].ravel(), block).reshape(block.shape[0], rows.shape[0])


def _best_split(
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
    once: one complex running sum (G real, H imaginary, each part bit-equal
    to its own float cumsum) runs along each block, and the gain

        0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - GT^2/(HT+lam))

    is evaluated at every boundary between distinct present values in one
    pass, which is exact for both routings of a feature without missing rows
    in the node. A feature with missing rows is scored with them sent right
    first; its left sums then take the missing mass, so the shared pass
    scores them sent left. Ties keep the lowest feature, then the lowest
    threshold, then missing routed left.
    """
    n_feat, k = block.shape
    # a boundary needs distinct values on both sides. The last column holds
    # none, so a flat index of valid also indexes the running sum. A flat
    # take from the C-ordered X is a cheaper gather than a 2-D fancy index
    vals = X.take(block * X.shape[1] + feat_ids[:, None])
    valid = np.zeros((n_feat, k), dtype=bool)
    np.not_equal(vals[:, :-1], vals[:, 1:], out=valid[:, :-1])
    del vals  # freed before the G/H block to keep peak memory down
    at = np.flatnonzero(valid)
    if at.shape[0] == 0:
        return None
    gh = (g + 1j * h).take(block)
    np.cumsum(gh, axis=1, out=gh)
    gh = gh.ravel()[at]
    gl, hl = gh.real, gh.imag
    parent = g_total * g_total / (h_total + lam)
    # only a feature with missing rows in the node gets a missing mass; one
    # without keeps exactly zero, since g_total minus a re-summed total would
    # leave rounding noise that can flip the missing-left tie
    routed = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in np.flatnonzero(missing[block[:, -1], feat_ids]):
            present = idx[~missing[idx, feat_ids[j]]]
            g_miss, h_miss = g_total - float(g[present].sum()), h_total - float(h[present].sum())
            # missing rows sit at the end of the block: the boundaries next to
            # and among them are no split
            lo, mid, hi = np.searchsorted(at, (j * k, j * k + present.shape[0] - 1, j * k + k))
            s = slice(lo, mid)
            gr, hr = g_total - g_miss - gl[s], h_total - h_miss - hl[s]
            gain_right = 0.5 * (
                gl[s] ** 2 / (hl[s] + lam) + (gr + g_miss) ** 2 / (hr + h_miss + lam) - parent
            )
            gl[s] += g_miss
            hl[s] += h_miss
            routed.append((s, slice(mid, hi), gain_right))
        gain = 0.5 * (gl**2 / (hl + lam) + (g_total - gl) ** 2 / (h_total - hl + lam) - parent)
    take_left = np.ones(at.shape[0], dtype=bool)
    for s, no_split, gain_right in routed:
        take_left[s] = gain[s] >= gain_right
        gain[s] = np.where(take_left[s], gain[s], gain_right)
        gain[no_split] = -np.inf
    # a zero denominator (lam = 0) can give nan or inf; as in a scan of each
    # feature alone, a feature whose best gain is not finite offers no split
    bad = np.isnan(gain) | (gain == np.inf)
    if bad.any():
        gain[np.isin(at // k, at[bad] // k)] = -np.inf
    best = int(gain.argmax())
    if gain[best] <= -1.0:  # -1 is the no-split gain of a single-feature scan
        return None
    j, p = divmod(int(at[best]), k)
    f = int(feat_ids[j])
    thr = 0.5 * (X[block[j, p], f] + X[block[j, p + 1], f])
    return float(gain[best]), f, float(thr), bool(take_left[best])


def _grow_node(
    X: np.ndarray,
    missing: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    block: np.ndarray,
    depth: int,
    feat_ids: np.ndarray,
    params: GbtParams,
) -> TreeNode:
    """Grow the subtree over rows idx. block, the parent's, holds a superset
    of them in the presorted order of each feature of feat_ids. A scanned
    node cuts it down to its own rows, unless it is already that wide (as
    the root's is without subsampling), and hands that to both children."""
    g_total = float(g[idx].sum())
    h_total = float(h[idx].sum())

    split = None
    if depth < params.max_depth and idx.shape[0] >= 2:
        if block.shape[1] != idx.shape[0]:
            block = _keep_rows(block, idx, X.shape[0])
        split = _best_split(
            X, missing, g, h, idx, block, feat_ids, g_total, h_total, params.lam
        )
    if split is None or split[0] - params.gamma <= 0.0:
        weight = _leaf_weight(g_total, h_total, params)
        return TreeNode(cover=h_total, grad_sum=g_total, weight=weight)

    gain, feature, threshold, missing_left = split
    goes_left = np.where(missing[idx, feature], missing_left, X[idx, feature] < threshold)
    left = _grow_node(X, missing, g, h, idx[goes_left], block, depth + 1, feat_ids, params)
    right = _grow_node(X, missing, g, h, idx[~goes_left], block, depth + 1, feat_ids, params)
    return TreeNode(
        cover=h_total, grad_sum=g_total, feature=feature, threshold=threshold,
        missing_left=missing_left, gain=gain, left=left, right=right,
    )


def _margins_tree(tree: TreeNode, X: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Leaf weight of every row, routing all rows of a node with one mask."""
    out = np.empty(X.shape[0])
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.weight
            continue
        f = node.feature
        goes_left = np.where(missing[rows, f], node.missing_left, X[rows, f] < node.threshold)
        stack.append((node.left, rows[goes_left]))
        stack.append((node.right, rows[~goes_left]))
    return out


def train(
    X: np.ndarray,
    y: np.ndarray,
    params: GbtParams,
    feature_names: Sequence[str] | None = None,
    missing: np.ndarray | None = None,
) -> TreeEnsemble:
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
    trees: list[TreeNode] = []
    # a feature missing on every row has no boundary, so it can never split;
    # order keeps rows only for the features with values, in feature order
    kept = np.flatnonzero(~missing.all(axis=0))
    order = _presort(X, missing)
    if kept.shape[0] < m:
        order = order[kept]
    n_sub = max(1, round(params.subsample * n))
    m_sub = max(1, round(params.colsample * m))
    for _ in range(params.n_trees):
        p = _proba(margins)
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
        # filtered after the draw, so the rng stream does not depend on it
        cols = np.intersect1d(cols, kept, assume_unique=True)
        # passed unbound, so the root frees a column copy once it cuts it down
        tree = _grow_node(X, missing, g, h, rows, order[np.searchsorted(kept, cols)]
                          if cols.shape[0] < kept.shape[0] else order, 0, cols, params)
        trees.append(tree)
        margins += _margins_tree(tree, X, missing)

    return TreeEnsemble(trees=trees, base_score=base_score, params=params, feature_names=names)


def predict_margin(model: TreeEnsemble, X: np.ndarray, missing: np.ndarray | None = None) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"expected {len(model.feature_names)} features, got {X.shape[1]}"
        )
    if missing is None:
        missing = np.zeros(X.shape, dtype=bool)
    else:
        missing = np.atleast_2d(missing)
    if missing.shape != X.shape:
        raise ValueError(f"missing mask shape {missing.shape} does not match X {X.shape}")
    margins = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margins += _margins_tree(tree, X, missing)
    return margins


def _proba(margin: np.ndarray) -> np.ndarray:
    """Probability in [0, 1]: a margin of 36.8 or more gives exactly 1.0, and
    one below about -709.78 overflows exp to inf and gives exactly 0.0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-margin))


# predict_label calls _proba, not predict_proba: a traced run wraps both
# public names, and one prediction must not record a span inside another
def predict_proba(model: TreeEnsemble, X: np.ndarray, missing: np.ndarray | None = None) -> np.ndarray:
    """Purchase probability of every row."""
    return _proba(predict_margin(model, X, missing))


def predict_label(model: TreeEnsemble, X: np.ndarray, missing: np.ndarray | None = None) -> np.ndarray:
    """Round to the nearest integer; the p = 0.5 boundary counts as purchase."""
    return _proba(predict_margin(model, X, missing)) >= 0.5


def holdout_split_by_day(dep_day_ids: np.ndarray, holdout_frac: float) -> np.ndarray:
    """Boolean holdout mask: the latest holdout_frac of departure days.

    Splitting on departure day prevents itineraries of one flight from
    landing on both sides of the split.
    """
    days = np.unique(dep_day_ids)
    n_hold = max(1, int(round(holdout_frac * days.shape[0])))
    if n_hold >= days.shape[0]:
        raise ValueError("holdout would swallow every departure day")
    cutoff = days[-n_hold]
    return dep_day_ids >= cutoff
