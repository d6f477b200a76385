"""Boosted-ensemble model structures, gain table and self-describing serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

__all__ = ["GbtParams", "TreeNode", "TreeEnsemble", "feature_gain", "sigmoid"]


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
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
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
        a leaf) or gain (at a split) is not finite, or a split whose feature
        is not an index below n_features or whose threshold is not finite,
        raises ValueError."""
        for key in ("cover", "grad_sum", "weight", "gain"):
            if key in d and not math.isfinite(d[key]):
                raise ValueError(f"node {key} {d[key]!r} is not finite")
        if "left" in d:
            feature, threshold = d["feature"], d["threshold"]
            if type(feature) is not int or not 0 <= feature < n_features:
                raise ValueError(
                    f"split feature {feature!r} is not an index into {n_features} feature_names")
            if not math.isfinite(threshold):
                raise ValueError(f"split threshold {threshold!r} is not finite")
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
        if not math.isfinite(d["base_score"]):
            raise ValueError(f"base_score {d['base_score']!r} is not finite")
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
