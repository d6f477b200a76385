"""From-scratch gradient boosted trees with a binary logistic objective."""

from .model import TreeNode, TreeEnsemble, GbtParams, feature_gain
from .train import (
    train,
    predict_proba,
    predict_label,
    predict_margin,
    refit_leaf_weights,
    holdout_split_by_day,
)


def numba_enabled() -> bool:
    """Always False: the split search is plain numpy, with no JIT path."""
    return False


__all__ = [
    "GbtParams",
    "TreeNode",
    "TreeEnsemble",
    "train",
    "predict_proba",
    "predict_label",
    "predict_margin",
    "feature_gain",
    "refit_leaf_weights",
    "holdout_split_by_day",
    "numba_enabled",
]
