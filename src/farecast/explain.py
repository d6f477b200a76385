"""Additive per-prediction decomposition of the boosted ensemble.

Every tree's leaf value is decomposed along the root-to-leaf path: each split
contributes the change in cover-weighted expected leaf value between the node
and the chosen child, attributed to the split feature. Summed across trees,
base + sum(contributions) reproduces the predicted log-odds exactly, so the
waterfall view is a faithful picture of the prediction. The expected values
are computed once per node when a tree is built or loaded (TreeNode.expected),
so one explanation only walks the prediction path of each tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .gbt import TreeEnsemble, sigmoid
from .ingest import quote_cells, write_csv

__all__ = ["Explanation", "explain_prediction", "render_waterfall", "write_waterfall_data"]


@dataclass
class Explanation:
    """contributions are in display order: explain_prediction puts them by
    descending |log-odds|, ties by name."""

    base: float
    contributions: dict[str, float]
    final_log_odds: float
    final_probability: float


def explain_prediction(
    model: TreeEnsemble, row: np.ndarray, missing: np.ndarray | None = None
) -> Explanation:
    """The row's log-odds as base plus contributions. As predicting it would, a row or
    mask of another length, or an unmarked non-finite value read, raises ValueError."""
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.shape[0] != len(model.feature_names):
        raise ValueError(f"expected {len(model.feature_names)} features, got {row.shape[0]}")
    values = row.tolist()
    if missing is None:
        absent = [False] * len(values)
    else:
        absent = np.asarray(missing, dtype=bool).ravel().tolist()
        if len(absent) != len(values):
            raise ValueError(f"missing mask has {len(absent)} entries, row has {len(values)}")

    names = model.feature_names
    base = model.base_score
    contributions: dict[str, float] = {}
    for tree in model.trees:
        base += tree.expected
        node = tree
        while node.left is not None:  # missing goes by missing_left, ties go right
            f = node.feature
            if absent[f]:
                child = node.left if node.missing_left else node.right
            else:
                x = values[f]
                if x - x:  # nan, which is truthy, exactly when x is nan or ±inf
                    raise ValueError(f"unmarked non-finite value {x!r} of feature {names[f]}")
                child = node.left if x < node.threshold else node.right
            name = names[f]
            contributions[name] = contributions.get(name, 0.0) + (child.expected - node.expected)
            node = child

    final = base + sum(contributions.values())  # summed in path order, before sorting
    return Explanation(
        base=base,
        contributions=dict(sorted(contributions.items(), key=lambda kv: (-abs(kv[1]), kv[0]))),
        final_log_odds=final,
        final_probability=sigmoid(final),
    )


def _trace(explanation: Explanation) -> tuple[list[str], list[float], list[float]]:
    """Parallel lists: feature, log-odds contribution, cumulative probability.
    accumulate adds in row order, as a running sum would."""
    names = ["(base)", *explanation.contributions]
    los = [explanation.base, *explanation.contributions.values()]
    return names, los, [sigmoid(r) for r in accumulate(los)]


def render_waterfall(explanation: Explanation, max_features: int | None = None) -> str:
    """Text waterfall: features by descending |log-odds|, with the cumulative
    probability trace and the 0.5 purchase cut-off marked. max_features
    caps the contribution rows shown; a negative value raises ValueError."""
    names, los, probs = _trace(explanation)
    end = None
    if max_features is not None:
        if max_features < 0:
            raise ValueError(f"max_features must be >= 0, got {max_features}")
        end = max_features + 1
    lines = [
        "feature                      log_odds   delta_prob  cum_prob",
        "%-28s %+9.4f %10s  %8.4f" % (names[0], los[0], "", probs[0]),
    ]
    lines += [
        "%-28s %+9.4f %+10.4f  %8.4f%s"
        % (name, lo, p - prev_p, p, " <-- crosses 0.5" if (prev_p < 0.5) != (p < 0.5) else "")
        for name, lo, prev_p, p in zip(names[1:end], los[1:end], probs, probs[1:end])
    ]
    verdict = "purchase" if explanation.final_probability >= 0.5 else "no purchase"
    lines.append(
        f"final: log_odds={explanation.final_log_odds:+.4f} "
        f"p={explanation.final_probability:.4f} -> {verdict} (cut-off 0.5)"
    )
    return "\n".join(lines)


def write_waterfall_data(
    explanation: Explanation, path: str | Path, header_comment: str | None = None
) -> None:
    """Plot-data file: ordered (feature, log_odds, cumulative_probability)."""
    names, los, probs = _trace(explanation)
    columns = [quote_cells(names, {}), [f"{v:.10g}" for v in los], [f"{v:.10g}" for v in probs]]
    write_csv(path, ["feature", "log_odds", "cumulative_probability"], [columns], header_comment)
