"""Model comparison metrics with true negatives excluded.

Displayed itineraries are overwhelmingly non-purchases, so plain accuracy
rewards predicting "no" everywhere. The confusion summary therefore reports
the shares of false negatives, false positives and true positives out of
their combined count, ignoring true negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import quote_cells, write_csv

__all__ = ["ConfusionTriple", "confusion", "compare_models", "write_comparison_table"]


@dataclass(frozen=True)
class ConfusionTriple:
    tn: int
    fn: int
    fp: int
    tp: int

    @property
    def defined(self) -> bool:
        """Shares are undefined when no positives are present or predicted."""
        return (self.fn + self.fp + self.tp) > 0

    @property
    def fn_share(self) -> float:
        self._require_defined()
        return self.fn / (self.fn + self.fp + self.tp)

    @property
    def fp_share(self) -> float:
        self._require_defined()
        return self.fp / (self.fn + self.fp + self.tp)

    @property
    def tp_share(self) -> float:
        self._require_defined()
        return self.tp / (self.fn + self.fp + self.tp)

    def _require_defined(self):
        if not self.defined:
            raise ValueError("shares undefined: no positives predicted or present")


def confusion(labels: Sequence[bool], predictions: Sequence[bool]) -> ConfusionTriple:
    y = np.asarray(labels, dtype=bool)
    p = np.asarray(predictions, dtype=bool)
    if y.shape != p.shape:
        raise ValueError("labels and predictions must have equal length")
    return ConfusionTriple(
        tn=int((~y & ~p).sum()),
        fn=int((y & ~p).sum()),
        fp=int((~y & p).sum()),
        tp=int((y & p).sum()),
    )


def compare_models(logit_triple: ConfusionTriple, xgb_triple: ConfusionTriple) -> dict[str, str]:
    """Per-metric winner of the logit baseline and the boosted trees: lower
    share wins FN and FP, higher wins TP.

    Returns {"fn": "logit"|"xgb"|"tie", "fp": ..., "tp": ...}, every
    winner "undefined" when either triple's shares are.
    """
    if not (logit_triple.defined and xgb_triple.defined):
        return dict.fromkeys(("fn", "fp", "tp"), "undefined")
    out = {}
    for metric, better_low in (("fn", True), ("fp", True), ("tp", False)):
        a = getattr(logit_triple, f"{metric}_share")
        b = getattr(xgb_triple, f"{metric}_share")
        if a == b:
            out[metric] = "tie"
        elif (a < b) == better_low:
            out[metric] = "logit"
        else:
            out[metric] = "xgb"
    return out


def write_comparison_table(
    rows: Sequence[tuple[str, str, ConfusionTriple]],
    path: str | Path,
    header_comment: str | None = None,
) -> None:
    """CSV report with columns od, method, fn, fp, tp (shares)."""

    def shares(name: str) -> list[str]:
        return [f"{getattr(t, name):.4f}" if t.defined else "undefined" for _, _, t in rows]

    memo: dict[str, str] = {}
    columns = [
        quote_cells((od for od, _, _ in rows), memo),
        quote_cells((method for _, method, _ in rows), memo),
        shares("fn_share"),
        shares("fp_share"),
        shares("tp_share"),
    ]
    write_csv(path, ["od", "method", "fn", "fp", "tp"], [columns], header_comment)
