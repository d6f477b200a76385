"""Confusion shares excluding true negatives, and the model comparison table."""

from __future__ import annotations

import pytest

from farecast.evaluate import (
    ConfusionTriple,
    compare_models,
    confusion,
    write_comparison_table,
)


def test_confusion_counts():
    labels = [True, True, False, False, True, False]
    preds = [True, False, True, False, True, False]
    tri = confusion(labels, preds)
    assert (tri.tn, tri.fn, tri.fp, tri.tp) == (2, 1, 1, 2)


def test_shares_exclude_tn_and_sum_to_one():
    tri = ConfusionTriple(tn=97, fn=1, fp=1, tp=2)
    assert tri.fn_share + tri.fp_share + tri.tp_share == pytest.approx(1.0)
    assert tri.fn_share == pytest.approx(0.25)
    assert tri.tp_share == pytest.approx(0.5)


def test_all_tn_is_undefined():
    tri = ConfusionTriple(tn=10, fn=0, fp=0, tp=0)
    assert not tri.defined
    with pytest.raises(ValueError, match="shares undefined"):
        _ = tri.fn_share


def test_compare_models_winners_and_ties():
    a = ConfusionTriple(tn=0, fn=2, fp=1, tp=7)   # shares .2/.1/.7
    b = ConfusionTriple(tn=0, fn=1, fp=2, tp=7)   # shares .1/.2/.7
    winners = compare_models(a, b)
    assert winners == {"fn": "xgb", "fp": "logit", "tp": "tie"}


def test_compare_models_undefined_when_either_triple_is():
    defined, undefined = ConfusionTriple(0, 1, 1, 2), ConfusionTriple(10, 0, 0, 0)
    for a, b in ((defined, undefined), (undefined, defined), (undefined, undefined)):
        assert compare_models(a, b) == {"fn": "undefined", "fp": "undefined", "tp": "undefined"}


def test_comparison_table_format(tmp_path):
    rows = [
        ("AMS-LHR", "logit", ConfusionTriple(0, 4, 1, 5)),
        ("AMS-LHR", "xgb", ConfusionTriple(0, 2, 2, 6)),
        ("KUL-SIN", "logit", ConfusionTriple(5, 0, 0, 0)),
    ]
    path = tmp_path / "comparison.csv"
    write_comparison_table(rows, path, header_comment="seed=1")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "od,method,fn,fp,tp"
    assert lines[2] == "AMS-LHR,logit,0.4000,0.1000,0.5000"
    assert lines[3] == "AMS-LHR,xgb,0.2000,0.2000,0.6000"
    assert lines[4] == "KUL-SIN,logit,undefined,undefined,undefined"
