"""Both learners over small tables of extreme columns, at any parameters.

The contract: a GbtParams either raises ValueError or trains; a trained
model, gbt or logit, writes only finite numbers and loads again with the
same margins on its table; and both learners refuse the same table with one
fault in it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farecast import gbt, logit

# constant, all-missing, separable (a gap between the labels' values),
# saturated (the labels' values so far apart that fitted probabilities reach
# 0 and 1) and adjacent (the labels' values one float apart, whose midpoint
# rounds onto one of them) columns, and columns of any values with some missing
_KINDS = ("constant", "missing", "separable", "saturated", "adjacent", "any")
_VALUES = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def tables(draw):
    """(X, y, missing) of 2 to 24 rows and one to four columns."""
    n = draw(st.integers(2, 24))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    columns, masks = [], []
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4)):
        mask = np.zeros(n, dtype=bool)
        if kind == "constant":
            col = np.full(n, draw(_VALUES))
        elif kind == "missing":
            col, mask = np.zeros(n), np.ones(n, dtype=bool)
        elif kind == "separable":
            offsets = draw(st.lists(st.floats(0, 0.5), min_size=n, max_size=n))
            col = y + np.array(offsets)
        elif kind == "saturated":
            big = draw(st.floats(1e3, 1e300))
            col = np.where(y == 1, big, -big)
        elif kind == "adjacent":
            low = draw(_VALUES)
            col = np.where(y == 1, np.nextafter(low, np.inf), low)
        else:
            col = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            col[mask] = 0.0
        columns.append(col)
        masks.append(mask)
    return np.column_stack(columns), y, np.column_stack(masks)


def _finite_json(text: str) -> None:
    """Raise AssertionError if the JSON text holds NaN or an infinity."""
    def refuse(constant):
        raise AssertionError(f"model file holds {constant}")

    json.loads(text, parse_constant=refuse)


@settings(max_examples=150, deadline=None)
@given(table=tables(),
       eta=st.floats(0, 10), gamma=st.floats(0, 10), lam=st.floats(0, 10),
       max_depth=st.integers(1, 8), subsample=st.floats(0, 1), colsample=st.floats(0, 1),
       n_trees=st.integers(1, 4), seed=st.integers(0, 100))
# 1 and the next float: their midpoint rounds to 1, so a threshold at it
# would send both rows right and leave the left leaf no rows
@example(table=(np.array([[1.0], [np.nextafter(1.0, 2.0)]]), np.array([0, 1]),
                np.zeros((2, 1), dtype=bool)),
         eta=0.3, gamma=0.0, lam=0.0, max_depth=1, subsample=1.0, colsample=1.0, n_trees=1,
         seed=0)
# at lam = 0 the first tree's leaf weights saturate every row, so the second
# tree's root has no hessian: its parent score G^2 / H once divided by zero
@example(table=(np.c_[np.zeros(14), np.eye(14)[12]], np.eye(14, dtype=int)[13],
                np.c_[np.ones(14, dtype=bool), np.zeros(14, dtype=bool)]),
         eta=2.0, gamma=0.0, lam=0.0, max_depth=1, subsample=0.25, colsample=0.5, n_trees=3,
         seed=21)
# at lam = 2.2e-308, the smallest normal float, a leaf of rows saturated the
# wrong way (G = 2, H = 0) had the weight -G / lam * eta = -inf
@example(table=(np.zeros((6, 1)), np.eye(6, dtype=int)[3], np.zeros((6, 1), dtype=bool)),
         eta=2.0, gamma=0.0, lam=2.2250738585072014e-308, max_depth=1, subsample=0.5,
         colsample=1.0, n_trees=4, seed=0)
# a gain's GL^2 / (HL + lam) at a subnormal lam overflows to inf: no split,
# not a RuntimeWarning
@example(table=(np.c_[np.eye(14)[13], np.eye(14)[1]], np.eye(14, dtype=int)[[1, 10]].sum(axis=0),
                np.c_[np.zeros(14, dtype=bool), np.eye(14, dtype=bool)[9]]),
         eta=3.0, gamma=0.0, lam=2.225073858507203e-309, max_depth=1, subsample=0.1875,
         colsample=0.5, n_trees=3, seed=20)
def test_gbt_trains_a_finite_model_that_loads_with_equal_margins(
        table, eta, gamma, lam, max_depth, subsample, colsample, n_trees, seed):
    X, y, missing = table
    try:
        params = gbt.GbtParams(eta=eta, gamma=gamma, lam=lam, max_depth=max_depth,
                               subsample=subsample, colsample=colsample, n_trees=n_trees,
                               seed=seed)
    except ValueError:
        return
    model = gbt.train(X, y, params, missing=missing)
    text = model.to_json()
    _finite_json(text)
    loaded = gbt.TreeEnsemble.from_json(text)
    assert np.array_equal(gbt.predict_margin(loaded, X, missing),
                          gbt.predict_margin(model, X, missing))


@settings(max_examples=150, deadline=None)
@given(table=tables())
# a saturated column whose squared deviations overflow, so np.std is inf
@example(table=(np.array([[-7e153]] * 16 + [[7e153]]), np.array([0] * 16 + [1]),
                np.zeros((17, 1), dtype=bool)))
def test_logit_fits_a_finite_model_that_loads_with_equal_margins(table):
    X, y, missing = table
    model = logit.fit_logit(X, y, missing=missing)
    text = model.to_json()
    _finite_json(text)
    loaded = logit.LogitModel.from_json(text)
    assert np.array_equal(logit.predict_logit(loaded, X, missing),
                          logit.predict_logit(model, X, missing))


# one fault for a table, and the fragment of the error both learners give
_FAULTS = {
    "labels as a column": "labels",
    "mask a row short": "missing mask shape",
    "unmarked nan": "non-finite",
    "a name too many": "expected",
}


@settings(max_examples=60, deadline=None)
@given(table=tables(), fault=st.sampled_from(sorted(_FAULTS)),
       cell=st.tuples(st.integers(0, 23), st.integers(0, 3)))
def test_both_learners_refuse_a_table_with_one_fault(table, fault, cell):
    X, y, missing = table
    names = [f"f{j}" for j in range(X.shape[1])]
    if fault == "labels as a column":
        y = y[:, None]
    elif fault == "mask a row short":
        missing = missing[:-1]
    elif fault == "unmarked nan":
        i, j = cell[0] % X.shape[0], cell[1] % X.shape[1]
        X[i, j], missing[i, j] = np.nan, False
    else:
        names.append("one too many")
    with pytest.raises(ValueError, match=_FAULTS[fault]):
        gbt.train(X, y, gbt.GbtParams(n_trees=1), names, missing)
    with pytest.raises(ValueError, match=_FAULTS[fault]):
        logit.fit_logit(X, y, names, missing)
