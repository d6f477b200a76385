"""Scalar reference versions of code the package runs in vectorized form,
and test-only tools built on the package's own rules.

The feature assembly derives competitor pricing from fare cubes
(`features._Market`) and window statistics gathered at each itinerary's key
(`features._window_stats`), and the explanation walk routes rows inline; the
plain per-key functions here are what the tests hold them to. `refit_leaf_weights` re-derives leaf weights with the trainer's own leaf
rule, so the regularization checks test the rule that training uses.
`assert_markets_equal` compares two generated markets, whose datasets other
than bookings are columns that `==` cannot compare whole, and
`columns_of_rows` builds a dataset's columns from row tuples. The row reader
is the reference for CSV input: `read_both_ways` reads a file as the package
does and again with the C parse refusing it, and `column_bits` and
`table_bits` give what it compares.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np
import pytest

from farecast.features import FeatureTable
from farecast.gbt import TreeEnsemble, TreeNode, _leaf_weight
from farecast.ingest import SCHEMAS, ParseError, to_columns

# Four airlines' fares at t = -103..-100; airline 1 is the one under study.
WORKED_FARES = {
    -103: {1: 450, 2: 600, 3: 500, 4: 1000},
    -102: {1: 475, 2: 600, 3: 500, 4: 1100},
    -101: {1: 450, 2: 625, 3: 360, 4: 1100},
    -100: {1: 450, 2: 750, 3: 500, 4: 300},
}


@dataclass(frozen=True)
class MarketRefs:
    yy_fare: float
    yy_airline: int
    xx_fare: float | None
    xx_airline: int | None


def market_reference_fares(per_airline_fares: Mapping[int, float]) -> MarketRefs:
    """Cheapest (yy) and second-cheapest (xx) per-airline fares at one key.

    Airlines are ordered by (fare, airline_id); xx is the second airline's
    fare, so equal-fare airlines yield xx == yy. With a single airline, xx
    is absent.
    """
    if not per_airline_fares:
        raise ValueError("no airline fares at this key")
    ordered = sorted(per_airline_fares.items(), key=lambda kv: (kv[1], kv[0]))
    yy_airline, yy_fare = ordered[0]
    if len(ordered) < 2:
        return MarketRefs(yy_fare, yy_airline, None, None)
    xx_airline, xx_fare = ordered[1]
    return MarketRefs(yy_fare, yy_airline, xx_fare, xx_airline)


def fare_differences(
    own_fare: float, yy_fare: float, xx_fare: float | None
) -> tuple[bool, float, float | None]:
    """(is_cheapest, own - yy, own - xx); xx diff absent when xx is."""
    is_cheapest = own_fare == yy_fare
    yy_diff = own_fare - yy_fare
    xx_diff = None if xx_fare is None else own_fare - xx_fare
    return is_cheapest, yy_diff, xx_diff


def rolling_price_features(
    diff_by_dbd: Mapping[int, float], dbd: int, window: int
) -> tuple[float, float, float, float] | None:
    """(mean, sd, min, max) of diffs over the window days strictly before dbd.

    Requires every day dbd-window .. dbd-1 to be present; otherwise the
    feature is missing (None). sd uses the n-1 denominator.
    """
    days = range(dbd - window, dbd)
    vals = []
    for d in days:
        v = diff_by_dbd.get(d)
        if v is None:
            return None
        vals.append(v)
    mean = sum(vals) / window
    squares = sum((v - mean) * (v - mean) for v in vals)
    sd = math.sqrt(squares / (window - 1)) if window > 1 else 0.0
    return mean, sd, min(vals), max(vals)


def bucket_t(dbd: int) -> int:
    """DBD grouped in multiples of 10 toward minus infinity."""
    return math.floor(dbd / 10) * 10


def diff_series(fares_by_dbd, airline, ref):
    """{dbd: own fare - yy (ref "yy") or - xx (ref "xx")} for one airline,
    from {dbd: {airline: fare}}; a dbd with no xx maps to None under "xx"."""
    out = {}
    for dbd, fares in fares_by_dbd.items():
        refs = market_reference_fares(fares)
        _, yy, xx = fare_differences(fares[airline], refs.yy_fare, refs.xx_fare)
        out[dbd] = yy if ref == "yy" else xx
    return out


def route(node, value: float, missing: bool):
    """The child of a split TreeNode that a row goes to: by missing_left when
    the feature is missing, else left below the threshold and right from it
    upward."""
    if missing:
        return node.left if node.missing_left else node.right
    return node.left if value < node.threshold else node.right


def refit_leaf_weights(model: TreeEnsemble, lam: float) -> TreeEnsemble:
    """The model with every leaf weight recomputed by the trainer's leaf rule
    at ridge penalty lam, on the same tree structures."""
    params = replace(model.params, lam=lam)

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return replace(node, weight=_leaf_weight(node.grad_sum, node.cover, params))
        return replace(node, left=rebuild(node.left), right=rebuild(node.right))

    return TreeEnsemble(
        trees=[rebuild(t) for t in model.trees],
        base_score=model.base_score,
        params=params,
        feature_names=list(model.feature_names),
    )


def assert_markets_equal(got, want) -> None:
    """Two synth.MarketData hold the same data: each column-mapping field
    (every dataset but bookings) column by column, an array with its dtype
    and np.array_equal, a list of str with ==; every other field with ==."""
    for f in fields(want):
        held = getattr(want, f.name)
        if isinstance(held, dict) and f.name != "true_day_demand":
            assert_columns_equal(getattr(got, f.name), held, f.name)
        else:
            assert getattr(got, f.name) == held, f.name


def assert_columns_equal(got: Mapping, want: Mapping, where: str = "") -> None:
    """Two column mappings hold the same fields in the same order, each
    array with its dtype and values, each list with ==."""
    assert list(got) == list(want), where
    for name, col in want.items():
        if isinstance(col, np.ndarray):
            assert isinstance(got[name], np.ndarray), f"{where}.{name}"
            assert got[name].dtype == col.dtype, f"{where}.{name}"
            assert np.array_equal(got[name], col), f"{where}.{name}"
        else:
            assert got[name] == col, f"{where}.{name}"


# A fare row for the scalar oracles, which read fares a row at a time; the
# package itself holds fares only as columns (`columns_of_rows`).
FareRow = namedtuple("FareRow", SCHEMAS["fares"][0])


def columns_of_rows(schema: str, rows) -> dict:
    """The schema's canonical columns of rows given as tuples in column order."""
    names = list(SCHEMAS[schema][0])
    rows = list(rows)
    return to_columns(schema, {name: [row[i] for row in rows] for i, name in enumerate(names)})


def column_bits(columns: Mapping) -> dict:
    """Each column's dtype and values, a float column as its int64 bits, so
    that -0.0 and 0.0 and NaNs of other bits differ."""
    return {name: col if isinstance(col, list) else
            (col.dtype.str, (col.view(np.int64) if col.dtype == np.float64 else col).tolist())
            for name, col in columns.items()}


def table_bits(path) -> tuple:
    """A features.csv's ods and values as `column_bits` gives them."""
    table = FeatureTable.from_csv(path)
    return table.ods, column_bits({"values": table.values})


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


def read_both_ways(module, read, path):
    """(outcome of `read(path)`, whether the C parse read the file, outcome
    with the C parse refusing every file, so that the row reader reads it).
    `module` is the one whose `parse_numeric_lines` and `_read_rows` `read`
    calls; an outcome is `read`'s value or the text of its ParseError."""
    calls = []
    row_reader = module._read_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_read_rows", lambda *args: calls.append(1) or row_reader(*args))
        got = _outcome(lambda: read(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "parse_numeric_lines", lambda *args: None)
        want = _outcome(lambda: read(path))
    return got, not calls, want
