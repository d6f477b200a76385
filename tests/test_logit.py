"""Logistic baseline vs an independent penalized-likelihood optimizer."""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.optimize import minimize

from farecast import cli, logit, synth
from farecast.features import (
    airline_widebody_flags,
    assemble_feature_vectors,
    build_airline_aggregates,
)
from farecast.gbt import holdout_split_by_day
from farecast.ingest import DATASETS, filter_tweets, serialize_dataset
from farecast.logit import _expit, fit_logit, predict_logit, predict_logit_label
from farecast.sentiment import load_default_lexicon
from oracles import fixture_markets


def _oracle_fit(Z, y, l2):
    """Minimize the exact penalized NLL on the standardized design."""
    n, m = Z.shape
    A = np.hstack([np.ones((n, 1)), Z])

    def nll(beta):
        eta = A @ beta
        # log(1 + exp(eta)) - y*eta, numerically stable
        val = np.sum(np.logaddexp(0.0, eta) - y * eta)
        return val + 0.5 * l2 * np.sum(beta[1:] ** 2)

    def grad(beta):
        p = 1.0 / (1.0 + np.exp(-(A @ beta)))
        g = A.T @ (p - y)
        g[1:] += l2 * beta[1:]
        return g

    res = minimize(nll, np.zeros(m + 1), jac=grad, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    return res.x


@pytest.mark.parametrize("seed", range(20))
def test_coefficients_match_independent_optimizer(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 200))
    m = int(rng.integers(1, 5))
    X = rng.normal(size=(n, m)) * rng.uniform(0.5, 20, size=m) + rng.normal(size=m) * 10
    logits = X @ rng.normal(size=m) * 0.1 + rng.normal() * 0.3
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]

    model = fit_logit(X, y)
    Z = (X - model.mean) / model.scale
    oracle = _oracle_fit(Z, y, 1e-6)
    assert model.intercept == pytest.approx(oracle[0], abs=1e-6)
    assert model.coef == pytest.approx(oracle[1:], abs=1e-6)


def test_mean_imputation_of_missing():
    X = np.array([[1.0, 5.0], [3.0, 0.0], [2.0, 7.0], [0.0, 6.0]])
    missing = np.array([[False, False], [False, True], [False, False], [True, False]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    model = fit_logit(X, y, missing=missing)
    # prediction with a missing cell equals prediction with the training mean
    x_missing = np.array([[2.0, 0.0]])
    m_mask = np.array([[False, True]])
    x_filled = np.array([[2.0, 6.0]])  # mean of observed column 2 values
    p_a = predict_logit(model, x_missing, m_mask)
    p_b = predict_logit(model, x_filled)
    assert p_a == pytest.approx(p_b)


def test_imputation_equals_filling_every_column():
    """Filling only the columns that have a missing cell gives the arrays of
    filling each column with its observed mean (0 with none), as before."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 6))
    missing = np.zeros(X.shape, dtype=bool)
    missing[rng.random(200) < 0.3, 1] = True
    missing[:, 4] = True  # no observed value: filled with 0
    filled = X.copy()
    for j in range(X.shape[1]):
        observed = X[~missing[:, j], j]
        filled[missing[:, j], j] = observed.mean() if observed.size else 0.0
    want = logit._impute_and_scale(filled, None)
    got = logit._impute_and_scale(X, missing)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_constant_column_dropped():
    X = np.column_stack([np.ones(50), np.linspace(-1, 1, 50)])
    y = (np.linspace(-1, 1, 50) > 0).astype(float)
    model = fit_logit(X, y)
    assert model.scale[0] == 0.0
    assert model.coef[0] == 0.0
    assert np.isfinite(model.coef).all()


def test_separable_data_stays_finite():
    X = np.linspace(-1, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    model = fit_logit(X, y)
    assert np.isfinite(model.intercept)
    assert np.isfinite(model.coef).all()


def test_quasi_separable_market_converges():
    """Synth seed 5's KUL-SIN training rows (440, 98 purchases), where full
    Newton steps raise the penalized NLL after it reaches 126.8 at step 13
    and the iterates then diverge to |beta| ~ 1e10 without converging."""
    _, data = synth.fixture_market([od for od, _, _ in synth.FIXTURE_ODS].index("KUL-SIN"), 5)
    aggregates = build_airline_aggregates(
        data.reviews, filter_tweets(data.tweets), data.safety, data.fleet, load_default_lexicon())
    table = assemble_feature_vectors(
        data.bookings, data.fares, aggregates, widebody=airline_widebody_flags(data.fleet))
    X, missing, names = table.model_matrix()
    tr = ~holdout_split_by_day(table.column("dep_day_id"), 0.2)
    y = table.labels()[tr].astype(float)
    model = fit_logit(X[tr], y, feature_names=names, missing=missing[tr])
    assert model.converged and model.grad_norm < logit.TOL

    Z, _, _ = logit._impute_and_scale(X[tr], missing[tr])
    eta = model.intercept + Z @ model.coef
    objective = np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * logit.L2_PENALTY * np.sum(model.coef ** 2)
    assert (len(y), int(y.sum())) == (440, 98)
    assert objective <= 126.8 < len(y) * math.log(2)


def test_monotone_in_positive_coefficient_feature():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 1))
    y = (rng.random(300) < 1 / (1 + np.exp(-2 * X[:, 0]))).astype(float)
    model = fit_logit(X, y)
    ps = predict_logit(model, np.array([[-1.0], [0.0], [1.0]]))
    assert ps[0] < ps[1] < ps[2]


def test_label_boundary_is_purchase():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = fit_logit(X, y)
    labels = predict_logit_label(model, X)
    assert set(labels.tolist()) <= {0, 1}
    # exact 0.5 maps to 1
    model.coef[:] = 0.0
    model.intercept = 0.0
    assert predict_logit_label(model, X).tolist() == [1, 1]


def test_json_roundtrip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 3))
    y = (rng.random(80) < 0.4).astype(float)
    model = fit_logit(X, y, feature_names=["a", "b", "c"])
    from farecast.logit import LogitModel

    back = LogitModel.from_json(model.to_json())
    assert np.array_equal(predict_logit(model, X), predict_logit(back, X))
    assert back.feature_names == ["a", "b", "c"]


def _assert_bit_equal(ours, oracle):
    assert np.shape(ours) == np.shape(oracle)
    assert np.array_equal(ours, oracle, equal_nan=True)
    # the sign of a zero must match too; a nan's sign bit means nothing
    assert np.array_equal(np.signbit(ours) & ~np.isnan(ours),
                          np.signbit(oracle) & ~np.isnan(oracle))


def test_expit_equals_scipy_expit_oracle():
    # exp(-x) overflows for x below -log(DBL_MAX) = -709.78...: walk across
    # that point one ulp at a time, where a cut-off even one ulp off shows.
    edge = -math.log(sys.float_info.max)
    ulps = [edge]
    for _ in range(8):
        ulps = [math.nextafter(ulps[0], 0.0), *ulps, math.nextafter(ulps[-1], -math.inf)]
    x = np.concatenate([
        np.random.default_rng(0).normal(0.0, 300.0, 100_000),
        np.linspace(-760.0, 760.0, 50_001),
        -np.logspace(-320, 3, 2_000), np.logspace(-320, 3, 2_000),
        ulps, [0.0, -0.0, np.inf, -np.inf, np.nan],
    ])
    _assert_bit_equal(_expit(x), special.expit(x))
    grid = x[:60].reshape(3, 4, 5)
    _assert_bit_equal(_expit(grid), special.expit(grid))
    for scalar in (0.3, np.float64(-800.0), np.array(-0.0), np.array(np.nan)):
        _assert_bit_equal(_expit(scalar), special.expit(scalar))


def test_fixture_fits_equal_scipy_expit_fits(pipeline, monkeypatch):
    """Every margin IRLS computes on the fixture maps to scipy's expit bit for
    bit, so each baseline, and its logit.json, is the one scipy would give."""
    margins = []

    def recording(eta):
        margins.append(eta)
        return _expit(eta)

    for od, table in pipeline.tables.items():
        X, missing, names = table.model_matrix()
        tr = ~pipeline.holdouts[od]
        monkeypatch.setattr(logit, "_expit", recording)
        ours = fit_logit(X[tr], table.labels()[tr], feature_names=names, missing=missing[tr])
        monkeypatch.setattr(logit, "_expit", special.expit)
        oracle = fit_logit(X[tr], table.labels()[tr], feature_names=names, missing=missing[tr])
        assert ours.to_json() == oracle.to_json() == pipeline.baselines[od].to_json()
    eta = np.concatenate(margins)
    _assert_bit_equal(_expit(eta), special.expit(eta))


def test_logit_json_is_the_same_at_every_blas_thread_count(tmp_path):
    """The seed-42 KUL-SIN models `farecast train` writes, in a process with
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS at 1, 2 and 4, hold the same
    logit.json bytes. IRLS forms its Hessian as B.T @ B, which numpy hands
    to BLAS syrk; OpenBLAS 0.3.31 gives it the same sums at each of these
    thread counts. The gemm (A * w).T @ A it replaced gave other bytes at
    1 thread than at 2."""
    od, data = next(market for market in fixture_markets(42) if market[0] == "KUL-SIN")
    for kind in DATASETS:
        serialize_dataset(getattr(data, kind), kind, tmp_path / "data" / od / f"{kind}.csv")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["features", "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "features")]) == 0
    repo = Path(__file__).resolve().parents[1]
    models = {}
    for n in (1, 2, 4):
        out = tmp_path / f"models{n}"
        subprocess.run(
            [sys.executable, "-m", "farecast.cli", "train",
             "--features", str(tmp_path / "features"), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(repo / "src"),
                     OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n)),
            capture_output=True, check=True, timeout=120,
        )
        models[n] = (out / od / "logit.json").read_bytes()
    assert models[1] == models[2] == models[4]
