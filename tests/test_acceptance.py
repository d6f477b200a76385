"""End-to-end acceptance checks for the full pipeline.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from farecast import gbt, logit, synth
from farecast.evaluate import confusion
from farecast.explain import explain_prediction
from farecast.features import (
    PRICING_COLUMNS,
    ROLL_WINDOWS,
    airline_widebody_flags,
    assemble_feature_vectors,
    build_airline_aggregates,
)
from farecast.ingest import ItineraryRecord, filter_tweets
from farecast.sentiment import load_default_lexicon, scale_to_10, score_text
from farecast.simulate import (
    N_CLASSES,
    Policy,
    SimScenario,
    aggregate_class_forecasts,
    compare_policies,
    generate_arrivals,
    optimize_policy,
    replay,
)
from oracles import (
    WORKED_FARES, columns_of_rows, diff_series, refit_leaf_weights, rolling_price_features,
)


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [FAIL] {title}")
        raise
    print(f"criterion {num:02d} [PASS] {title}")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ----------------------------------------------------------------- criterion 1

def _assemble_one_booking_per_key(od, fares_by_dbd):
    """The feature table of one market given as {dbd: {airline: fare}} on
    departure day 1, with one booking on each observed (airline, dbd) key."""
    keys = [(a, dbd, price) for dbd, by_airline in fares_by_dbd.items()
            for a, price in by_airline.items()]
    fares = columns_of_rows("fares", [(od, a, 1, dbd, 600, 2.0, float(price))
                                      for a, dbd, price in keys])
    bookings = [ItineraryRecord(od, a, 1, dbd, 600, 2.0, float(price), False)
                for a, dbd, price in keys]
    return bookings, assemble_feature_vectors(bookings, fares, {})


def test_criterion_01_worked_pricing_example():
    with criterion(1, "worked four-airline example: mean3d_yy=30, mean3d_xx=-25"):
        t0 = time.perf_counter()
        bookings, table = _assemble_one_booking_per_key("AAA-BBB", WORKED_FARES)
        row = next(i for i, b in enumerate(bookings) if (b.airline_id, b.dbd) == (1, -100))
        assert table.column("mean3d_yy")[row] == 30    # (0 + 0 + 90) / 3, exact
        assert table.column("mean3d_xx")[row] == -25   # (-50 - 25 + 0) / 3, exact
        # the scalar oracle agrees
        yy = diff_series(WORKED_FARES, 1, "yy")
        xx = diff_series(WORKED_FARES, 1, "xx")
        assert rolling_price_features(yy, -100, 3)[0] == 30
        assert rolling_price_features(xx, -100, 3)[0] == -25
        assert time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------- criterion 2

def _check_window(got, window, w):
    """got is (mean, sd, min, max) of the w diffs in window, or None when a
    day is absent. Returns 1 for a complete window, else 0."""
    if any(v is None for v in window):
        assert got is None
        return 0
    mean = sum(window) / w
    sd = statistics.stdev(window)
    assert abs(got[0] - mean) <= 1e-9
    assert abs(got[1] - sd) <= 1e-9
    assert got[2] == min(window) and got[3] == max(window)
    return 1


def test_criterion_02_rolling_feature_oracle():
    with criterion(2, "rolling windows equal brute-force recompute on 50 random markets"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        complete = 0
        for m in range(50):
            n_air = int(rng.integers(2, 6))
            fares = {
                dbd: {a: float(rng.integers(50, 999)) for a in range(1, n_air + 1)}
                for dbd in range(-40, 0)
                if rng.random() > 0.1
            }
            if not fares:
                continue
            # brute force: own fare minus the cheapest fare, per observed day
            yy = {a: {dbd: f[a] - min(f.values()) for dbd, f in fares.items()}
                  for a in range(1, n_air + 1)}

            # the assembly, at every observed (airline, dbd) key
            bookings, table = _assemble_one_booking_per_key(f"M{m:02d}-YY", fares)
            stats = {w: np.stack([table.column(f"{s}{w}d_yy") for s in ("mean", "sd", "min", "max")],
                                 axis=1).tolist() for w in ROLL_WINDOWS}
            for i, b in enumerate(bookings):
                for w in ROLL_WINDOWS:
                    window = [yy[b.airline_id].get(d) for d in range(b.dbd - w, b.dbd)]
                    got = stats[w][i]
                    if all(math.isnan(v) for v in got):  # missing cells read as None
                        got = None
                    complete += _check_window(got, window, w)

            # the scalar oracle, at every (airline, dbd)
            for a in range(1, n_air + 1):
                series = diff_series(fares, a, "yy")
                for dbd in range(-40, 0):
                    for w in ROLL_WINDOWS:
                        window = [yy[a].get(d) for d in range(dbd - w, dbd)]
                        _check_window(rolling_price_features(series, dbd, w), window, w)
        assert complete > 0
        assert time.perf_counter() - t0 < 10.0


# ----------------------------------------------------------------- criterion 3

def _oracle_best_gain(X, y, missing, lam):
    prevalence = min(max(y.mean(), 1e-6), 1 - 1e-6)
    p = _sigmoid(math.log(prevalence / (1 - prevalence)))
    g = p - y
    h = np.full_like(g, p * (1 - p))
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot**2 / (h_tot + lam)
    best = -np.inf
    for f in range(X.shape[1]):
        present = ~missing[:, f]
        vals = np.unique(X[present, f])
        g_miss, h_miss = g[~present].sum(), h[~present].sum()
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = present & (X[:, f] < thr)
            for miss_left in (True, False):
                gl = g[left].sum() + (g_miss if miss_left else 0.0)
                hl = h[left].sum() + (h_miss if miss_left else 0.0)
                gain = 0.5 * (gl**2 / (hl + lam) + (g_tot - gl) ** 2 / (h_tot - hl + lam) - parent)
                best = max(best, gain)
    return best


def test_criterion_03_split_oracle():
    with criterion(3, "depth-1 single-tree split equals exhaustive enumeration, 100 instances"):
        t0 = time.perf_counter()
        params = gbt.GbtParams(n_trees=1, max_depth=1, gamma=0.0, lam=1.0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(5, 101)), int(rng.integers(1, 5))
            X = rng.integers(0, 8, size=(n, m)).astype(float)
            y = rng.integers(0, 2, size=n).astype(float)
            missing = rng.random((n, m)) < 0.15
            if y.min() == y.max():
                y[0] = 1 - y[0]
            model = gbt.train(X, y, params, missing=missing)
            root = model.trees[0]
            want = _oracle_best_gain(X, y, missing, params.lam)
            if root.is_leaf:
                assert want <= 1e-12
            else:
                assert abs(root.gain - want) <= 1e-9
        assert time.perf_counter() - t0 < 30.0


# ----------------------------------------------------------------- criterion 4

def test_criterion_04_boosting_monotonicity(pipeline):
    with criterion(4, "log-loss non-increasing per round; lambda/gamma monotonicity"):
        for od, table in pipeline.tables.items():
            X, missing, names = table.model_matrix()
            y = table.labels().astype(float)
            params = gbt.GbtParams(n_trees=10, eta=0.3, gamma=0.0, subsample=1.0,
                                   colsample=1.0, seed=1)
            model = gbt.train(X, y, params, feature_names=names, missing=missing)
            margins = np.full(len(y), model.base_score)
            losses = []
            for tree in model.trees:
                margins = margins + gbt._margins_tree(tree, X, missing)
                p = np.clip(_sigmoid(margins), 1e-12, 1 - 1e-12)
                losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:])), od

        od, table = next(iter(pipeline.tables.items()))
        X, missing, names = table.model_matrix()
        y = table.labels().astype(float)
        base = gbt.train(X, y, gbt.GbtParams(n_trees=5, lam=0.0, gamma=0.0, seed=1),
                         feature_names=names, missing=missing)
        max_leaf = []
        for lam in (0.0, 1.0, 10.0):
            refit = refit_leaf_weights(base, lam)
            weights = []

            def collect(node):
                if node.is_leaf:
                    weights.append(abs(node.weight))
                else:
                    collect(node.left)
                    collect(node.right)

            for tree in refit.trees:
                collect(tree)
            max_leaf.append(max(weights))
        assert max_leaf[0] >= max_leaf[1] >= max_leaf[2]

        leaf_counts = []
        for gamma in (0.0, 0.25, 1.0):
            m = gbt.train(X, y, gbt.GbtParams(n_trees=5, gamma=gamma, seed=1),
                          feature_names=names, missing=missing)
            leaf_counts.append(m.n_leaves())
        assert leaf_counts[0] >= leaf_counts[1] >= leaf_counts[2]


# ----------------------------------------------------------------- criterion 5

def test_criterion_05_explanation_additivity(pipeline):
    with criterion(5, "waterfall additivity within 1e-9 on every holdout row"):
        for od, table in pipeline.tables.items():
            X, missing, _ = table.model_matrix()
            model = pipeline.models[od]
            hold = pipeline.holdouts[od]
            probs = gbt.predict_proba(model, X[hold], missing[hold])
            for i, (row, miss) in enumerate(zip(X[hold], missing[hold])):
                exp = explain_prediction(model, row, miss)
                total = exp.base + sum(exp.contributions.values())
                assert abs(_sigmoid(total) - probs[i]) <= 1e-9, od


# ----------------------------------------------------------------- criterion 6

def test_criterion_06_logit_oracle():
    with criterion(6, "logistic coefficients match independent optimizer within 1e-6"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, m = 200, 4
            X = rng.normal(size=(n, m))
            beta_true = rng.normal(size=m)
            y = (rng.random(n) < _sigmoid(X @ beta_true - 0.3)).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            model = logit.fit_logit(X, y)

            mean, scale = X.mean(axis=0), X.std(axis=0)
            Z = (X - mean) / scale
            A = np.hstack([np.ones((n, 1)), Z])
            penalty = 1e-6  # fit_logit default ridge on slopes

            def nll(b):
                eta = A @ b
                return float(
                    np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * penalty * np.sum(b[1:] ** 2)
                )

            ref = minimize(nll, np.zeros(m + 1), method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 5000})
            got = np.concatenate([[model.intercept], model.coef])
            assert np.max(np.abs(got - ref.x)) <= 1e-6


# ----------------------------------------------------------------- criterion 7

def test_criterion_07_confusion_shares(pipeline):
    with criterion(7, "shares sum to 1 excluding TN; gbt tp_share >= logit on >=8/10 ODs"):
        wins = 0
        for od, table in pipeline.tables.items():
            X, missing, _ = table.model_matrix()
            y = table.labels()
            hold = pipeline.holdouts[od]
            gbt_pred = gbt.predict_label(pipeline.models[od], X[hold], missing[hold])
            logit_pred = logit.predict_logit_label(pipeline.baselines[od], X[hold], missing[hold])
            tri_g = confusion(y[hold], gbt_pred)
            tri_l = confusion(y[hold], logit_pred)
            for tri in (tri_g, tri_l):
                assert tri.defined
                assert abs(tri.fn_share + tri.fp_share + tri.tp_share - 1.0) <= 1e-12
            if tri_g.tp_share >= tri_l.tp_share:
                wins += 1
        assert wins >= 8, f"boosted model led on only {wins}/10 ODs"


# ----------------------------------------------------------------- criterion 8

ARCHETYPE_FAMILIES = {
    "price": set(PRICING_COLUMNS),
    "schedule": {"dept_delta"},
    "comfort": {"rating_ife"},
}


def _top2_gain_features(market):
    lexicon = load_default_lexicon()
    aggregates = build_airline_aggregates(
        market.reviews, filter_tweets(market.tweets), market.safety, market.fleet, lexicon
    )
    table = assemble_feature_vectors(
        market.bookings, market.fares, aggregates,
        widebody=airline_widebody_flags(market.fleet),
    )
    X, missing, names = table.model_matrix()
    model = gbt.train(X, table.labels().astype(float), gbt.GbtParams(seed=1),
                      feature_names=names, missing=missing)
    return list(model.gain_table)[:2]


def test_criterion_08_archetype_recovery():
    with criterion(8, "planted feature family in top-2 gain, >=4/5 seeds per archetype"):
        for archetype, family in ARCHETYPE_FAMILIES.items():
            hits = 0
            for seed in range(5):
                spec = synth.ArchetypeSpec(od="TST-ARC", archetype=archetype, n_airlines=7)
                market = synth.generate_market(spec, seed=seed)
                top2 = _top2_gain_features(market)
                if any(f in family for f in top2):
                    hits += 1
            assert hits >= 4, f"{archetype}: planted family in top-2 for {hits}/5 seeds"


# ----------------------------------------------------------------- criterion 9

TABLE_WORD_SCORES = {
    "amazing": 4, "breathtaking": 5, "disaster": -2, "distrust": -3,
    "excellence": 3, "fraudsters": -4, "limited": -1, "misleading": -3,
}


def test_criterion_09_sentiment_lexicon_and_scale():
    with criterion(9, "published word valences in the shipped lexicon; scale map exact"):
        lexicon = load_default_lexicon()
        for word, score in TABLE_WORD_SCORES.items():
            assert lexicon[word] == score
            assert score_text([word], lexicon) == score
        assert scale_to_10(-5.0) == 0.0
        assert scale_to_10(0.0) == 5.0
        assert scale_to_10(5.0) == 10.0


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_simulator_sanity(pipeline):
    with criterion(10, "revenue identity, capacity conservation, Littlewood, zero self-gain"):
        scenario = pipeline.scenario
        ladders = {od.name: od.ladder for od in scenario.ods}

        # Unlimited capacity without downsell books every request at its fare.
        arrivals = generate_arrivals(scenario, rep_seed=7)
        cap = len(arrivals) + 1
        open_policy = Policy(limits=tuple([float(cap)] * N_CLASSES),
                             protections=tuple([0.0] * (N_CLASSES - 1)))
        sold, revenue = replay(arrivals, open_policy, ladders, cap, downsell=False)
        assert sold == len(arrivals)
        assert revenue == sum(ladders[od].fares[k - 1]
                              for od, k in zip(arrivals.od, arrivals.willingness_class))

        # Capacity conservation over all 500 replications of both settings.
        means, fares, per_od = aggregate_class_forecasts(scenario, None)
        policy = optimize_policy(means, fares, scenario.capacity, scenario.demand_cv, per_od)
        seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
        for seq in seeds:
            reps = generate_arrivals(scenario, int(seq.generate_state(1)[0]))
            for ds in (False, True):
                sold, _ = replay(reps, policy, ladders, scenario.capacity, ds)
                assert sold <= scenario.capacity

        # Littlewood's 2-class rule: fares 100/50, D1 ~ N(30, 10) -> protect 30.
        lit_means = np.zeros(N_CLASSES)
        lit_means[0], lit_means[-1] = 30.0, 100.0
        lit_fares = np.array([100.0] + [50.0] * (N_CLASSES - 1))
        lit = optimize_policy(lit_means, lit_fares, capacity=200, demand_cv=10.0 / 30.0)
        analytic = float(norm.ppf(1 - 50.0 / 100.0, loc=30.0, scale=10.0))
        assert abs(lit.protections[0] - analytic) <= 1.0  # within one seat

        # Identical policies on common random numbers gain exactly zero.
        small = SimScenario(
            capacity=scenario.capacity, ods=scenario.ods, n_reps=50, seed=3,
            demand_factor_mean=scenario.demand_factor_mean,
            demand_factor_sd=scenario.demand_factor_sd,
        )
        report = compare_policies(small, policy, policy)
        assert report.gain_pct[True] == 0.0 and report.gain_pct[False] == 0.0
        assert report.gain_ci95[True] == (0.0, 0.0)


# ---------------------------------------------------------------- criterion 11

def test_criterion_11_end_to_end_revenue(pipeline):
    with criterion(11, "model policy beats history policy under downsell, CI > 0"):
        t0 = time.perf_counter()
        scenario = pipeline.scenario

        covered = sum(od.mean_demand for od in scenario.ods if od.covered)
        total = sum(od.mean_demand for od in scenario.ods)
        assert abs(covered / total - 0.42) <= 0.02
        assert scenario.demand_factor_mean == pytest.approx(0.98)
        assert scenario.demand_factor_sd == pytest.approx(0.1)
        assert scenario.n_reps == 500

        rollup_probs = {}
        for od in scenario.ods:
            if not od.covered:
                continue
            table = pipeline.tables[od.name]
            X, missing, _ = table.model_matrix()
            sel = table.column("dep_day_id") == scenario.forecast_day
            assert sel.any()
            rollup_probs[od.name] = gbt.predict_proba(
                pipeline.models[od.name], X[sel], missing[sel]
            )

        means_std, fares_std, per_std = aggregate_class_forecasts(scenario, None)
        means_xgb, fares_xgb, per_xgb = aggregate_class_forecasts(scenario, rollup_probs)
        policy_std = optimize_policy(means_std, fares_std, scenario.capacity,
                                     scenario.demand_cv, per_std)
        policy_xgb = optimize_policy(means_xgb, fares_xgb, scenario.capacity,
                                     scenario.demand_cv, per_xgb)
        report = compare_policies(scenario, policy_std, policy_xgb)

        assert report.mean_revenue[(True, "xgb")] >= report.mean_revenue[(True, "std")]
        lo, _ = report.gain_ci95[True]
        assert lo > 0.0, f"downsell gain CI lower bound {lo:.1f} not positive"
        assert report.gain_pct[True] >= report.gain_pct[False]
        assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------- criterion 12

def test_criterion_12_training_runtime(pipeline):
    with criterion(12, "per-OD training time at fixture scale <= 60 s"):
        for od, seconds in pipeline.train_seconds.items():
            assert seconds <= 60.0, f"{od}: {seconds:.1f}s"
