"""Command-line pipeline: synth -> features -> train -> evaluate / explain / simulate.

Each subcommand reads the previous stage's outputs from disk, so stages can
be rerun independently. Reruns with identical inputs produce byte-identical
outputs (all randomness is seeded, writes are atomic). Missing prerequisites
fail with a message naming the command to run first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from pathlib import Path

from . import __version__, evaluate, explain, gbt, logit, sentiment, synth
from .config import RunConfig, config_hash, load_config, read_scenario, write_scenario
from .features import (
    MODEL_FEATURES,
    FeatureTable,
    airline_widebody_flags,
    assemble_feature_vectors,
    build_airline_aggregates,
)
from .ingest import (
    DATASETS, ParseError, ParseResult, atomic_write_text, filter_tweets, parse_dataset,
    serialize_dataset,
)
from .simulate import aggregate_class_forecasts, compare_policies, optimize_policy


class CliError(Exception):
    """User-facing failure; printed without a traceback, exit status 2."""


def _stamp(cfg: RunConfig) -> str:
    return f"config_hash={config_hash(cfg)} seed={cfg.seed}"


def _select_ods(cfg: RunConfig, root: Path, marker: str, stage: str) -> list[str]:
    """ODs named in the config, else every subdirectory of root holding the
    marker file; failures name the command that produces it."""
    if not root.is_dir():
        raise CliError(f"directory {root} not found; run `farecast {stage}` first")
    ods = cfg.ods or sorted(p.name for p in root.iterdir() if (p / marker).is_file())
    if not ods:
        raise CliError(f"no {marker} under {root}; run `farecast {stage}` first")
    return ods


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the platform
    has one), else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _synth_market(i: int, seed: int, out: Path) -> tuple[str, dict[int, float], int]:
    """Generate fixture market i and write its six dataset files under
    out/<od>; only its OD, day demand and booking count are returned."""
    od, data = synth.fixture_market(i, seed)
    for kind in DATASETS:
        serialize_dataset(getattr(data, kind), kind, out / od / f"{kind}.csv")
    return od, data.true_day_demand, len(data.bookings)


def cmd_synth(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:  # a config seed is checked when the file is read
        raise CliError(f"--seed must be >= 0, got {seed}")
    out = Path(args.out or cfg.data_dir)
    # each market has its own generator, so the ten are generated and written
    # in worker processes, one market per worker at a time and one worker per
    # CPU this process may run on; a worker sends back only its market's day
    # demand (for the scenario) and booking count. With one CPU they are
    # written here in turn: a pool of one would cost a process and save no
    # time. The first market that fails, in FIXTURE_ODS order, ends the
    # command with its error; markets not yet handed to a worker are
    # cancelled. The pool is imported here, since no other command starts one.
    n_markets = len(synth.FIXTURE_ODS)
    n_workers = min(_cpu_count(), n_markets)
    tasks = (_synth_market, range(n_markets), repeat(seed), repeat(out))
    if n_workers == 1:
        markets = list(map(*tasks))
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(n_workers) as pool:
                markets = list(pool.map(*tasks))
        except BrokenExecutor as exc:  # a worker was killed, say by the OOM killer
            raise CliError(f"synth: {exc}") from exc
    day_demand = {od: demand for od, demand, _ in markets}
    n_rows = sum(n for _, _, n in markets)
    write_scenario(synth.fixture_scenario(seed, day_demand), out / "scenario.ini")
    print(f"wrote {len(day_demand)} OD markets ({n_rows} labeled itineraries) to {out}")
    print(f"wrote flight scenario to {out / 'scenario.ini'}")
    return 0


def _parse(path: Path, kind: str, scope: str) -> ParseResult:
    """One parsed input file; rejected rows are counted on stderr."""
    result = parse_dataset(path, kind)
    if result.n_rejected:
        print(f"[{scope}] {kind}: rejected {result.n_rejected} rows", file=sys.stderr)
    return result


def _load_market(od_dir: Path, od: str) -> dict[str, dict]:
    """Each of the OD's six datasets, parsed, as its columns."""
    datasets = {}
    for kind in DATASETS:
        path = od_dir / f"{kind}.csv"
        if not path.is_file():
            raise CliError(f"missing {path}; run `farecast synth` (or supply data) first")
        datasets[kind] = _parse(path, kind, od).columns
    return datasets


def cmd_features(args, cfg: RunConfig) -> int:
    data_root = Path(args.data or cfg.data_dir)
    out_root = Path(args.out or cfg.out_dir)
    if cfg.lexicon_path:
        lexicon_file = _parse(Path(cfg.lexicon_path), "lexicon", cfg.lexicon_path)
        lexicon = sentiment.lexicon_from(lexicon_file.columns)
        if not lexicon:
            raise CliError(f"{args.config}: [run] lexicon {cfg.lexicon_path} holds no words")
    else:
        lexicon = sentiment.load_default_lexicon()
    ods = args.od or _select_ods(cfg, data_root, "bookings.csv", "synth")
    for od in ods:
        market = _load_market(data_root / od, od)
        aggregates = build_airline_aggregates(
            market["reviews"], filter_tweets(market["tweets"]), market["safety"],
            market["fleet"], lexicon,
        )
        table = assemble_feature_vectors(
            market["bookings"], market["fares"], aggregates,
            widebody=airline_widebody_flags(market["fleet"]),
        )
        path = out_root / od / "features.csv"
        table.to_csv(path, header_comment=_stamp(cfg))
        print(f"[{od}] features: {len(table)} rows -> {path}")
    return 0


def _load_features(features_root: Path, od: str) -> FeatureTable:
    path = features_root / od / "features.csv"
    if not path.is_file():
        raise CliError(f"missing {path}; run `farecast features` first")
    table = FeatureTable.from_csv(path)
    if not len(table):
        raise CliError(f"{path} holds no rows; `farecast features` writes one per itinerary "
                       "of the market's bookings.csv")
    return table


def _load_model(path: Path, cls):
    """A model file whose feature_names are the feature table's model
    columns, in order; anything else is a CliError naming the file. Other
    feature_names are checked first, on the decoded JSON that
    `cls.from_json` reads the model from, since they can make the file fail
    to load (a split or coefficient then has no name)."""
    if not path.is_file():
        raise CliError(f"missing {path}; run `farecast train` first")

    def check_names(obj):
        if isinstance(obj, dict) and obj.get("feature_names") not in (None, MODEL_FEATURES):
            raise CliError(
                f"{path}: feature_names are not the {len(MODEL_FEATURES)} model columns of "
                "features.csv in order; run `farecast train` again"
            )

    text = path.read_text(encoding="utf-8")
    try:
        return cls.from_json(text, check_names)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(
            f"{path}: not a readable model file ({type(exc).__name__}: {exc})") from None


def _holdout(days, cfg: RunConfig, od: str):
    """The holdout mask; one holding out every departure day is a config error."""
    try:
        return gbt.holdout_split_by_day(days, cfg.holdout_frac)
    except ValueError:
        raise CliError(
            f"[run] holdout_frac = {cfg.holdout_frac} holds out every departure day of {od}"
        ) from None


def _train_one(od: str, table: FeatureTable, cfg: RunConfig):
    X, missing, names = table.model_matrix()
    y = table.labels()
    tr = ~_holdout(table.column("dep_day_id"), cfg, od)
    if tr.sum() < 2:
        raise CliError(f"[run] holdout_frac = {cfg.holdout_frac} leaves {tr.sum()} of the "
                       f"{len(table)} rows of {od} for training, which needs at least 2")
    model = gbt.train(X[tr], y[tr], cfg.gbt, feature_names=names, missing=missing[tr])
    baseline = logit.fit_logit(X[tr], y[tr], feature_names=names, missing=missing[tr])
    return model, baseline


def cmd_train(args, cfg: RunConfig) -> int:
    features_root = Path(args.features or cfg.out_dir)
    out_root = Path(args.out or cfg.out_dir)
    ods = args.od or _select_ods(cfg, features_root, "features.csv", "features")
    for od in ods:
        table = _load_features(features_root, od)
        model, baseline = _train_one(od, table, cfg)
        od_dir = out_root / od
        atomic_write_text(od_dir / "gbt.json", model.to_json() + "\n")
        atomic_write_text(od_dir / "logit.json", baseline.to_json() + "\n")
        gains = ", ".join(f"{k}={v:.3f}" for k, v in list(model.gain_table.items())[:3])
        print(f"[{od}] trained gbt ({model.params.n_trees} trees) + logit baseline; top gains: {gains}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    features_root = Path(args.features or cfg.out_dir)
    models_root = Path(args.models or cfg.out_dir)
    out_path = Path(args.out or (Path(cfg.out_dir) / "comparison.csv"))
    ods = args.od or _select_ods(cfg, features_root, "features.csv", "features")
    rows = []
    for od in ods:
        table = _load_features(features_root, od)
        model = _load_model(models_root / od / "gbt.json", gbt.TreeEnsemble)
        baseline = _load_model(models_root / od / "logit.json", logit.LogitModel)
        X, missing, _ = table.model_matrix()
        y = table.labels().astype(bool)
        va = _holdout(table.column("dep_day_id"), cfg, od)
        pred_l = logit.predict_logit_label(baseline, X[va], missing[va]).astype(bool)
        pred_g = gbt.predict_label(model, X[va], missing[va]).astype(bool)
        tri_l = evaluate.confusion(y[va], pred_l)
        tri_g = evaluate.confusion(y[va], pred_g)
        rows.append((od, "logit", tri_l))
        rows.append((od, "xgb", tri_g))
        winners = evaluate.compare_models(tri_l, tri_g)
        def _fmt_tri(t):
            return (f"fn={t.fn_share:.2f} fp={t.fp_share:.2f} tp={t.tp_share:.2f}"
                    if t.defined else "undefined")
        print(f"[{od}] logit: {_fmt_tri(tri_l)} | xgb: {_fmt_tri(tri_g)} | winners: {winners}")
    evaluate.write_comparison_table(rows, out_path, header_comment=_stamp(cfg))
    print(f"wrote comparison table to {out_path}")
    return 0


def cmd_explain(args, cfg: RunConfig) -> int:
    if args.top is not None and args.top < 0:
        raise CliError(f"--top must be >= 0, got {args.top}")
    features_root = Path(args.features or cfg.out_dir)
    models_root = Path(args.models or cfg.out_dir)
    table = _load_features(features_root, args.od)
    model = _load_model(models_root / args.od / "gbt.json", gbt.TreeEnsemble)
    X, missing, _ = table.model_matrix()
    if not (0 <= args.row < len(table)):
        raise CliError(f"row {args.row} out of range (0..{len(table) - 1})")
    exp = explain.explain_prediction(model, X[args.row], missing[args.row])
    print(explain.render_waterfall(exp, max_features=args.top))
    if args.out:
        explain.write_waterfall_data(exp, args.out, header_comment=_stamp(cfg))
        print(f"wrote waterfall data to {args.out}")
    return 0


def cmd_simulate(args, cfg: RunConfig) -> int:
    scenario_path = args.scenario or cfg.scenario_path or str(Path(cfg.data_dir) / "scenario.ini")
    if not Path(scenario_path).is_file():
        raise CliError(f"scenario file {scenario_path} not found; run `farecast synth` first")
    scenario = read_scenario(scenario_path)
    features_root = Path(args.features or cfg.out_dir)
    models_root = Path(args.models or cfg.out_dir)
    out_root = Path(args.out or cfg.out_dir)

    rollup_probs = {}
    for od in scenario.ods:
        if not od.covered:
            continue
        if scenario.forecast_day is None:
            raise CliError(f"{scenario_path}: no forecast_day for covered OD {od.name}")
        table = _load_features(features_root, od.name)
        model = _load_model(models_root / od.name / "gbt.json", gbt.TreeEnsemble)
        X, missing, _ = table.model_matrix()
        sel = table.column("dep_day_id") == scenario.forecast_day
        if not sel.any():
            raise CliError(f"no itineraries for OD {od.name} on forecast day")
        rollup_probs[od.name] = gbt.predict_proba(model, X[sel], missing[sel])

    means_std, fares_std, per_od_std = aggregate_class_forecasts(scenario, None)
    means_xgb, fares_xgb, per_od_xgb = aggregate_class_forecasts(scenario, rollup_probs)
    policy_std = optimize_policy(means_std, fares_std, scenario.capacity,
                                 scenario.demand_cv, per_od_std)
    policy_xgb = optimize_policy(means_xgb, fares_xgb, scenario.capacity,
                                 scenario.demand_cv, per_od_xgb)
    report = compare_policies(scenario, policy_std, policy_xgb)

    report.to_csv(out_root / "simulation.csv", header_comment=_stamp(cfg))
    report.write_replication_log(out_root / "replications.csv")
    for ds in (False, True):
        lo, hi = report.gain_ci95[ds]
        print(
            f"downsell={'yes' if ds else 'no '}  std={report.mean_revenue[(ds, 'std')]:.0f}  "
            f"xgb={report.mean_revenue[(ds, 'xgb')]:.0f}  "
            f"gain={report.gain_pct[ds]:+.2f}%  CI95=[{lo:.0f}, {hi:.0f}]"
        )
    print(f"wrote simulation report to {out_root / 'simulation.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farecast",
        description="Itinerary purchase prediction and seat-inventory simulation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="INI run-config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic ten-market corpus and flight scenario")
    p.add_argument("--out", help="output data directory")
    p.add_argument("--seed", type=int, help="override the global seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="assemble feature tables from the six raw datasets")
    p.add_argument("--data", help="data directory (one subdirectory per OD)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--od", action="append", help="restrict to one OD (repeatable)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the boosted-tree model and logistic baseline per OD")
    p.add_argument("--features", help="directory with per-OD features.csv")
    p.add_argument("--out", help="output directory for model files")
    p.add_argument("--od", action="append")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="holdout confusion comparison of both models")
    p.add_argument("--features", help="directory with per-OD features.csv")
    p.add_argument("--models", help="directory with per-OD model files")
    p.add_argument("--out", help="comparison CSV path")
    p.add_argument("--od", action="append")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="additive waterfall for one itinerary's prediction")
    p.add_argument("--features", help="directory with per-OD features.csv")
    p.add_argument("--models", help="directory with per-OD model files")
    p.add_argument("--od", required=True)
    p.add_argument("--row", type=int, required=True, help="row index within the OD's feature table")
    p.add_argument("--top", type=int, default=None, help="print only the top-N contributions")
    p.add_argument("--out", help="optional waterfall plot-data CSV with every contribution "
                   "(--top limits only the printed rows)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("simulate", help="EMSR-b revenue comparison of both forecast pipelines")
    p.add_argument("--scenario", help="scenario INI file")
    p.add_argument("--features", help="directory with per-OD features.csv")
    p.add_argument("--models", help="directory with per-OD model files")
    p.add_argument("--out", help="output directory for the report")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (CliError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
