"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every call into farecast goes through a module attribute (`gbt.train`,
`cli.main`, ...) so that the traced run can wrap it; see INSTRUMENTED.
A workload's inputs are made from the run seed and nothing else. The seed
changes what the inputs hold but not how large they are: the fixture's
markets differ in size by up to 2x between seeds, so each workload draws a
fixed number of itineraries per market, and sim_mc fixes the flight's
capacity. Otherwise run-to-run spread would measure the seed, not the code.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from farecast import cli, evaluate, explain, features, gbt, logit, simulate, synth
from farecast.config import read_scenario, write_scenario
from farecast.features import FeatureTable
from farecast.ingest import filter_tweets, parse_dataset, serialize_dataset
from farecast.sentiment import load_default_lexicon

from clock import Stopwatch

N_MODEL_FEATURES = 93
ADDITIVITY_TOL = 1e-9
CLI_STAGES = ("features", "train", "evaluate", "explain", "simulate")
# Itineraries kept per market; the smallest fixture market has had 530 at
# seeds 0-30, and a market with fewer keeps all of its own.
E2E_ROWS = 500
SCORE_ROWS = 500
SIM_CAPACITY = 326  # the fixture flight's capacity at seed 42


@dataclass
class Sizes:
    """How much work each workload does; the self-tests shrink these."""

    e2e_ods: tuple[str, ...] = tuple(od for od, _, _ in synth.FIXTURE_ODS)
    e2e_reps: int = 100
    sim_reps: int = 50
    score_ods: tuple[str, ...] = ("KUL-SIN", "LHR-JFK")


@dataclass
class Pass:
    """One timed pass: speed-corrected and raw wall seconds per timed part
    (see clock.py), and the outputs to check."""

    seconds: dict[str, float]
    raw: dict[str, float]
    output: object


def _count_splits(model: gbt.TreeEnsemble) -> int:
    stack, splits = list(model.trees), 0
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            splits += 1
            stack += (node.left, node.right)
    return splits


def _rows(result, model, X, *rest) -> dict:
    return {"rows": len(X)}


def _train_counts(model, *args) -> dict:
    return {"trees": len(model.trees), "splits": _count_splits(model)}


# (owner, attribute, span name, counter) for every public call the traced run
# records. Names the CLI imported with `from ... import` are patched in the
# cli module; the rest on the module the caller reaches them through.
INSTRUMENTED = [
    *[(cli, f"cmd_{stage}", f"cli.{stage}", None) for stage in CLI_STAGES],
    (cli, "parse_dataset", "ingest.parse",
     lambda r, *a: {"rows": r.n_accepted, "rejected_rows": r.n_rejected}),
    (cli, "build_airline_aggregates", "sentiment.aggregate", None),
    (features, "build_airline_aggregates", "sentiment.aggregate", None),
    (cli, "assemble_feature_vectors", "features.assemble", lambda r, *a: {"rows": len(r)}),
    (features, "assemble_feature_vectors", "features.assemble", lambda r, *a: {"rows": len(r)}),
    (FeatureTable, "from_csv", "features.csv_read", None),
    (gbt, "train", "gbt.train", _train_counts),
    (gbt, "predict_proba", "gbt.predict", _rows),
    (gbt, "predict_label", "gbt.predict", _rows),
    (logit, "fit_logit", "logit.fit", lambda r, *a: {"iterations": r.iterations}),
    (evaluate, "confusion", "evaluate.confusion", None),
    (explain, "explain_prediction", "explain.explain", None),
    (explain, "render_waterfall", "explain.render", None),
    (cli, "aggregate_class_forecasts", "simulate.policy", None),
    (cli, "optimize_policy", "simulate.policy", None),
    (simulate, "aggregate_class_forecasts", "simulate.policy", None),
    (simulate, "optimize_policy", "simulate.policy", None),
    (cli, "compare_policies", "simulate.compare", None),
    (simulate, "compare_policies", "simulate.compare", None),
    (simulate, "generate_arrivals", "simulate.arrivals", lambda r, *a: {"requests": len(r)}),
    (simulate, "replay", "simulate.replay",
     lambda r, requests, *a: {"requests": len(requests), "bookings": r[0]}),
]


def od_index(od: str) -> int:
    for i, (name, _, _) in enumerate(synth.FIXTURE_ODS):
        if name == od:
            return i
    raise ValueError(f"{od} is not an OD of the standard fixture")


def fixture_market(od: str, seed: int) -> synth.MarketData:
    """The market `od` as synth.standard_fixture(seed) generates it, alone."""
    i = od_index(od)
    _, archetype, n_airlines = synth.FIXTURE_ODS[i]
    spec = synth.ArchetypeSpec(od=od, archetype=archetype, n_airlines=n_airlines)
    return synth.generate_market(spec, seed=seed + 1000 * (i + 1))


def fixed_rows(bookings: list, n: int, seed: list[int], keep_day: int | None = None) -> list:
    """n bookings drawn by the seed, in input order; those departing on
    keep_day (the flight the simulation forecasts) are always kept."""
    must = [i for i, b in enumerate(bookings) if b.dep_day_id == keep_day]
    rest = [i for i, b in enumerate(bookings) if b.dep_day_id != keep_day]
    take = np.random.default_rng(seed).choice(
        len(rest), size=min(max(n - len(must), 0), len(rest)), replace=False)
    return [bookings[i] for i in sorted(must + [rest[i] for i in take])]


def fixed_size_market(od: str, seed: int, n: int) -> synth.MarketData:
    data = fixture_market(od, seed)
    return replace(data, bookings=fixed_rows(data.bookings, n, [seed, od_index(od)]))


def build_features(data: synth.MarketData) -> FeatureTable:
    aggregates = features.build_airline_aggregates(
        data.reviews, filter_tweets(data.tweets), data.safety, data.fleet, load_default_lexicon()
    )
    return features.assemble_feature_vectors(
        data.bookings, data.fares, aggregates,
        widebody=features.airline_widebody_flags(data.fleet),
    )


def table_problems(table: FeatureTable, booking_rows: int, where: str) -> list[str]:
    problems = []
    if len(table) != booking_rows:
        problems.append(f"{where}: {len(table)} feature rows for {booking_rows} booking rows")
    n_features = table.model_matrix()[0].shape[1]
    if n_features != N_MODEL_FEATURES:
        problems.append(f"{where}: {n_features} model features, expected {N_MODEL_FEATURES}")
    return problems


def revenue_problems(revenues, lo: float, hi: float, where: str) -> list[str]:
    revenues = np.asarray(revenues, dtype=float)
    problems = []
    if not (np.isfinite(revenues).all() and (revenues >= 0).all()):
        problems.append(f"{where}: replication revenue not finite and non-negative")
    if not lo <= hi:
        problems.append(f"{where}: CI low {lo} above CI high {hi}")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    min_passes = 3

    def __init__(self, sizes: Sizes | None = None):
        self.sizes = sizes or Sizes()

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def check_setup(self, state) -> list[str]:
        return []

    def run_pass(self, state, index: int, watch: Stopwatch) -> object:
        """Do the timed work under watch.part(...); return its outputs."""
        raise NotImplementedError

    def check(self, state, done: Pass) -> tuple[int, list[str]]:
        """(operations attempted, one message per failed operation)."""
        raise NotImplementedError

    def digests(self, state) -> dict[str, str]:
        """sha256 of output files of the last checked pass, for information."""
        return {}


@dataclass
class _E2EState:
    data: Path
    synth_code: int
    booking_rows: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


class FixtureE2E(Workload):
    """The CLI stages after synth, in-process, on the fixture's CSV files."""

    name = "fixture_e2e"
    min_passes = 1

    def setup(self, seed, work):
        data = work / "data"
        with redirect_stdout(io.StringIO()):
            code = cli.main(["synth", "--out", str(data), "--seed", str(seed)])
        if code == 0:
            path = data / "scenario.ini"
            scenario = read_scenario(path)
            ods = [replace(od, covered=od.covered and od.name in self.sizes.e2e_ods)
                   for od in scenario.ods]
            write_scenario(replace(scenario, ods=ods, n_reps=self.sizes.e2e_reps), path)
            for od in self.sizes.e2e_ods:
                bookings = data / od / "bookings.csv"
                kept = fixed_rows(parse_dataset(bookings, "bookings").records, E2E_ROWS,
                                  [seed, od_index(od)], keep_day=scenario.forecast_day)
                serialize_dataset(kept, "bookings", bookings)
        return _E2EState(data=data, synth_code=code)

    def check_setup(self, state):
        return [] if state.synth_code == 0 else [f"synth exited {state.synth_code}"]

    def _calls(self, state, out: Path) -> list[tuple[str, list[str]]]:
        """The CLI stages, features and train one market per call so that
        the stopwatch samples the machine's speed every second or so."""
        data, out_s = str(state.data), str(out)
        ods = [a for od in self.sizes.e2e_ods for a in ("--od", od)]
        return [
            *[("features", ["features", "--data", data, "--out", out_s, "--od", od])
              for od in self.sizes.e2e_ods],
            *[("train", ["train", "--features", out_s, "--out", out_s, "--od", od])
              for od in self.sizes.e2e_ods],
            ("evaluate", ["evaluate", "--features", out_s, "--models", out_s,
                          "--out", str(out / "comparison.csv"), *ods]),
            ("explain", ["explain", "--features", out_s, "--models", out_s,
                         "--od", self.sizes.e2e_ods[0], "--row", "0", "--top", "5"]),
            ("simulate", ["simulate", "--scenario", str(state.data / "scenario.ini"),
                          "--features", out_s, "--models", out_s, "--out", out_s]),
        ]

    def run_pass(self, state, index, watch):
        out = state.data.parent / f"out{index}"
        codes: dict[str, list] = {stage: [] for stage in CLI_STAGES}
        texts = dict.fromkeys(CLI_STAGES, "")
        for stage, argv in self._calls(state, out):
            buf = io.StringIO()
            with watch.part("pipeline"):
                try:
                    with redirect_stdout(buf), redirect_stderr(buf):
                        code = cli.main(argv)
                except Exception:  # a crashing stage is a failed operation, not a crashed run
                    code = traceback.format_exc(limit=3)
            codes[stage].append(code)
            texts[stage] += buf.getvalue()
        return out, codes, texts

    def check(self, state, done):
        out, codes, texts = done.output
        problems = {stage: [f"exit {c}: {texts[stage][-300:]}" for c in codes[stage] if c != 0]
                    for stage in CLI_STAGES}
        for od in self.sizes.e2e_ods:
            if od not in state.booking_rows:
                state.booking_rows[od] = parse_dataset(
                    state.data / od / "bookings.csv", "bookings").n_accepted
            path = out / od / "features.csv"
            if path.is_file():
                table = FeatureTable.from_csv(path)
                problems["features"] += table_problems(table, state.booking_rows[od], od)
            else:
                problems["features"].append(f"{path} missing")
            for name in ("gbt.json", "logit.json"):
                if not (out / od / name).is_file():
                    problems["train"].append(f"{od}/{name} missing")
        comparison = out / "comparison.csv"
        n_rows = len(comparison.read_text().splitlines()) if comparison.is_file() else 0
        if n_rows != 2 + 2 * len(self.sizes.e2e_ods):  # comment, header, two models per OD
            problems["evaluate"].append(f"comparison.csv has {n_rows} lines")
        if "final:" not in texts["explain"]:
            problems["explain"].append("no waterfall printed")
        problems["simulate"] += self._simulation_problems(out)
        files = [f"{od}/{name}" for od in self.sizes.e2e_ods for name in ("features.csv", "gbt.json")]
        state.digests = {f: sha256(out / f) for f in files + ["simulation.csv"] if (out / f).is_file()}
        shutil.rmtree(out, ignore_errors=True)
        failed = [f"{stage}: {'; '.join(p)}" for stage, p in problems.items() if p]
        return len(CLI_STAGES), failed

    def _simulation_problems(self, out: Path) -> list[str]:
        summary, log = out / "simulation.csv", out / "replications.csv"
        if not (summary.is_file() and log.is_file()):
            return ["simulation.csv or replications.csv missing"]
        rows = [line.split(",") for line in summary.read_text().splitlines()[2:]]
        log_rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        problems = []
        if len(rows) != 2 or len(log_rows) != 4 * self.sizes.e2e_reps:
            problems.append(f"{len(rows)} summary rows, {len(log_rows)} replication rows")
        for row in rows:
            revenues = [float(r[3]) for r in log_rows if r[1] == row[0]]
            problems += revenue_problems(revenues, float(row[4]), float(row[5]), f"downsell={row[0]}")
        return problems

    def digests(self, state):
        return state.digests


@dataclass
class _SimState:
    seed: int
    scenario: simulate.SimScenario
    policy_std: simulate.Policy
    policy_xgb: simulate.Policy


class SimMc(Workload):
    """simulate.compare_policies on the fixture flight, fresh seeds per pass."""

    name = "sim_mc"

    def setup(self, seed, work):
        markets, scenario = synth.standard_fixture(seed)
        scenario = replace(scenario, capacity=SIM_CAPACITY)
        # Forecast-day purchase labels stand in for model probabilities, so
        # the model policy needs no features or training.
        labels = {
            od.name: np.array([float(b.is_bought) for b in markets[od.name].bookings
                               if b.dep_day_id == scenario.forecast_day])
            for od in scenario.ods if od.covered
        }
        policies = []
        for probs in (None, labels):
            means, fares, per_od = simulate.aggregate_class_forecasts(scenario, probs)
            policies.append(simulate.optimize_policy(means, fares, scenario.capacity,
                                                     scenario.demand_cv, per_od))
        return _SimState(seed, scenario, *policies)

    def run_pass(self, state, index, watch):
        rep_seed = int(np.random.SeedSequence([state.seed, index]).generate_state(1)[0])
        scenario = replace(state.scenario, seed=rep_seed, n_reps=self.sizes.sim_reps)
        with watch.part("compare"):
            report = simulate.compare_policies(scenario, state.policy_std, state.policy_xgb)
        return report

    def check(self, state, done):
        report = done.output
        problems = []
        for ds in (False, True):
            revenues = [r for (d, _), revs in report.per_rep.items() if d == ds for r in revs]
            if len(revenues) != 2 * self.sizes.sim_reps:
                problems.append(f"downsell={ds}: {len(revenues)} replication revenues")
            problems += revenue_problems(revenues, *report.gain_ci95[ds], f"downsell={ds}")
        return 1, ["; ".join(problems)] if problems else []


@dataclass
class _Scored:
    od: str
    model: gbt.TreeEnsemble
    X: np.ndarray
    missing: np.ndarray
    table: FeatureTable
    booking_rows: int
    margins: np.ndarray | None = None


class ScoreExplain(Workload):
    """Score, explain and render every row of a few small fixture ODs."""

    name = "score_explain"

    def setup(self, seed, work):
        scored = []
        for od in self.sizes.score_ods:
            data = fixed_size_market(od, seed, SCORE_ROWS)
            table = build_features(data)
            X, missing, names = table.model_matrix()
            train = ~gbt.holdout_split_by_day(table.column("dep_day_id"), 0.2)
            model = gbt.train(X[train], table.labels()[train], gbt.GbtParams(),
                              feature_names=names, missing=missing[train])
            scored.append(_Scored(od, model, X, missing, table, len(data.bookings)))
        return scored

    def check_setup(self, state):
        return [p for s in state for p in table_problems(s.table, s.booking_rows, s.od)]

    def run_pass(self, state, index, watch):
        with watch.part("score"):
            probs = [gbt.predict_proba(s.model, s.X, s.missing) for s in state]
        with watch.part("explain"):
            explained = []
            for s in state:
                for i in range(len(s.X)):
                    exp = explain.explain_prediction(s.model, s.X[i], s.missing[i])
                    explained.append((exp, explain.render_waterfall(exp)))
        return probs, explained

    def check(self, state, done):
        probs_by_od, explained = done.output
        failed = []
        first = 0
        for s, probs in zip(state, probs_by_od):
            if s.margins is None:
                s.margins = gbt.predict_margin(s.model, s.X, s.missing)
            rows = explained[first:first + len(s.X)]
            first += len(s.X)
            for i, (exp, text) in enumerate(rows):
                additive = exp.base + sum(exp.contributions.values())
                problems = []
                if not 0.0 < probs[i] < 1.0:
                    problems.append(f"probability {probs[i]} outside (0, 1)")
                if not abs(additive - s.margins[i]) <= ADDITIVITY_TOL:
                    problems.append(f"base + contributions {additive} != margin {s.margins[i]}")
                if "final:" not in text:
                    problems.append("waterfall has no final line")
                if problems:
                    failed.append(f"{s.od} row {i}: {'; '.join(problems)}")
        return sum(len(s.X) for s in state), failed


WORKLOADS = {w.name: w for w in (FixtureE2E, SimMc, ScoreExplain)}
