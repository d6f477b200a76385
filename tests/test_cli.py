"""End-to-end command-line pipeline on a small corpus."""

from __future__ import annotations

import ast
import codecs
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from farecast import cli, gbt, logit
from farecast.config import load_config, read_scenario, write_scenario
from farecast.explain import explain_prediction
from farecast.features import ALL_COLUMNS, FeatureTable

SMALL_ODS = ["KUL-SIN", "LHR-JFK"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> features -> train, restricted to the two smallest markets."""
    root = tmp_path_factory.mktemp("cli")
    data, out = root / "data", root / "out"
    assert cli.main(["synth", "--out", str(data), "--seed", "42"]) == 0
    od_flags = [flag for od in SMALL_ODS for flag in ("--od", od)]
    assert cli.main(["features", "--data", str(data), "--out", str(out), *od_flags]) == 0
    assert cli.main(["train", "--features", str(out), "--out", str(out), *od_flags]) == 0
    return root


def test_synth_outputs(workspace):
    data = workspace / "data"
    assert (data / "scenario.ini").is_file()
    for od in SMALL_ODS:
        files = {p.name for p in (data / od).iterdir()}
        assert len(files) == 6


def test_features_rerun_is_byte_identical(workspace, tmp_path):
    out1 = workspace / "out" / SMALL_ODS[0] / "features.csv"
    assert cli.main([
        "features", "--data", str(workspace / "data"), "--out", str(tmp_path),
        "--od", SMALL_ODS[0],
    ]) == 0
    out2 = tmp_path / SMALL_ODS[0] / "features.csv"
    assert out1.read_bytes() == out2.read_bytes()
    first = out1.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# config_hash=") and "seed=" in first


def test_train_writes_models(workspace):
    for od in SMALL_ODS:
        assert (workspace / "out" / od / "gbt.json").is_file()
        assert (workspace / "out" / od / "logit.json").is_file()


def test_evaluate_writes_comparison(workspace, capsys):
    out = workspace / "out" / "comparison.csv"
    rc = cli.main([
        "evaluate", "--features", str(workspace / "out"),
        "--models", str(workspace / "out"), "--out", str(out),
        *[flag for od in SMALL_ODS for flag in ("--od", od)],
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("od,method,") for line in lines[:2])
    assert any(SMALL_ODS[0] in line for line in lines)


def test_explain_prints_waterfall(workspace, capsys):
    rc = cli.main([
        "explain", "--features", str(workspace / "out"),
        "--models", str(workspace / "out"),
        "--od", SMALL_ODS[0], "--row", "0", "--top", "3",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "base" in text.lower()
    assert "%" in text or "prob" in text.lower()


def test_explain_rejects_negative_top(workspace, capsys):
    rc = cli.main([
        "explain", "--features", str(workspace / "out"),
        "--models", str(workspace / "out"),
        "--od", SMALL_ODS[0], "--row", "0", "--top", "-2",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --top must be >= 0") and captured.out == ""


def test_explain_writes_waterfall_data(workspace, tmp_path):
    out = tmp_path / "w.csv"
    assert cli.main([
        "explain", "--features", str(workspace / "out"),
        "--models", str(workspace / "out"),
        "--od", SMALL_ODS[0], "--row", "0", "--out", str(out),
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "feature,log_odds,cumulative_probability"
    assert lines[2].startswith("(base),")


def test_explain_top_limits_printed_rows_not_out_file(workspace, tmp_path, capsys):
    features = FeatureTable.from_csv(workspace / "out" / SMALL_ODS[0] / "features.csv")
    X, missing, _ = features.model_matrix()
    model = gbt.TreeEnsemble.from_json(
        (workspace / "out" / SMALL_ODS[0] / "gbt.json").read_text(encoding="utf-8"))
    n_contributions = len(explain_prediction(model, X[0], missing[0]).contributions)
    assert n_contributions > 2
    out = tmp_path / "w.csv"
    capsys.readouterr()
    assert cli.main([
        "explain", "--features", str(workspace / "out"),
        "--models", str(workspace / "out"),
        "--od", SMALL_ODS[0], "--row", "0", "--top", "2", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("feature ")
    assert printed[1].startswith("(base) ")
    assert printed[4].startswith("final: ")
    assert printed[5:] == [f"wrote waterfall data to {out}"]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 1 + n_contributions  # comment, header, base, every contribution


def test_simulate_writes_report_and_replications(workspace, tmp_path):
    scenario = read_scenario(workspace / "data" / "scenario.ini")
    ods = [replace(od, covered=od.name in SMALL_ODS) for od in scenario.ods]
    scenario_path = tmp_path / "scenario.ini"
    write_scenario(replace(scenario, ods=ods, n_reps=20), scenario_path)
    out = tmp_path / "sim"
    assert cli.main([
        "simulate", "--scenario", str(scenario_path), "--features", str(workspace / "out"),
        "--models", str(workspace / "out"), "--out", str(out),
    ]) == 0
    lines = (out / "simulation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("downsell,")
    assert len(lines) == 2 + 2
    replications = (out / "replications.csv").read_text(encoding="utf-8").splitlines()
    assert replications[0] == "rep,downsell,method,revenue,bookings"
    assert len(replications) == 1 + 4 * 20


def test_missing_prerequisite_names_command(tmp_path, capsys):
    rc = cli.main(["features", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "synth" in err


_LADDER = ",".join(str(1200 - 100 * k) for k in range(12))


@pytest.mark.parametrize("text, message", [
    ("[od:X]\nfares = 1\n", "missing section [scenario]"),
    ("[scenario]\nseed = 1\n", "section [scenario] has no key 'capacity'"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\n", "section [od:X] has no key 'brand_mix'"),
    ("[scenario]\ncapacity = nine\n", "invalid literal"),
    ("[scenario]\ncapacity = 0\n", "capacity must be >= 1"),
    ("[scenario]\ncapacity = 9\n[od:X]\nfares = 1,2\n", "need 12 fares"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 1,1,1\n"
     "mean_demand = 4\nhistory = 5\n", "OD X: history needs at least 2 values"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\n[od:X]\nfares = {_LADDER}\n",
     "section 'od:X' already exists"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 1,1,1\n"
     "mean_demand = 0\nhistory = 5,6\n", "total mean_demand over the ODs must be positive"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 1,1,1\n"
     "mean_demand = -3\nhistory = 5,6\n", "OD X: mean_demand must be finite and >= 0"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = nan,1,1\n",
     "brand shares must be finite and nonnegative"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 0.5,0.5\n",
     "need 3 brand shares, got 2"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 0.2,0.3,0.3,0.2\n",
     "need 3 brand shares, got 4"),
    (f"[scenario]\ncapacity = 9\n[od:X]\nfares = {_LADDER}\nbrand_mix = 1,1,1\n"
     "mean_demand = 4\nhistory = 5,6\ncovered = maybe\n", "Not a boolean: maybe"),
    ("[scenario]\ncapacity = 9\n[od:X]\nfares = nan," + _LADDER.split(",", 1)[1] + "\n",
     "fares must be finite and positive"),
    *[(f"[scenario]\ncapacity = 9\n{setting}\n[od:X]\nfares = {_LADDER}\nbrand_mix = 1,1,1\n"
       "mean_demand = 4\nhistory = 5,6\n", message) for setting, message in [
        ("holt_alpha = 1.5", "holt_alpha and holt_beta must lie in (0, 1)"),
        ("holt_beta = 0", "holt_alpha and holt_beta must lie in (0, 1)"),
        ("demand_factor_sd = -0.1", "demand_factor_sd and demand_cv must be finite and >= 0"),
        ("demand_cv = -1", "demand_factor_sd and demand_cv must be finite and >= 0"),
        ("demand_cv = inf", "demand_factor_sd and demand_cv must be finite and >= 0"),
        ("demand_factor_mean = nan", "demand_factor_mean must be finite"),
        ("cheap_early_prob = 2", "cheap_early_prob must lie in [0, 1]"),
        ("seed = -1", "seed must be >= 0"),
        ("capcity = 9", "section [scenario] has unknown key 'capcity'"),
        ("[flight]", "unknown section [flight]"),
        ("[od:Y]\ncoverd = 1", "section [od:Y] has unknown key 'coverd'"),
        ("[DEFAULT]\nseed = 3", "section [od:X] has unknown key 'seed'"),
    ]],
])
def test_malformed_scenario_exits_2_naming_file(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["simulate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_simulate_with_class_fares_rising_across_a_brand_exits_2(tmp_path, capsys):
    """Two uncovered ODs whose ladders, weighted by each one's only brand,
    give class fares that rise from class 3 (480) to class 4 (1970): the
    policy cannot be set, and the error names the scenario file."""
    path = tmp_path / "scenario.ini"
    ods = [(range(2000, 1880, -10), "0,1,0"), (range(500, 380, -10), "1,0,0")]
    path.write_text("[scenario]\ncapacity = 50\n" + "".join(
        f"[od:{name}]\nfares = {','.join(map(str, ladder))}\nbrand_mix = {mix}\n"
        "mean_demand = 10\nhistory = 10,12\n" for name, (ladder, mix) in zip("AB", ods)),
        encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: class fares must be non-increasing")
    assert not out.exists()


def test_simulate_without_forecast_day_exits_2(workspace, tmp_path, capsys):
    scenario = read_scenario(workspace / "data" / "scenario.ini")
    ods = [replace(od, covered=od.name in SMALL_ODS) for od in scenario.ods]
    path = tmp_path / "scenario.ini"
    write_scenario(replace(scenario, ods=ods, forecast_day=None), path)
    assert "forecast_day" not in path.read_text(encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main([
        "simulate", "--scenario", str(path), "--features", str(workspace / "out"),
        "--models", str(workspace / "out"), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: no forecast_day") and SMALL_ODS[0] in err
    assert not out.exists()


def test_missing_models_names_train(workspace, tmp_path, capsys):
    rc = cli.main([
        "evaluate", "--features", str(workspace / "out"),
        "--models", str(tmp_path), "--od", SMALL_ODS[0],
    ])
    assert rc == 2
    assert "train" in capsys.readouterr().err


def test_only_evaluate_reads_the_logit_model(workspace, tmp_path, capsys):
    od_dir = _copy_stage_outputs(workspace, tmp_path)
    (od_dir / "logit.json").unlink()
    assert cli.main([
        "explain", "--features", str(tmp_path), "--models", str(tmp_path),
        "--od", SMALL_ODS[0], "--row", "0",
    ]) == 0
    err = _evaluate_err(tmp_path, capsys)
    assert err == f"error: missing {od_dir / 'logit.json'}; run `farecast train` first\n"


def test_config_file_loading(workspace, tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[run]\n"
        f"data_dir = {workspace / 'data'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "seed = 7\n"
        f"ods = {SMALL_ODS[0]}\n"
        "[gbt]\n"
        "n_trees = 5\n",
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg_path), "features"]) == 0
    stamp = (tmp_path / "out" / SMALL_ODS[0] / "features.csv").read_text(
        encoding="utf-8"
    ).splitlines()[0]
    assert "seed=7" in stamp


@pytest.mark.parametrize("text, message", [
    ("[gbt]\neta = abc\n", "could not convert string to float: 'abc'"),
    ("[gbt]\neta = -1\n", "eta must be positive"),
    ("[run]\nseed = x\n", "invalid literal for int() with base 10: 'x'"),
    ("[run\nseed = 1\n", "File contains no section headers"),
    *[(f"[run]\nholdout_frac = {v}\n", "holdout_frac must be in (0, 1)")
      for v in ("1.5", "0", "-0.1", "nan")],
    *[(f"[gbt]\n{setting}\n", "eta, gamma and lam must be finite")
      for setting in ("eta = nan", "eta = inf", "gamma = inf", "lam = nan")],
    ("[gbt]\nseed = -1\n", "seed must be >= 0"),
    ("[gbt]\nmax_depth = 513\n", "max_depth must be <= 512, got 513"),
    ("[run]\nseed = -1\n[gbt]\nseed = 1\n", "[run] seed must be >= 0, got -1"),
    ("[gbt]\nn_tree = 50\n", "section [gbt] has unknown key 'n_tree'"),
    ("[run]\nseeds = 3\n", "section [run] has unknown key 'seeds'"),
    ("[gtb]\nn_trees = 50\n", "unknown section [gtb]"),
    ("[DEFAULT]\nn_trees = 5\n[run]\nseed = 1\n[gbt]\n", "section [run] has unknown key 'n_trees'"),
    ("[run]\nlexicon = {tmp}/words.csv\n", "[run] lexicon {tmp}/words.csv holds no words"),
])
def test_malformed_config_exits_2_naming_file(tmp_path, capsys, text, message):
    """{tmp} stands for the test's directory, which holds words.csv, a
    lexicon file with a header and no rows."""
    (tmp_path / "words.csv").write_text("word,score\n", encoding="utf-8")
    path = tmp_path / "run.ini"
    path.write_text(text.replace("{tmp}", str(tmp_path)), encoding="utf-8")
    assert cli.main(["--config", str(path), "features", "--data", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message.replace("{tmp}", str(tmp_path)) in err


def test_default_section_sets_keys_in_every_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[DEFAULT]\nseed = 3\n[run]\n[gbt]\nn_trees = 5\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.seed, cfg.gbt.seed, cfg.gbt.n_trees) == (3, 3, 5)


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("stage", ["train", "evaluate"])
def test_holdout_of_every_day_exits_2_naming_config_and_od(workspace, tmp_path, capsys, stage):
    # KUL-SIN has fewer than 50 departure days, so 0.99 of them rounds to all
    path = tmp_path / "run.ini"
    path.write_text("[run]\nholdout_frac = 0.99\n", encoding="utf-8")
    out = workspace / "out"
    paths = {
        "train": ["--out", str(tmp_path)],
        "evaluate": ["--models", str(out), "--out", str(tmp_path / "c.csv")],
    }
    argv = ["--features", str(out), "--od", SMALL_ODS[0], *paths[stage]]
    assert cli.main(["--config", str(path), stage, *argv]) == 2
    err = capsys.readouterr().err
    want = f"[run] holdout_frac = 0.99 holds out every departure day of {SMALL_ODS[0]}"
    assert err == f"error: {want}\n"
    assert not (tmp_path / SMALL_ODS[0]).exists() and not (tmp_path / "c.csv").exists()


def test_train_on_fewer_than_2_rows_exits_2_naming_config_and_od(workspace, tmp_path, capsys):
    """Two bookings on two departure days: the default holdout takes one day,
    which leaves one row to train on."""
    od = SMALL_ODS[0]
    data = tmp_path / "data"
    shutil.copytree(workspace / "data" / od, data / od)
    lines = (data / od / "bookings.csv").read_text(encoding="utf-8").splitlines()
    day = lines[0].split(",").index("dep_day_id")
    first = {}
    for line in lines[1:]:
        first.setdefault(line.split(",")[day], line)
    (data / od / "bookings.csv").write_text(
        "\n".join([lines[0], *list(first.values())[:2]]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["features", "--data", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--features", str(out), "--out", str(out)]) == 2
    want = f"[run] holdout_frac = 0.2 leaves 1 of the 2 rows of {od} for training"
    assert capsys.readouterr().err.startswith(f"error: {want}")
    assert not (out / od / "gbt.json").exists()


@pytest.mark.parametrize("stage", ["train", "evaluate", "explain"])
def test_features_without_a_dep_day_id_exit_2_naming_file(workspace, tmp_path, capsys, stage):
    """An empty dep_day_id, which np.unique would count as one more, the
    latest, departure day, so that the holdout took one real day fewer."""
    path = _copy_stage_outputs(workspace, tmp_path) / "features.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    day = lines[1].split(",").index("dep_day_id")
    cells = lines[4].split(",")
    cells[day] = ""
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {
        "train": ["--out", str(tmp_path / "models")],
        "evaluate": ["--models", str(tmp_path), "--out", str(tmp_path / "c.csv")],
        "explain": ["--models", str(tmp_path), "--row", "0"],
    }[stage]
    assert cli.main([stage, "--features", str(tmp_path), "--od", SMALL_ODS[0], *argv]) == 2
    want = (f"error: {path}: 1 of {len(lines) - 2} rows have no dep_day_id, the first row 2; "
            "the holdout and the forecast day select rows by it\n")
    assert capsys.readouterr().err == want
    assert not (tmp_path / "models").exists() and not (tmp_path / "c.csv").exists()


def test_train_at_lam_0_between_prices_one_float_apart_exits_0(tmp_path):
    """Two training rows priced 1 and the next float up, and a later day for
    the holdout: a split at their midpoint, which rounds to 1, once sent both
    rows right, and at [gbt] lam = 0 the empty left leaf's weight divided 0
    by 0."""
    od = "AAA-BBB"
    values = np.full((3, len(ALL_COLUMNS)), np.nan)
    for name, col in (("dep_day_id", [1, 1, 2]), ("price", [1, 2, 1]), ("is_bought", [0, 1, 0])):
        values[:, ALL_COLUMNS.index(name)] = col
    path = tmp_path / od / "features.csv"
    FeatureTable(ods=[od] * 3, values=values).to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    price = lines[0].split(",").index("price")
    cells = lines[2].split(",")
    cells[price] = "1.0000000000000002"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text("[gbt]\nlam = 0\n", encoding="utf-8")
    assert cli.main(["--config", str(config), "train", "--features", str(tmp_path),
                     "--out", str(tmp_path)]) == 0
    model = gbt.TreeEnsemble.from_json((tmp_path / od / "gbt.json").read_text(encoding="utf-8"))
    assert model.params.lam == 0.0
    assert model.trees[0].threshold == 1.0000000000000002


@pytest.fixture
def rowless_features(workspace, tmp_path):
    """The features.csv that `farecast features` writes from a bookings.csv
    with a header and no rows, in tmp_path / "out"."""
    od = SMALL_ODS[0]
    data = tmp_path / "data"
    shutil.copytree(workspace / "data" / od, data / od)
    bookings = data / od / "bookings.csv"
    bookings.write_text(bookings.read_text(encoding="utf-8").splitlines()[0] + "\n",
                        encoding="utf-8")
    assert cli.main(["features", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / od / "features.csv"


@pytest.mark.parametrize("stage", ["train", "evaluate", "explain"])
def test_features_without_rows_exit_2_naming_file(workspace, tmp_path, capsys, rowless_features,
                                                  stage):
    out, models = tmp_path / "out", workspace / "out"
    argv = {
        "train": ["--out", str(out)],
        "evaluate": ["--models", str(models), "--out", str(out / "c.csv")],
        "explain": ["--models", str(models), "--row", "0"],
    }[stage]
    capsys.readouterr()
    assert cli.main([stage, "--features", str(out), "--od", SMALL_ODS[0], *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {rowless_features} holds no rows; `farecast features` writes one per "
        "itinerary of the market's bookings.csv\n")
    assert sorted(p.name for p in rowless_features.parent.iterdir()) == ["features.csv"]
    assert not (out / "c.csv").exists()


def test_output_under_a_file_or_onto_a_directory_exits_2(workspace, tmp_path, capsys):
    """An --out whose parent is a file, or that is a directory, is an error
    naming the path; no temp file is left behind."""
    not_a_dir = tmp_path / "scenario.ini"
    shutil.copy(workspace / "data" / "scenario.ini", not_a_dir)
    assert cli.main(["features", "--data", str(workspace / "data"), "--out", str(not_a_dir),
                     "--od", SMALL_ODS[0]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "Not a directory" in err and str(not_a_dir) in err

    is_a_dir = tmp_path / "out"
    is_a_dir.mkdir()
    out = str(workspace / "out")
    assert cli.main(["evaluate", "--features", out, "--models", out, "--out", str(is_a_dir),
                     "--od", SMALL_ODS[0]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "Is a directory" in err and str(is_a_dir) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.ini"]
    assert list(is_a_dir.iterdir()) == []


def test_config_lexicon_is_used(workspace, tmp_path):
    packaged = resources.files("farecast.data").joinpath("lexicon.csv").read_text("utf-8")
    lines = packaged.strip().splitlines()
    flipped = [lines[0]] + [f"{word},{-int(score)}" for word, score in
                            (line.split(",") for line in lines[1:])]
    lexicon = tmp_path / "flipped.csv"
    lexicon.write_text("\n".join(flipped) + "\n", encoding="utf-8")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[run]\ndata_dir = {workspace / 'data'}\nout_dir = {tmp_path / 'out'}\n"
        f"ods = {SMALL_ODS[0]}\nlexicon = {lexicon}\n",
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg_path), "features"]) == 0
    before = FeatureTable.from_csv(workspace / "out" / SMALL_ODS[0] / "features.csv")
    after = FeatureTable.from_csv(tmp_path / "out" / SMALL_ODS[0] / "features.csv")
    old, new = before.column("rating_review"), after.column("rating_review")
    scored = ~np.isnan(old)
    assert scored.any() and (np.isnan(new) == ~scored).all()
    assert (old[scored] != new[scored]).any()
    # every score is negated, so each mean reflects about the scale's midpoint 5
    np.testing.assert_allclose(new[scored], 10.0 - old[scored], atol=1e-4)


def test_config_lexicon_rejected_rows_are_reported(workspace, tmp_path, capsys):
    packaged = resources.files("farecast.data").joinpath("lexicon.csv").read_text("utf-8")
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text(packaged.rstrip("\n") + "\nAmazing,4\n", encoding="utf-8")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[run]\ndata_dir = {workspace / 'data'}\nout_dir = {tmp_path / 'out'}\n"
        f"ods = {SMALL_ODS[0]}\nlexicon = {lexicon}\n",
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg_path), "features"]) == 0
    assert capsys.readouterr().err == f"[{lexicon}] lexicon: rejected 1 rows\n"
    # the accepted rows are the packaged lexicon, so the features are unchanged
    before = workspace / "out" / SMALL_ODS[0] / "features.csv"
    after = tmp_path / "out" / SMALL_ODS[0] / "features.csv"
    np.testing.assert_array_equal(
        FeatureTable.from_csv(after).values, FeatureTable.from_csv(before).values
    )


def _copy_stage_outputs(workspace, tmp_path):
    od = SMALL_ODS[0]
    shutil.copytree(workspace / "out" / od, tmp_path / od)
    return tmp_path / od


def _evaluate_err(tmp_path, capsys):
    rc = cli.main([
        "evaluate", "--features", str(tmp_path), "--models", str(tmp_path),
        "--od", SMALL_ODS[0], "--out", str(tmp_path / "comparison.csv"),
    ])
    assert rc == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("line, edit, message", [
    pytest.param(3, lambda row: row.rsplit(",", 1)[0], "expected 97 fields, got 96", id="short-row"),
    pytest.param(5, lambda row: row.replace(",", ",abc,", 1).rsplit(",", 1)[0],
                 "could not convert string to float: 'abc'", id="non-numeric"),
    pytest.param(4, lambda row: row.replace(",", ",inf,", 1).rsplit(",", 1)[0],
                 "airline_id is infinite", id="inf"),
])
def test_malformed_features_csv_exits_2_naming_file_and_line(
    workspace, tmp_path, capsys, line, edit, message
):
    path = _copy_stage_outputs(workspace, tmp_path) / "features.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = _evaluate_err(tmp_path, capsys)
    assert err.startswith(f"error: {path}: line {line}: ") and message in err


def _with_first_split(text, **changes):
    """A gbt.json whose first split node has `changes` applied."""
    obj = json.loads(text)
    node = next(tree for tree in obj["trees"] if "left" in tree)
    node.update(changes)
    return json.dumps(obj)


def _with_first_leaf(text, **changes):
    """A gbt.json whose first tree's leftmost leaf has `changes` applied."""
    obj = json.loads(text)
    node = obj["trees"][0]
    while "left" in node:
        node = node["left"]
    node.update(changes)
    return json.dumps(obj)


def _with_entry(key, edit):
    def rewrite(text):
        obj = json.loads(text)
        obj[key] = edit(obj[key])
        return json.dumps(obj)
    return rewrite


@pytest.mark.parametrize("name, rewrite, message", [
    pytest.param("gbt.json", lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "trees"}), "KeyError: 'trees'",
        id="no-trees"),
    pytest.param("gbt.json", lambda text: "not json", "JSONDecodeError", id="not-json"),
    pytest.param("gbt.json", lambda text: "[]", "AttributeError", id="not-an-object"),
    pytest.param("gbt.json", lambda text: text.replace('"eta"', '"rate"', 1),
                 "TypeError", id="unknown-param"),
    pytest.param("logit.json", lambda text: text.replace("farecast-logit", "other"),
                 "not a logistic-baseline", id="wrong-format"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, feature=93),
                 "ValueError: split feature 93 is not an index into 93 feature_names",
                 id="feature-out-of-range"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, feature=-1),
                 "ValueError: split feature -1 is not an index", id="negative-feature"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, threshold=math.nan),
                 "ValueError: split threshold nan is not finite", id="nan-threshold"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, missing_left=1),
                 "ValueError: split missing_left 1 is not a boolean", id="int-missing_left"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, missing_left="no"),
                 "ValueError: split missing_left 'no' is not a boolean", id="str-missing_left"),
    *[pytest.param("logit.json", _with_entry(key, lambda v: v[:-1]),
                   f"ValueError: {key} needs one value per feature name", id=f"short-{key}")
      for key in ("coef", "mean", "scale")],
    *[pytest.param("gbt.json", lambda text, key=key: _with_first_leaf(text, **{key: math.nan}),
                   f"ValueError: node {key} nan is not finite", id=f"nan-leaf-{key}")
      for key in ("weight", "cover", "grad_sum")],
    pytest.param("gbt.json", lambda text: _with_first_split(text, grad_sum=-math.inf),
                 "ValueError: node grad_sum -inf is not finite", id="inf-split-grad_sum"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, gain=math.nan),
                 "ValueError: node gain nan is not finite", id="nan-split-gain"),
    pytest.param("gbt.json", _with_entry("base_score", lambda v: math.nan),
                 "ValueError: base_score nan is not finite", id="nan-base_score"),
    pytest.param("logit.json", _with_entry("intercept", lambda v: math.nan),
                 "ValueError: intercept nan is not finite", id="nan-intercept"),
    *[pytest.param("logit.json", _with_entry(key, lambda v: [*v[:-1], math.inf]),
                   f"ValueError: {key} has a value that is not finite", id=f"inf-{key}")
      for key in ("coef", "mean", "scale")],
    # a JSON true or a numeric string where a number belongs
    pytest.param("gbt.json", lambda text: _with_first_split(text, threshold=True),
                 "ValueError: split threshold True is not a number", id="bool-threshold"),
    pytest.param("gbt.json", lambda text: _with_first_split(text, gain="1.5"),
                 "ValueError: node gain '1.5' is not a number", id="str-split-gain"),
    *[pytest.param("gbt.json", lambda text, key=key: _with_first_leaf(text, **{key: True}),
                   f"ValueError: node {key} True is not a number", id=f"bool-leaf-{key}")
      for key in ("weight", "cover", "grad_sum")],
    pytest.param("gbt.json", _with_entry("base_score", lambda v: True),
                 "ValueError: base_score True is not a number", id="bool-base_score"),
    *[pytest.param("logit.json", _with_entry("intercept", lambda v, bad=bad: bad),
                   f"ValueError: intercept {bad!r} is not a number", id=f"{kind}-intercept")
      for kind, bad in (("str", "1.5"), ("bool", True))],
    *[pytest.param("logit.json", _with_entry(key, lambda v: [*v[:-1], str(v[-1])]),
                   f"ValueError: {key} holds a value that is not a number", id=f"str-{key}")
      for key in ("coef", "mean", "scale")],
    *[pytest.param("gbt.json", _with_entry("params", lambda v, key=key: {**v, key: True}),
                   f"ValueError: {key} True is not {kind}", id=f"bool-param-{key}")
      for key, kind in (("eta", "a number"), ("n_trees", "an integer"))],
    pytest.param("logit.json", _with_entry("iterations", lambda v: 3.7),
                 "ValueError: iterations 3.7 is not an integer", id="float-iterations"),
    pytest.param("logit.json", _with_entry("converged", lambda v: "no"),
                 "ValueError: converged 'no' is not a boolean", id="str-converged"),
])
def test_malformed_model_file_exits_2_naming_file(workspace, tmp_path, capsys, name, rewrite, message):
    path = _copy_stage_outputs(workspace, tmp_path) / name
    path.write_text(rewrite(path.read_text(encoding="utf-8")), encoding="utf-8")
    err = _evaluate_err(tmp_path, capsys)
    assert err.startswith(f"error: {path}: not a readable model file") and message in err


def test_loaded_gain_table_is_in_share_order(workspace):
    text = (workspace / "out" / SMALL_ODS[0] / "gbt.json").read_text(encoding="utf-8")
    model = gbt.TreeEnsemble.from_json(text)
    assert list(model.gain_table) == list(gbt.feature_gain(model))
    shares = list(model.gain_table.values())
    assert len(shares) > 1 and shares == sorted(shares, reverse=True)
    assert json.loads(text)["gain_table"] == model.gain_table  # to_json still writes it


def test_evaluate_without_purchases_reports_undefined_winners(workspace, tmp_path, capsys):
    od = SMALL_ODS[0]
    path = _copy_stage_outputs(workspace, tmp_path) / "features.csv"
    table = FeatureTable.from_csv(path)
    table.column("is_bought")[:] = 0
    table.to_csv(path)
    flags = ["--features", str(tmp_path), "--od", od]
    assert cli.main(["train", *flags, "--out", str(tmp_path)]) == 0
    out = tmp_path / "comparison.csv"
    assert cli.main(["evaluate", *flags, "--models", str(tmp_path), "--out", str(out)]) == 0
    undefined = dict.fromkeys(("fn", "fp", "tp"), "undefined")
    assert f"winners: {undefined}" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == ["od,method,fn,fp,tp"] + [
        f"{od},{method},undefined,undefined,undefined" for method in ("logit", "xgb")]


@pytest.mark.parametrize("name, rewrite", [
    pytest.param("gbt.json", _with_entry("feature_names", lambda names: names[:5]),
                 id="gbt-truncated"),
    pytest.param("logit.json",
                 _with_entry("feature_names", lambda names: [names[1], names[0], *names[2:]]),
                 id="logit-swapped"),
])
def test_model_of_other_features_exits_2_naming_file(workspace, tmp_path, capsys, name, rewrite):
    path = _copy_stage_outputs(workspace, tmp_path) / name
    path.write_text(rewrite(path.read_text(encoding="utf-8")), encoding="utf-8")
    err = _evaluate_err(tmp_path, capsys)
    assert err.startswith(f"error: {path}: feature_names are not the 93 model columns")


def test_a_model_file_with_a_byte_order_mark_loads(workspace, tmp_path):
    """A model file that starts with a UTF-8 byte-order mark loads as the
    same model, as every other input file reads."""
    for name, cls in (("gbt.json", gbt.TreeEnsemble), ("logit.json", logit.LogitModel)):
        path = workspace / "out" / SMALL_ODS[0] / name
        marked = tmp_path / name
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert cli._load_model(marked, cls).to_json() == cli._load_model(path, cls).to_json()


def test_readme_walkthrough_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## Command-line walkthrough", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in walkthrough.split("```", 1)[0].splitlines()
             if line.startswith("farecast ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line, comments=True)[1:]).command for line in lines}
    assert commands == {"synth", "features", "train", "evaluate", "explain", "simulate"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_import_loads_no_scipy():
    # The runtime depends on numpy alone: scipy is a test-only dependency,
    # and importing scipy.special would add about 16 MiB to every process.
    # The modules are the CLI and every farecast module the benchmark imports.
    repo = Path(__file__).resolve().parents[1]
    tree = ast.parse((repo / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    modules = {"farecast.cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "farecast":
            modules.update(f"{node.module}.{alias.name}" if node.module == "farecast"
                           else node.module for alias in node.names)
    assert {"farecast.logit", "farecast.simulate"} <= modules
    code = (f"import sys, {', '.join(sorted(modules))}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
