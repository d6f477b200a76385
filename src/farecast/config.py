"""Run configuration and scenario files.

Both are INI files read with configparser. The run config carries dataset
locations, model hyperparameters, and the global seed; the scenario file
describes the single flight being optimized (capacity, per-OD fare ladders,
brand mixes, demand history). A short hash of the effective config is stamped
into output headers so reruns can be traced to their inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .gbt import GbtParams
from .simulate import DemandMix, FareLadder, OdMarket, SimScenario

__all__ = [
    "RunConfig",
    "load_config",
    "config_hash",
    "write_scenario",
    "read_scenario",
    "atomic_write_text",
]

DATASET_FILES = {
    "bookings": "bookings.csv",
    "fares": "fares.csv",
    "reviews": "reviews.csv",
    "tweets": "tweets.csv",
    "safety": "safety.csv",
    "fleet": "fleet.csv",
}


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    ods: list[str] = field(default_factory=list)  # empty = all ODs found
    seed: int = 42
    holdout_frac: float = 0.2
    lexicon_path: str | None = None  # None = packaged default
    scenario_path: str | None = None
    gbt: GbtParams = field(default_factory=GbtParams)


def load_config(path: str | Path | None) -> RunConfig:
    """Load a run config; missing file/keys fall back to defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    if parser.has_section("run"):
        run = parser["run"]
        cfg.data_dir = run.get("data_dir", cfg.data_dir)
        cfg.out_dir = run.get("out_dir", cfg.out_dir)
        cfg.seed = run.getint("seed", cfg.seed)
        cfg.holdout_frac = run.getfloat("holdout_frac", cfg.holdout_frac)
        cfg.lexicon_path = run.get("lexicon", cfg.lexicon_path)
        cfg.scenario_path = run.get("scenario", cfg.scenario_path)
        ods_raw = run.get("ods", "").strip()
        if ods_raw:
            cfg.ods = [od.strip() for od in ods_raw.split(",") if od.strip()]
    if parser.has_section("gbt"):
        g = parser["gbt"]
        base = asdict(cfg.gbt)
        cfg.gbt = GbtParams(
            eta=g.getfloat("eta", base["eta"]),
            n_trees=g.getint("n_trees", base["n_trees"]),
            max_depth=g.getint("max_depth", base["max_depth"]),
            subsample=g.getfloat("subsample", base["subsample"]),
            colsample=g.getfloat("colsample", base["colsample"]),
            gamma=g.getfloat("gamma", base["gamma"]),
            lam=g.getfloat("lam", base["lam"]),
            seed=g.getint("seed", cfg.seed),
        )
    else:
        cfg.gbt = GbtParams(seed=cfg.seed)
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the effective configuration."""
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write whole-file content via a temp file + rename in the same dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_list(values) -> str:
    return ",".join(f"{float(v):.10g}" for v in values)


def _parse_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def write_scenario(scenario: SimScenario, path: str | Path) -> None:
    parser = configparser.ConfigParser()
    parser["scenario"] = {
        "capacity": str(scenario.capacity),
        "demand_factor_mean": f"{scenario.demand_factor_mean:.10g}",
        "demand_factor_sd": f"{scenario.demand_factor_sd:.10g}",
        "n_reps": str(scenario.n_reps),
        "seed": str(scenario.seed),
        "demand_cv": f"{scenario.demand_cv:.10g}",
        "holt_alpha": f"{scenario.holt_alpha:.10g}",
        "holt_beta": f"{scenario.holt_beta:.10g}",
        "cheap_early_prob": f"{scenario.cheap_early_prob:.10g}",
    }
    if scenario.forecast_day is not None:
        parser["scenario"]["forecast_day"] = str(scenario.forecast_day)
    for od in scenario.ods:
        parser[f"od:{od.name}"] = {
            "fares": _fmt_list(od.ladder.fares),
            "brand_mix": _fmt_list(od.mix.shares),
            "mean_demand": f"{od.mean_demand:.10g}",
            "history": _fmt_list(od.history),
            "covered": "1" if od.covered else "0",
        }
    import io

    buf = io.StringIO()
    parser.write(buf)
    atomic_write_text(path, buf.getvalue())


def read_scenario(path: str | Path) -> SimScenario:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    sc = parser["scenario"]
    ods = []
    for section in parser.sections():
        if not section.startswith("od:"):
            continue
        s = parser[section]
        ods.append(
            OdMarket(
                name=section[3:],
                ladder=FareLadder(tuple(_parse_list(s["fares"]))),
                mix=DemandMix(tuple(_parse_list(s["brand_mix"]))),  # type: ignore[arg-type]
                mean_demand=float(s["mean_demand"]),
                history=_parse_list(s["history"]),
                covered=s.get("covered", "0").strip() == "1",
            )
        )
    return SimScenario(
        capacity=int(sc["capacity"]),
        ods=ods,
        demand_factor_mean=float(sc.get("demand_factor_mean", "0.98")),
        demand_factor_sd=float(sc.get("demand_factor_sd", "0.1")),
        n_reps=int(sc.get("n_reps", "500")),
        seed=int(sc.get("seed", "0")),
        demand_cv=float(sc.get("demand_cv", "0.3")),
        holt_alpha=float(sc.get("holt_alpha", "0.3")),
        holt_beta=float(sc.get("holt_beta", "0.1")),
        cheap_early_prob=float(sc.get("cheap_early_prob", "0.7")),
        forecast_day=int(sc["forecast_day"]) if "forecast_day" in sc else None,
    )
