"""Run configuration and scenario files.

Both are INI files read with configparser, and a file that does not parse
raises ParseError naming it. The run config carries the data and output
directories (dataset file names come from `ingest.DATASETS`), an optional
lexicon file, model hyperparameters and the global seed; the scenario file
describes the single flight being optimized (capacity, per-OD fare ladders,
brand mixes, demand history). A short hash of the effective config is stamped
into output headers so reruns can be traced to their inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence, get_type_hints

from .gbt import GbtParams
from .ingest import ParseError, atomic_write_text
from .simulate import DemandMix, FareLadder, OdMarket, SimScenario

__all__ = [
    "RunConfig",
    "load_config",
    "config_hash",
    "write_scenario",
    "read_scenario",
]

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


_RUN_KEYS = ("data_dir", "out_dir", "seed", "holdout_frac", "lexicon", "scenario", "ods")
_OD_KEYS = ("fares", "brand_mix", "mean_demand", "history", "covered")


def _reject_unknown(parser: configparser.ConfigParser, known: dict[str, Sequence[str]]) -> None:
    """ValueError for a section that `known` lacks ("od:" stands for every
    od:NAME section) or a key outside its list; [DEFAULT] keys count as set
    in every section."""
    for section in parser.sections():
        keys = known.get("od:" if section.startswith("od:") else section)
        if keys is None:
            raise ValueError(f"unknown section [{section}]")
        unknown = [key for key in parser[section] if key not in keys]
        if unknown:
            raise ValueError(f"section [{section}] has unknown key '{unknown[0]}'")


def load_config(path: str | Path | None) -> RunConfig:
    """Load a run config; absent keys fall back to defaults. A missing file
    raises FileNotFoundError; an unknown section or key, or a value that does
    not parse or is out of range, ParseError."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8-sig")
        _reject_unknown(parser, {
            "run": _RUN_KEYS,
            "gbt": [n for n, _ in _scalar_fields(GbtParams)],
        })
        if parser.has_section("run"):
            run = parser["run"]
            cfg.data_dir = run.get("data_dir", cfg.data_dir)
            cfg.out_dir = run.get("out_dir", cfg.out_dir)
            cfg.seed = run.getint("seed", cfg.seed)
            if cfg.seed < 0:
                raise ValueError(f"[run] seed must be >= 0, got {cfg.seed}")
            cfg.holdout_frac = run.getfloat("holdout_frac", cfg.holdout_frac)
            if not 0 < cfg.holdout_frac < 1:  # also rejects nan
                raise ValueError(f"holdout_frac must be in (0, 1), got {cfg.holdout_frac}")
            cfg.lexicon_path = run.get("lexicon", cfg.lexicon_path)
            cfg.scenario_path = run.get("scenario", cfg.scenario_path)
            ods_raw = run.get("ods", "").strip()
            if ods_raw:
                cfg.ods = [od.strip() for od in ods_raw.split(",") if od.strip()]
        gbt_values = _read_scalars(parser["gbt"], GbtParams) if parser.has_section("gbt") else {}
        cfg.gbt = GbtParams(**{"seed": cfg.seed, **gbt_values})
    except (ValueError, configparser.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the effective configuration."""
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _scalar_fields(cls) -> list[tuple[str, type]]:
    """(name, int or float) for each plain int/float field, in declaration order."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if hints[f.name] in (int, float)]


def _read_scalars(section: configparser.SectionProxy, cls) -> dict:
    """The int/float fields of `cls` that the section sets; absent keys are
    left out so the dataclass defaults apply."""
    getters = {int: section.getint, float: section.getfloat}
    return {name: getters[kind](name) for name, kind in _scalar_fields(cls) if name in section}


def _write_scalars(obj) -> dict[str, str]:
    """The int/float fields of `obj` as INI strings: ints via str, floats via .10g."""
    return {
        name: str(getattr(obj, name)) if kind is int else f"{getattr(obj, name):.10g}"
        for name, kind in _scalar_fields(type(obj))
    }


def _fmt_list(values) -> str:
    return ",".join(f"{float(v):.10g}" for v in values)


def _parse_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def write_scenario(scenario: SimScenario, path: str | Path) -> None:
    parser = configparser.ConfigParser()
    parser["scenario"] = _write_scalars(scenario)
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
    buf = io.StringIO()
    parser.write(buf)
    atomic_write_text(path, buf.getvalue())


def read_scenario(path: str | Path) -> SimScenario:
    """Read a scenario file. A missing or unknown section or key, a value that
    does not parse and a value the scenario rejects raise ParseError naming
    the file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser()

    def get(section: str, key: str) -> str:
        if not parser.has_section(section):
            raise ParseError(f"{path}: missing section [{section}]")
        if key not in parser[section]:
            raise ParseError(f"{path}: section [{section}] has no key '{key}'")
        return parser[section][key]

    try:
        parser.read(path, encoding="utf-8-sig")
        _reject_unknown(parser, {
            "scenario": [n for n, _ in _scalar_fields(SimScenario)] + ["forecast_day"],
            "od:": _OD_KEYS,
        })
        get("scenario", "capacity")  # the one scenario field without a default
        ods = [
            OdMarket(
                name=section[3:],
                ladder=FareLadder(tuple(_parse_list(get(section, "fares")))),
                mix=DemandMix(tuple(_parse_list(get(section, "brand_mix")))),  # type: ignore[arg-type]
                mean_demand=float(get(section, "mean_demand")),
                history=_parse_list(get(section, "history")),
                covered=parser[section].getboolean("covered", False),
            )
            for section in parser.sections()
            if section.startswith("od:")
        ]
        sc = parser["scenario"]
        return SimScenario(
            ods=ods,
            forecast_day=sc.getint("forecast_day"),
            **_read_scalars(sc, SimScenario),
        )
    except (ValueError, configparser.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
