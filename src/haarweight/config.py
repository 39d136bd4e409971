"""Experiment configuration: versioned JSON schema, desk-scale defaults.

A config fully determines a run: weight grid, exponents, function counts,
seeds, calibration target, and output directory. Each rule is checked in one
place, so a config built in Python is held to what a JSON config is held to:
- the constructors check types and values: ExperimentConfig each field
  against _CONFIG_TYPES before any value is converted, its exponents with
  dyadic.check_exponent and its threshold overrides with
  stopping.StoppingConfig; weights._check_spec each weight's fields and
  parameters against _WEIGHT_TYPES and _PARAM_TYPES and its family's rules,
  and so each sweep point's spec (_sweeps, which the sharpness experiment
  and criterion 11 run). Every error is a ConfigError, a weight's naming the
  weight and a sweep point's the point;
- load_config checks only the JSON shape: an object at the top, no unknown
  key (named by its JSON path, so typos cannot silently change an
  experiment), and no generator key next to a weight's 'file', even at its
  default. It turns lists into tuples and weight objects into WeightSpecs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .analysis import SPECTRA
from .dyadic import check_exponent
from .errors import ConfigError, HaarweightError
from .stopping import StoppingConfig
from .weights import (
    _WEIGHT_TYPES,
    WeightSpec,
    _at_least,
    _check_spec,
    _check_types,
    _int,
    _list_of,
    _num,
    _or_null,
    _str,
)

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "config_to_dict",
    "load_config",
    "default_config",
]

SCHEMA_VERSION = 1

# run-able experiment ids; the registry in experiments.py must match
EXPERIMENT_IDS = (
    "haar",
    "reducing",
    "stopping",
    "multiplier",
    "equivalence",
    "sharpness",
)


def _exponent_tag(p: float) -> str:
    """The tag p{p:g} in the names of an exponent's files."""
    return f"p{p:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    experiments: tuple = EXPERIMENT_IDS
    seed: int = 7
    ps: tuple = (2.0, 3.0)
    spectra: tuple = SPECTRA
    count: int = 50
    calibration_target: float = 0.5
    grids: tuple = ((1, 1, 6), (1, 2, 5), (2, 1, 4))  # (d, n, L) transform checks
    weights: tuple = ()
    sweep_alphas: tuple = ()
    sweep_level: int = 10
    stopping_lambda1: float | None = None  # override: skip calibration when set
    stopping_lambda2: float | None = None
    out_dir: str = "out"

    def __post_init__(self):
        _check_types(vars(self), _CONFIG_TYPES, ConfigError)
        # 2 and 2.0 are one config: the same CSV columns and config hash
        for key in ("ps", "sweep_alphas", "stopping_lambda1", "stopping_lambda2"):
            v = getattr(self, key)
            if v is not None:
                v = tuple(map(float, v)) if isinstance(v, (tuple, list)) else float(v)
                object.__setattr__(self, key, v)
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported "
                f"(this library reads version {SCHEMA_VERSION})"
            )
        unknown = set(self.experiments) - set(EXPERIMENT_IDS)
        if unknown:
            raise ConfigError(
                f"unknown experiment ids {sorted(unknown)}; known: {EXPERIMENT_IDS}"
            )
        _check_unique("experiment ids", self.experiments)
        for p in self.ps:
            _config_error("ps", check_exponent, p)
        _check_unique("ps", self.ps)
        spelled = {}
        for p in self.ps:
            other = spelled.setdefault(_exponent_tag(p), p)
            if other != p:
                raise ConfigError(f"exponents {other!r} and {p!r} both name their "
                                  f"files {_exponent_tag(p)}")
        if not self.spectra:
            raise ConfigError("spectra must name at least one spectrum")
        bad = set(self.spectra) - set(SPECTRA)
        if bad:
            raise ConfigError(f"unknown spectra {sorted(bad)}; known: {SPECTRA}")
        _check_unique("grids", self.grids)
        for w in self.weights:
            if w.file is not None:
                blank = WeightSpec(w.name, file=w.file)
                _check_file_spec(w.name, [k for k in _FILE_FIXED
                                          if getattr(w, k) != getattr(blank, k)])
            _config_error(f"weight {w.name!r}", _check_spec, w)
        _check_unique("weight names", [w.name for w in self.weights])
        for sweep in _sweeps(self):
            for spec in sweep.points:
                _config_error(f"sweep point {spec.name!r}", _check_spec, spec)
        _check_unique("sweep_alphas", self.sweep_alphas)
        lams = (self.stopping_lambda1, self.stopping_lambda2)
        if (lams[0] is None) != (lams[1] is None):
            raise ConfigError("stopping_lambda1 and stopping_lambda2 come as a pair")
        if lams[0] is not None:
            _config_error("stopping threshold overrides", StoppingConfig, *lams)


@dataclass(frozen=True)
class _Sweep:
    """The p=2 points of one characteristic sweep, one WeightSpec per point.
    Every point records its characteristic and probe extremes; `equivalence`
    adds the sampled equivalence maxima, else they read nan."""

    points: tuple
    equivalence: bool


def _sweeps(config: ExperimentConfig) -> tuple:
    """The power sweep over sweep_alphas at sweep_level, and the exploratory
    n=2 rotating points (reported, never asserted) at level 7 or below: each
    point the sweep's base spec at one alpha, named like `power alpha=0.5`."""

    def points(base: WeightSpec, alphas) -> tuple:
        return tuple(replace(base, name=f"{base.name} alpha={a}", params={"alpha": a})
                     for a in alphas)

    return (
        _Sweep(points(WeightSpec("power", "power", 1, 1, config.sweep_level, seed=config.seed),
                      config.sweep_alphas), equivalence=True),
        _Sweep(points(WeightSpec("rotating", "rotating", 1, 2, min(7, config.sweep_level),
                                 seed=config.seed), (0.3, 0.6, 0.9)), equivalence=False),
    )


def _config_error(what: str, check, *args) -> None:
    """check(*args), its HaarweightError raised as a ConfigError about what."""
    try:
        check(*args)
    except HaarweightError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _check_unique(what: str, values) -> None:
    """ConfigError naming each value that values lists more than once."""
    values = list(values)
    dups = list(dict.fromkeys(v for i, v in enumerate(values) if v in values[:i]))
    if dups:
        raise ConfigError(f"duplicate {what} in config: {dups}")


# the WeightSpec fields that a weight read from a file takes from the file
_FILE_FIXED = ("family", "d", "n", "level", "seed", "params")


def _check_file_spec(name: str, given: list) -> None:
    if given:
        raise ConfigError(
            f"weight {name!r} is read from 'file', which fixes {list(_FILE_FIXED)}; "
            f"remove {given}"
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "weights":
            val = [{"name": w.name, "file": w.file} if w.file is not None else asdict(w)
                   for w in val]
        elif isinstance(val, tuple):
            val = [list(v) if isinstance(v, tuple) else v for v in val]
        out[f.name] = val
    return out


# the type of every field, checked before any value is converted or compared:
# (test, what the value must be); a sequence may be a list or a tuple
_CONFIG_TYPES = {
    "schema_version": (_int, "an integer"),
    "experiments": (_list_of(_str), "a list of strings"),
    "seed": (_at_least(0), "an integer >= 0"),
    "ps": (_list_of(_num), "a list of numbers"),
    "spectra": (_list_of(_str), "a list of strings"),
    "count": (_at_least(1), "an integer >= 1"),
    "calibration_target": (lambda v: _num(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "grids": (_list_of(lambda g: _list_of(_int)(g) and len(g) == 3
                       and g[0] >= 1 and g[1] >= 1 and g[2] >= 0),
              "a list of (d, n, L) integer triples, d >= 1, n >= 1 and L >= 0"),
    "weights": (_list_of(lambda w: isinstance(w, WeightSpec)), "a list of weights"),
    "sweep_alphas": (_list_of(_num), "a list of numbers"),
    # a level-0 grid has no detail coefficient to probe
    "sweep_level": (_at_least(1), "an integer >= 1"),
    "stopping_lambda1": (_or_null(_num), "a number or null"),
    "stopping_lambda2": (_or_null(_num), "a number or null"),
    "out_dir": (_str, "a string"),
}

assert list(_CONFIG_TYPES) == [f.name for f in fields(ExperimentConfig)]


def _check_keys(given: dict, known, where: str) -> None:
    """Reject the keys of given that known does not list."""
    unknown = set(given) - set(known)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {sorted(unknown)} at {where}; "
            f"allowed: {sorted(known)}"
        )


def _tuples(v):
    """v with each list in it a tuple; objects are left as they are."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def _spec_from_dict(w: dict, i: int) -> WeightSpec:
    if "name" not in w:
        raise ConfigError(f"weights[{i}] must be an object with a 'name'")
    _check_keys(w, _WEIGHT_TYPES, f"weights[{i}] ({w['name']})")
    if w.get("file") is not None:  # even a key at its default is refused
        _check_file_spec(w["name"], [k for k in _FILE_FIXED if k in w])
    return WeightSpec(**w)


def _config_from_dict(raw: dict) -> ExperimentConfig:
    """The config of a parsed JSON object; the constructor checks its values."""
    _check_keys(raw, _CONFIG_TYPES, "top level")
    kw = {k: _tuples(v) for k, v in raw.items()}
    if isinstance(kw.get("weights"), tuple):
        kw["weights"] = tuple(_spec_from_dict(w, i) if isinstance(w, dict) else w
                              for i, w in enumerate(kw["weights"]))
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _config_from_dict(raw)


# ---------------------------------------------------------------------------
# desk-scale defaults: the acceptance weight suite and the alpha sweep


def suite_weight_specs() -> tuple:
    """Nine weights covering d in {1,2}, n in {1,2,3}, all four families."""
    return (
        WeightSpec("id2-const", "constant", 1, 2, 8, params={"matrix": [[1.0, 0.0], [0.0, 1.0]]}),
        WeightSpec("pow-a03", "power", 1, 1, 10, params={"alpha": 0.3}),
        WeightSpec("pow-am08", "power", 1, 1, 10, params={"alpha": -0.8}),
        WeightSpec("pow2-a06", "power", 1, 2, 7, params={"alpha": 0.6}),
        WeightSpec("rot-a06", "rotating", 1, 2, 7, params={"alpha": 0.6}),
        WeightSpec("logb3-s04", "logbrownian", 1, 3, 6, params={"sigma": 0.4}),
        WeightSpec("const-diag19", "constant", 1, 2, 6, params={"matrix": [[1.0, 0.0], [0.0, 9.0]]}),
        WeightSpec("pow2d-a05", "power", 2, 1, 5, params={"alpha": 0.5}),
        WeightSpec("rot2d-a05", "rotating", 2, 2, 4, params={"alpha": 0.5}),
    )


def sweep_alpha_grid() -> tuple:
    """In-range power exponents whose characteristic spans > 2 decades at L=10.

    The singular branch alpha -> -1 tracks 1/(1 - alpha^2) on the dyadic grid;
    the flat point 0.5 anchors the low end.
    """
    return (0.5, -0.5, -0.75, -0.875, -0.9375, -0.96875,
            -0.984375, -0.9921875, -0.99609375, -0.998046875)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(weights=suite_weight_specs(), sweep_alphas=sweep_alpha_grid())
