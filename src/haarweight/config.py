"""Experiment configuration: versioned JSON schema, desk-scale defaults.

A config fully determines a run: weight grid, exponents, function counts,
seeds, calibration target, and output directory. Unknown keys are rejected
with the offending path so typos cannot silently change an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .analysis import SPECTRA
from .errors import ConfigError, ParameterError
from .weights import _FAMILIES, MatrixWeight, WeightFamily, _check_family, make_weight

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENT_IDS",
    "WeightSpec",
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
class WeightSpec:
    """One weight in the grid: either a generated family or a file to load."""

    name: str
    family: str = "constant"
    d: int = 1
    n: int = 1
    level: int = 4
    seed: int = 7
    params: dict = field(default_factory=dict)
    file: str | None = None

    def __post_init__(self):
        # 9 and 9.0 are one parameter: the same weight meta and config hash
        object.__setattr__(self, "params", {k: _floats(v) for k, v in self.params.items()})

    def realize(self) -> MatrixWeight:
        if self.file is not None:
            from .serialization import load_weight

            return load_weight(self.file)
        return make_weight(
            WeightFamily(
                family=self.family,
                d=self.d,
                n=self.n,
                level=self.level,
                params=dict(self.params),
                seed=self.seed,
            )
        )


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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for p in self.ps:
            if not 1.0 < p < math.inf:
                raise ConfigError(f"exponents must exceed 1 and be finite, got {p}")
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
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.calibration_target < 1.0:
            raise ConfigError(
                f"calibration_target must lie in (0, 1), got {self.calibration_target}"
            )
        for g in self.grids:
            if len(g) != 3 or g[0] < 1 or g[1] < 1 or g[2] < 0:
                raise ConfigError(f"grids entries are (d, n, L) triples, got {g!r}")
        _check_unique("grids", self.grids)
        _check_unique("weight names", [w.name for w in self.weights])
        _check_unique("sweep_alphas", self.sweep_alphas)
        if self.sweep_level < 1:  # a level-0 grid has no detail coefficient to probe
            raise ConfigError(f"sweep_level must be >= 1, got {self.sweep_level}")
        for w in self.weights:
            if w.file is not None:
                blank = WeightSpec(w.name, file=w.file)
                _check_file_spec(w.name, [k for k in _FILE_FIXED
                                          if getattr(w, k) != getattr(blank, k)])
                continue
            try:
                _check_family(w.family, w.params)
            except ParameterError as exc:
                raise ConfigError(f"weight {w.name!r}: {exc}") from exc
            if not isinstance(w.seed, int) or w.seed < 0:
                raise ConfigError(f"weight {w.name!r}: seed must be a "
                                  f"non-negative integer, got {w.seed!r}")
        lams = (self.stopping_lambda1, self.stopping_lambda2)
        if (lams[0] is None) != (lams[1] is None):
            raise ConfigError("stopping_lambda1 and stopping_lambda2 come as a pair")
        # written so that NaN fails, and infinity (a test that never fires) passes
        if lams[0] is not None and not (lams[0] > 1.0 and lams[1] > 1.0):
            raise ConfigError(f"stopping threshold overrides must exceed 1, got {lams}")


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
            val = [
                {"name": w.name, "file": w.file} if w.file is not None else
                {k: getattr(w, k) for k in (
                    "name", "family", "d", "n", "level", "seed", "params", "file"
                )}
                for w in val
            ]
        elif isinstance(val, tuple):
            val = [list(v) if isinstance(v, tuple) else v for v in val]
        out[f.name] = val
    return out


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # true is not 1


def _num(v) -> bool:
    return _int(v) or isinstance(v, float)


def _floats(v):
    """v with each number in it a float, lists and tuples entry by entry."""
    if isinstance(v, (list, tuple)):
        return type(v)(map(_floats, v))
    return float(v) if _num(v) else v


def _str(v) -> bool:
    return isinstance(v, str)


def _obj(v) -> bool:
    return isinstance(v, dict)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _or_null(check):
    return lambda v: v is None or check(v)


def _matrix(v) -> bool:
    return _list_of(_list_of(_num))(v) and len({len(row) for row in v}) <= 1


# the JSON type of every field, checked before any value is converted or
# compared: (test, what the error says the value must be)
_CONFIG_TYPES = {
    "schema_version": (_int, "an integer"),
    "experiments": (_list_of(_str), "a list of strings"),
    "seed": (_int, "an integer"),
    "ps": (_list_of(_num), "a list of numbers"),
    "spectra": (_list_of(_str), "a list of strings"),
    "count": (_int, "an integer"),
    "calibration_target": (_num, "a number"),
    "grids": (_list_of(_list_of(_int)), "a list of integer lists"),
    "weights": (_list_of(_obj), "a list of objects"),
    "sweep_alphas": (_list_of(_num), "a list of numbers"),
    "sweep_level": (_int, "an integer"),
    "stopping_lambda1": (_or_null(_num), "a number or null"),
    "stopping_lambda2": (_or_null(_num), "a number or null"),
    "out_dir": (_str, "a string"),
}
_WEIGHT_TYPES = {
    "name": (_str, "a string"),
    "family": (_str, "a string"),
    "d": (_int, "an integer"),
    "n": (_int, "an integer"),
    "level": (_int, "an integer"),
    "seed": (_int, "an integer"),
    "params": (_obj, "an object"),
    "file": (_or_null(_str), "a string or null"),
}
# the JSON type of every family parameter; which keys a family reads is
# checked by weights._check_family
_PARAM_TYPES = {
    "alpha": (_num, "a number"),
    "omega": (_num, "a number"),
    "phase": (_num, "a number"),
    "p_range": (_num, "a number"),
    "sigma": (_num, "a number"),
    "cond": (_num, "a number"),
    "x0": (_list_of(_num), "a list of numbers"),
    "matrix": (_matrix, "a list of equal-length number lists"),
}

assert list(_CONFIG_TYPES) == [f.name for f in fields(ExperimentConfig)]
assert list(_WEIGHT_TYPES) == [f.name for f in fields(WeightSpec)]
assert set(_PARAM_TYPES) == set().union(*(keys for _, keys in _FAMILIES.values()))


def _check_keys(given: dict, types: dict, where: str):
    """Reject unknown keys and values of the wrong JSON type."""
    unknown = set(given) - set(types)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {sorted(unknown)} at {where}; "
            f"allowed: {sorted(types)}"
        )
    for key, value in given.items():
        check, want = types[key]
        if not check(value):
            raise ConfigError(
                f"config key {key!r} at {where} must be {want}, got {value!r}"
            )


def _config_from_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw, _CONFIG_TYPES, "top level")
    kw = dict(raw)
    if "weights" in kw:
        specs = []
        for i, w in enumerate(kw["weights"]):
            if "name" not in w:
                raise ConfigError(f"weights[{i}] must be an object with a 'name'")
            where = f"weights[{i}] ({w['name']})"
            _check_keys(w, _WEIGHT_TYPES, where)
            if w.get("file") is not None:  # even a key at its default is refused
                _check_file_spec(w["name"], [k for k in _FILE_FIXED if k in w])
            # a key no family reads is left to _check_family, which names it
            typed = {k: v for k, v in w.get("params", {}).items() if k in _PARAM_TYPES}
            _check_keys(typed, _PARAM_TYPES, f"{where} params")
            specs.append(WeightSpec(**w))
        kw["weights"] = tuple(specs)
    for key in ("experiments", "spectra"):
        if key in kw:
            kw[key] = tuple(kw[key])
    if "grids" in kw:
        kw["grids"] = tuple(tuple(g) for g in kw["grids"])
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
