"""Experiment runner: registry, shared caches, artifacts.

Each experiment decomposes into independent cells (one weight and exponent,
one grid, one sweep point). Cells run one after another in a fixed order, so
reruns of a config write identical outputs. A failing cell is recorded and
skipped; it never aborts the sweep.

Every experiment but sharpness is a cell function and the spec of its
tables. One helper, `_run_cells`, runs the cells, records each cell that
raises as a `CellFailure`, then writes the rows of the cells that returned
into the tables. A cell writes its side file (an equivalence report, a
stopping tree) as its last step, so a cell that raises leaves neither rows
nor side files.

The characteristic sweeps of the sharpness experiment (the scalar power
sweep, which criterion 11 shares, and the rotating points) are data built
from the config (`_sweeps`: a base WeightSpec and its alphas) run by one
runner, `_run_sweep`: one spec and build per point, named like `power
alpha=0.5`, one `sharpness_probes` call per sweep, rows in char order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _draw_batch,
    block_partition_constant,
    equivalence_ratios,
    loglog_slope,
    random_mean_zero_batch,
    sharpness_probes,
)
from .config import EXPERIMENT_IDS, ExperimentConfig, _exponent_tag, config_to_dict
from .dyadic import HaarCoefficients, _column_blocks, _lp_integrals, _random_exactness_errors
from .errors import ConfigError, HaarweightError, ParameterError
from .multipliers import t_blocks, t_operator
from .reducing import build_reducing_family, duality_check
from .serialization import (
    equivalence_rows,
    equivalence_to_dict,
    save_generation_tree,
    write_csv,
    write_json,
    write_manifest,
)
from .stopping import (
    StoppingConfig,
    build_generations,
    calibrate_lambdas,
    decay_ratio,
)
from .weights import WeightSpec, make_weight

__all__ = [
    "RunContext",
    "CellFailure",
    "RunResult",
    "alpha_sweep_report",
    "run_experiments",
]


class RunContext:
    """Lazily built weights, operator families, calibrations, and trees.

    Shared between the experiment registry and the acceptance checks so the
    expensive ellipsoid fits happen once per (weight, exponent). A failed
    build is not cached, so asking again retries it.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._weights = {}
        self._families = {}
        self._cals = {}
        self._trees = {}

    def cells(self) -> list:
        """Every (weight name, exponent) pair, weights outermost."""
        return [(w.name, p) for w in self.config.weights for p in self.config.ps]

    def spec(self, name: str) -> WeightSpec:
        for w in self.config.weights:
            if w.name == name:
                return w
        raise ConfigError(f"no weight named {name!r} in config")

    def weight(self, name: str):
        if name not in self._weights:
            self._weights[name] = self.spec(name).realize()
        return self._weights[name]

    def family(self, name: str, p: float):
        if (name, p) not in self._families:
            self._families[name, p] = build_reducing_family(self.weight(name), p)
        return self._families[name, p]

    def signatures(self) -> dict:
        """Weight names grouped by the realized weight's (d, n), in config
        order. A weight file carries its own (d, n), whatever its spec says.
        A weight that cannot be realized is in no group; its own cells fail
        with its error when they ask for it."""
        groups = {}
        for w in self.config.weights:
            try:
                weight = self.weight(w.name)
            except HaarweightError:  # reported by the weight's own cells
                continue
            groups.setdefault((weight.d, weight.n), []).append(w.name)
        return groups

    def calibration(self, d: int, n: int, p: float):
        """Shared thresholds, calibrated over all suite weights with this
        signature (constant-direction tests scale with n and d)."""
        if (d, n, p) not in self._cals:
            names = self.signatures().get((d, n))
            if not names:
                raise ConfigError(f"no suite weights with d={d}, n={n}")
            fams = [(name, self.family(name, p)) for name in names]
            self._cals[d, n, p] = calibrate_lambdas(
                [(name, fam.weight, fam) for name, fam in fams],
                target=self.config.calibration_target,
            )
        return self._cals[d, n, p]

    def stopping_config(self, name: str, p: float) -> StoppingConfig:
        cfg = self.config
        if cfg.stopping_lambda1 is not None:
            return StoppingConfig(cfg.stopping_lambda1, cfg.stopping_lambda2)
        w = self.weight(name)
        cal = self.calibration(w.d, w.n, p)
        return StoppingConfig(cal.lambda1, cal.lambda2_by_weight[name])

    def tree(self, name: str, p: float):
        if (name, p) not in self._trees:
            self._trees[name, p] = build_generations(
                self.family(name, p), self.stopping_config(name, p)
            )
        return self._trees[name, p]


@dataclass(frozen=True)
class CellFailure:
    experiment: str
    cell: str
    error: str


@dataclass
class RunResult:
    out_dir: Path
    files: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _isolate(fn, keys):
    """Run fn on each key in order. Returns the results of the cells that
    returned and (key, repr(error)) for each cell that raised."""
    done, failed = [], []
    for key in keys:
        try:
            done.append(fn(key))
        except Exception as exc:  # isolation: a bad cell must not kill the run
            failed.append((key, repr(exc)))
    return done, failed


def _run_cells(result: RunResult, experiment: str, cell, keys, *tables):
    """Run cell on each key in order (_isolate) and write the experiment's
    tables, each a (file name, header) pair, into result.out_dir. A cell
    returns a tuple with one list of rows per table; a cell that raises is a
    CellFailure row instead."""
    done, failed = _isolate(cell, keys)
    result.failures += [CellFailure(experiment, str(k), e) for k, e in failed]
    for i, (name, header) in enumerate(tables):
        rows = [row for parts in done for row in parts[i]]
        result.files.append(write_csv(result.out_dir / name, header, rows))


# ---------------------------------------------------------------------------
# experiment bodies: a cell function and the spec of its tables


def _run_haar(ctx: RunContext, result: RunResult):
    cfg = ctx.config

    def cell(grid):
        d, n, level = grid
        rt, pv = _random_exactness_errors(d, n, level, [[cfg.seed, d, n, level, i]
                                                        for i in range(cfg.count)])
        return ([[d, n, level, i, float(rt[i]), float(pv[i])] for i in range(cfg.count)],)

    _run_cells(result, "haar", cell, cfg.grids,
               ("haar_checks.csv",
                ["d", "n", "L", "index", "roundtrip_error", "parseval_error"]))


def _run_reducing(ctx: RunContext, result: RunResult):
    def cell(key):
        name, p = key
        fam = ctx.family(name, p)
        rep = duality_check(ctx.weight(name), p, family=fam)
        return ([[name, p, rep.char, fam.min_pair_norm(), fam.max_kappa(),
                  rep.log_gap, rep.log_bound, rep.passed]],)

    _run_cells(result, "reducing", cell, ctx.cells(),
               ("reducing_scan.csv",
                ["weight", "p", "char", "min_pair_norm", "max_kappa",
                 "duality_log_gap", "duality_log_bound", "duality_ok"]))


def _run_stopping(ctx: RunContext, result: RunResult, dump: bool = False):
    def cell(key):
        name, p = key
        tree = ctx.tree(name, p)
        rows = [[name, p, tree.config.lambda1, tree.config.lambda2, tree.generation_count(),
                 *(decay_ratio(tree, j) for j in range(1, 6))]]
        if dump:  # the last step: a cell that raises leaves no tree behind
            path = result.out_dir / f"stopping_{name}_{_exponent_tag(p)}.json"
            result.files.append(save_generation_tree(tree, path))
        return (rows,)

    _run_cells(result, "stopping", cell, ctx.cells(),
               ("stopping_decay.csv",
                ["weight", "p", "lambda1", "lambda2", "generations",
                 "decay_1", "decay_2", "decay_3", "decay_4", "decay_5"]))


def _run_multiplier(ctx: RunContext, result: RunResult):
    cfg = ctx.config

    def cell(key):
        name, p = key
        w = ctx.weight(name)
        tree = ctx.tree(name, p)
        f = random_mean_zero_batch(w, cfg.count, [cfg.seed, 5], cfg.spectra)
        parts, deltas = block_partition_constant(f, tree)
        # ||T_j f||_p^p per function and generation, in blocks of function
        # columns; a block's T_j f is freed before the next is formed
        powers = np.empty(deltas.shape)
        per_column = (1 << w.level * w.d) * w.n * deltas.shape[-1]
        for cols, part in _column_blocks(f, per_column):
            powers[cols] = _lp_integrals(np.linalg.norm(t_blocks(tree, part).values, axis=w.d),
                                         w.d, p)
        carried = deltas > 0.0  # ||T_j f||_p^p / ||Delta_j f||_p^p where Delta_j f != 0
        quots = powers[carried] / deltas[carried]
        # the sum identity sum_j T_j f = T f on the first five functions of
        # the batch, copied out: strided views left a 0.8 MiB higher peak RSS
        # on the p=2 suite. t_blocks forms every column as it is alone, so
        # these T_j f are those of the blocks above, bit for bit
        first = HaarCoefficients(f.d, f.n, f.level, f.root_scaling[..., :5].copy(),
                                 f.rows[..., :5].copy())
        total = t_blocks(tree, first).values.sum(axis=-1)
        tf = t_operator(tree.family, first).values
        grid = tuple(range(w.d + 1))  # cells and value components
        scale = np.maximum(1.0, np.abs(tf).max(axis=grid))
        sum_err = float((np.abs(total - tf).max(axis=grid) / scale).max())
        return ([[name, p, parts.max(), parts.mean(),
                  quots.max() if quots.size else float("nan"), sum_err]],)

    _run_cells(result, "multiplier", cell, ctx.cells(),
               ("multiplier_bounds.csv",
                ["weight", "p", "partition_max", "partition_mean",
                 "block_quotient_max", "sum_identity_error"]))


def _run_equivalence(ctx: RunContext, result: RunResult):
    cfg = ctx.config

    def cell(key):
        name, p = key
        rep = equivalence_ratios(ctx.family(name, p), cfg.count,
                                 seed=cfg.seed, spectra=cfg.spectra)
        rows = ([[name, p, rep.char, rep.max_ratio, rep.max_inverse_ratio,
                  rep.c1_emp, rep.c2_emp, rep.skipped]],
                [[name, p, *row] for row in equivalence_rows(rep)])
        # the last step: a cell that raises leaves no report behind
        path = result.out_dir / f"equivalence_{name}_{_exponent_tag(p)}.json"
        result.files.append(write_json(path, equivalence_to_dict(rep)))
        return rows

    _run_cells(result, "equivalence", cell, ctx.cells(),
               ("equivalence_summary.csv",
                ["weight", "p", "char", "max_ratio", "max_inverse_ratio",
                 "c1_emp", "c2_emp", "skipped"]),
               ("equivalence_ratios.csv",
                ["weight", "p", "index", "spectrum", "ratio", "inverse_ratio"]))


# ---------------------------------------------------------------------------
# the characteristic sweeps (the power sweep is shared with criterion 11)


@dataclass(frozen=True)
class _Sweep:
    """One p=2 point per alpha, the base spec at that alpha. Every point
    records its characteristic and probe extremes; `equivalence` adds the
    sampled equivalence maxima, else they read nan."""

    base: WeightSpec
    alphas: tuple
    equivalence: bool


def _sweeps(config: ExperimentConfig) -> tuple:
    """The power sweep over sweep_alphas at sweep_level, and the exploratory
    n=2 rotating points (reported, never asserted) at level 7 or below."""
    return (
        _Sweep(WeightSpec("power", "power", 1, 1, config.sweep_level, seed=config.seed),
               config.sweep_alphas, equivalence=True),
        _Sweep(WeightSpec("rotating", "rotating", 1, 2, min(7, config.sweep_level),
                          seed=config.seed), (0.3, 0.6, 0.9), equivalence=False),
    )


_SWEEP_COLUMNS = ["alpha", "char", "eq_max_ratio", "eq_max_inverse_ratio",
                  "probe_max_ratio", "probe_max_inverse_ratio"]


def _run_sweep(sweep: _Sweep, config: ExperimentConfig):
    """Every point of the sweep. Each point's weight and p=2 family (and
    equivalence report) are built once, under _isolate; then one
    sharpness_probes call probes every point that built, all on one grid, so
    one lock-step Lanczos per direction serves the whole sweep.

    Returns the rows (dicts keyed by _SWEEP_COLUMNS) of the points that
    survived both steps, sorted by char, and (spec, error) for each point
    whose build or probe raised, in sweep order."""
    base = sweep.base
    specs = [replace(base, name=f"{base.name} alpha={a}", params={"alpha": a})
             for a in sweep.alphas]

    def build(i):
        fam = build_reducing_family(make_weight(specs[i]), 2.0)
        eq = (float("nan"),) * 2
        if sweep.equivalence:
            rep = equivalence_ratios(fam, config.count, seed=config.seed)
            eq = (rep.max_ratio, rep.max_inverse_ratio)
        return i, fam, (sweep.alphas[i], fam.characteristic(), *eq)

    built, failed = _isolate(build, range(len(specs)))
    rows = []
    for (i, _, head), probe in zip(built, sharpness_probes([b[1] for b in built])):
        if isinstance(probe, Exception):
            failed.append((i, repr(probe)))
        else:
            rows.append(dict(zip(_SWEEP_COLUMNS,
                                 head + (probe.max_ratio, probe.max_inverse_ratio))))
    rows.sort(key=lambda r: r["char"])
    return rows, [(specs[i], err) for i, err in sorted(failed)]


def alpha_sweep_report(config: ExperimentConfig) -> dict:
    """The p=2 scalar power sweep over the config's sweep_alphas at
    sweep_level: its rows in char order, the points that failed, and fitted
    log-log slopes of four quantities against the characteristic: the
    sampled max ratio and max inverse ratio (upper-bounded by the 3/2 and 2
    exponents) and the probe extremal ratios (compared against the scalar
    sharp exponents 1/2 and 1). Eigenvalue-level and low-characteristic local
    slopes are reported as diagnostics: the extremal-ratio direction is
    capped at sqrt(levels) on a depth-L grid, which confines its power growth
    in the characteristic to chars below about L.

    The rows and failed points are those of the power sweep's _run_sweep;
    fewer than three surviving rows give ParameterError.
    """
    power, _ = _sweeps(config)
    return _power_report(config, *_run_sweep(power, config))


def _power_report(config: ExperimentConfig, rows: list, failed: list) -> dict:
    if len(rows) < 3:
        raise ParameterError(
            f"alpha sweep needs at least three surviving points, got {len(rows)}"
        )
    chars = np.array([r["char"] for r in rows])

    def slope_of(field_name):
        return loglog_slope(chars, [r[field_name] for r in rows])

    report = {
        "level": config.sweep_level,
        "count": config.count,
        "seed": config.seed,
        "char_decades": float(np.log10(chars.max() / chars.min())),
        "rows": rows,
        "failed": [{"alpha": spec.params["alpha"], "error": err} for spec, err in failed],
        "eq_ratio_slope": slope_of("eq_max_ratio"),
        "eq_inverse_slope": slope_of("eq_max_inverse_ratio"),
        "probe_ratio_slope": slope_of("probe_max_ratio"),
        "probe_inverse_slope": slope_of("probe_max_inverse_ratio"),
    }
    # diagnostics: squared-ratio (eigenvalue) slopes are exactly twice the
    # norm-level slopes; the low-char window is where the capped direction
    # still moves
    low = chars <= max(4.0, float(chars.min()) * 4.0)
    if low.sum() >= 3:
        report["probe_ratio_slope_lowchar"] = loglog_slope(
            chars[low], [rows[i]["probe_max_ratio"] for i in np.nonzero(low)[0]]
        )
    report["probe_eigen_ratio_slope"] = 2.0 * report["probe_ratio_slope"]["slope"]
    report["probe_eigen_inverse_slope"] = 2.0 * report["probe_inverse_slope"]["slope"]
    return report


def _run_sharpness(ctx: RunContext, result: RunResult):
    cfg = ctx.config
    if not cfg.sweep_alphas:
        raise ConfigError("sharpness experiment needs sweep_alphas in the config")
    runs = [_run_sweep(sweep, cfg) for sweep in _sweeps(cfg)]  # power, rotating
    result.failures += [CellFailure("sharpness", spec.name, err)
                        for _, failed in runs for spec, err in failed]
    result.files.append(
        write_csv(result.out_dir / "sharpness_sweep.csv", _SWEEP_COLUMNS,
                  [[r[k] for k in _SWEEP_COLUMNS] for rows, _ in runs for r in rows])
    )
    report = _power_report(cfg, *runs[0])
    result.files.append(write_json(result.out_dir / "sharpness_report.json", report))


_REGISTRY = {
    "haar": _run_haar,
    "reducing": _run_reducing,
    "stopping": _run_stopping,
    "multiplier": _run_multiplier,
    "equivalence": _run_equivalence,
    "sharpness": _run_sharpness,
}

assert tuple(_REGISTRY) == EXPERIMENT_IDS


def run_experiments(config: ExperimentConfig, dump_stopping: bool = False) -> RunResult:
    """Execute the config's experiments into its out_dir and write artifacts
    + manifest.

    The manifest hashes the config without out_dir: where a run is written
    does not change what it computes.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _draw_batch.cache_clear()  # a run never reuses an earlier run's test functions
    ctx = RunContext(config)
    result = RunResult(out_dir=out)
    for name in config.experiments:
        try:
            if name == "stopping":
                _REGISTRY[name](ctx, result, dump=dump_stopping)
            else:
                _REGISTRY[name](ctx, result)
        except HaarweightError as exc:
            result.failures.append(CellFailure(name, "<experiment>", repr(exc)))
    if result.failures:
        result.files.append(
            write_csv(
                out / "failures.csv",
                ["experiment", "cell", "error"],
                [[f.experiment, f.cell, f.error] for f in result.failures],
            )
        )
    payload = config_to_dict(config)
    del payload["out_dir"]
    result.files.append(write_manifest(out, payload, result.files, __version__))
    return result
