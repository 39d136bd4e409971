"""Experiment runner tests: artifact layout, manifests, determinism,
per-cell failure isolation, and the serial runner."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import haarweight
from haarweight import (
    ConfigError,
    ExperimentConfig,
    RunContext,
    WeightFamily,
    WeightSpec,
    alpha_sweep_report,
    make_weight,
    random_mean_zero_batch,
    run_experiments,
    save_weight,
)
from haarweight import analysis, experiments
from haarweight.errors import MatrixDomainError
from haarweight.serialization import sha256_file


def tiny_config(out_dir, **over):
    base = dict(
        experiments=("haar", "reducing", "stopping", "multiplier",
                     "equivalence", "sharpness"),
        seed=3,
        ps=(2.0,),
        count=6,
        grids=((1, 1, 3), (1, 2, 2)),
        weights=(
            WeightSpec("wa", family="power", d=1, n=1, level=4,
                       params={"alpha": -0.5}),
            WeightSpec("wb", family="rotating", d=1, n=2, level=3,
                       params={"alpha": 0.4}, seed=2),
        ),
        sweep_alphas=(0.5, -0.5, -0.8),
        sweep_level=5,
        out_dir=str(out_dir),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_run_writes_expected_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "out", ps=(2.0, 3.0))
    result = run_experiments(cfg, dump_stopping=True)
    assert result.ok
    assert len(set(result.files)) == len(result.files)  # no file written twice
    names = {p.name for p in result.files}
    assert {
        "haar_checks.csv", "reducing_scan.csv", "stopping_decay.csv",
        "multiplier_bounds.csv", "equivalence_summary.csv",
        "equivalence_ratios.csv", "sharpness_sweep.csv",
        "sharpness_report.json", "manifest.json",
    } <= names
    assert {f"{kind}_{w}_p{p}.json" for kind in ("equivalence", "stopping")
            for w in ("wa", "wb") for p in (2, 3)} <= names


# the exact header of every CSV that `run` writes; the benchmark's output
# checks (perfbench/checks.py) read several of these columns by name
CSV_HEADERS = {
    "haar_checks.csv":
        ["d", "n", "L", "index", "roundtrip_error", "parseval_error"],
    "reducing_scan.csv":
        ["weight", "p", "char", "min_pair_norm", "max_kappa",
         "duality_log_gap", "duality_log_bound", "duality_ok"],
    "stopping_decay.csv":
        ["weight", "p", "lambda1", "lambda2", "generations",
         "decay_1", "decay_2", "decay_3", "decay_4", "decay_5"],
    "multiplier_bounds.csv":
        ["weight", "p", "partition_max", "partition_mean",
         "block_quotient_max", "sum_identity_error"],
    "equivalence_summary.csv":
        ["weight", "p", "char", "max_ratio", "max_inverse_ratio",
         "c1_emp", "c2_emp", "skipped"],
    "equivalence_ratios.csv":
        ["weight", "p", "index", "spectrum", "ratio", "inverse_ratio"],
    "sharpness_sweep.csv":
        ["alpha", "char", "eq_max_ratio", "eq_max_inverse_ratio",
         "probe_max_ratio", "probe_max_inverse_ratio"],
}


def test_csv_headers_are_pinned(tmp_path):
    result = run_experiments(tiny_config(tmp_path / "out"))
    assert result.ok
    written = {p.name: p for p in result.files if p.suffix == ".csv"}
    assert set(written) == set(CSV_HEADERS)
    for name, header in CSV_HEADERS.items():
        with open(written[name], newline="") as fh:
            assert next(csv.reader(fh)) == header, name


def test_multiplier_blocks_match_one_batch(tmp_path, monkeypatch):
    # the multiplier cell forms T_j f in blocks of function columns; one
    # column per block writes the one-batch table byte for byte, the sum
    # identity of the first five functions included. The weights are s(x) A,
    # so no family is fitted: a fit's rounding follows its direction blocks
    cfg = tiny_config(tmp_path / "a", experiments=("multiplier",), ps=(2.0, 3.0),
                      weights=(tiny_config(tmp_path).weights[0],
                               WeightSpec("wc", family="power", d=2, n=2, level=3,
                                          params={"alpha": 0.5})))
    run_experiments(cfg)
    monkeypatch.setattr(haarweight.dyadic, "_BLOCK_ENTRIES", 1)
    run_experiments(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    table = "multiplier_bounds.csv"
    assert (tmp_path / "b" / table).read_bytes() == (tmp_path / "a" / table).read_bytes()


def test_manifest_covers_every_file(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    result = run_experiments(cfg)
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    listed = set(manifest["files"])
    on_disk = {p.name for p in result.out_dir.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    for name, digest in manifest["files"].items():
        assert sha256_file(result.out_dir / name) == digest


def test_byte_identical_reruns(tmp_path):
    cfg = tiny_config(tmp_path / "a")
    r1 = run_experiments(cfg)
    r2 = run_experiments(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    for f1 in r1.files:
        if f1.suffix == ".csv" or f1.name == "sharpness_report.json":
            f2 = Path(tmp_path / "b" / f1.name)
            assert f1.read_bytes() == f2.read_bytes(), f1.name
    # manifests agree on content hashes (timestamps may differ)
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["config_sha256"] == m2["config_sha256"]


def _integral(v):
    """v with each integral float spelled as an int, lists entry by entry."""
    if isinstance(v, list):
        return [_integral(x) for x in v]
    return int(v) if isinstance(v, float) and v.is_integer() else v


def test_real_numbers_spelled_as_integers_give_the_same_run(tmp_path):
    # ps, the threshold overrides, sweep_alphas and every numeric weight
    # parameter hold floats however the JSON spells them, so the config
    # hash, the CSV bodies and the weight meta of the equivalence JSON agree
    weights = tiny_config(tmp_path).weights + (
        WeightSpec("wc", family="constant", d=1, n=2, level=3,
                   params={"matrix": [[1.0, 0.0], [0.0, 9.0]]}),
        WeightSpec("wk", family="constant", d=1, n=2, level=3,
                   params={"cond": 4.0}, seed=1),
        WeightSpec("wr", family="rotating", d=1, n=2, level=3,
                   params={"alpha": 1.0, "omega": 3.0, "phase": 1.0,
                           "p_range": 3.0, "x0": [0.0]}),
        WeightSpec("wl", family="logbrownian", d=1, n=2, level=3,
                   params={"sigma": 1.0}, seed=2),
    )
    reals = haarweight.config.config_to_dict(tiny_config(
        tmp_path / "out", experiments=("stopping", "multiplier", "equivalence"),
        ps=(2.0, 3.0), stopping_lambda1=2.0, stopping_lambda2=3.0,
        sweep_alphas=(0.0, -0.5, -0.75), weights=weights))
    integers = dict(reals, ps=[2, 3], stopping_lambda1=2, stopping_lambda2=3,
                    sweep_alphas=[0, -0.5, -0.75],
                    weights=[dict(w, params={k: _integral(v) for k, v in w["params"].items()})
                             for w in reals["weights"]])
    # every parameter the config reads is spelled with integers somewhere
    spelled = {k for w in integers["weights"] for k, v in w["params"].items()
               if "." not in json.dumps(v)}
    assert spelled == set(haarweight.config._PARAM_TYPES)
    runs = []
    for raw in (reals, integers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_experiments(haarweight.load_config(path))
        assert result.ok
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        bodies = {f.name: f.read_bytes() for f in result.files if f.name != "manifest.json"}
        assert any(name.startswith("equivalence_w") for name in bodies)
        runs.append((manifest["config_sha256"], bodies))
    assert runs[0] == runs[1]


def test_each_run_draws_its_own_test_functions(tmp_path):
    # equivalence at p = 2 and p = 3 asks for the same batch twice: one draw
    # and one repeat. A rerun's first request draws again rather than reuse
    # the batch the run before it left in the memo
    cfg = tiny_config(tmp_path / "a", experiments=("equivalence",), ps=(2.0, 3.0),
                      weights=tiny_config(tmp_path).weights[:1])
    infos = []
    for tag in "ab":
        run_experiments(dataclasses.replace(cfg, out_dir=str(tmp_path / tag)))
        infos.append(analysis._draw_batch.cache_info())
    assert [(i.misses, i.hits) for i in infos] == [(1, 1), (1, 1)]
    assert (tmp_path / "a" / "equivalence_ratios.csv").read_bytes() == \
        (tmp_path / "b" / "equivalence_ratios.csv").read_bytes()
    batch = random_mean_zero_batch(make_weight(WeightFamily("power", 1, 1, 4)), 6, [3])
    with pytest.raises(ValueError, match="read-only"):
        batch.rows[...] = 0.0


def test_seed_changes_outputs(tmp_path):
    r1 = run_experiments(
        tiny_config(tmp_path / "a", experiments=("equivalence",)))
    r2 = run_experiments(
        tiny_config(tmp_path / "b", experiments=("equivalence",), seed=4))
    a = (tmp_path / "a" / "equivalence_ratios.csv").read_bytes()
    b = (tmp_path / "b" / "equivalence_ratios.csv").read_bytes()
    assert a != b


def broken_weight_file(tmp_path) -> Path:
    """A d=1, n=2 weight file whose second cell is not positive definite, so
    every cell of a weight read from it fails with MatrixDomainError."""
    w = make_weight(WeightFamily("constant", 1, 2, 2, params={"matrix": np.eye(2)}))
    lines = save_weight(w, tmp_path / "w.csv").read_text().splitlines()
    lines[2] = "-1.0,0.0,-1.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


# the table of each experiment that runs cells through experiments._run_cells,
# and how many of its leading columns name a cell
CELL_TABLES = {
    "haar": ("haar_checks.csv", 3),
    "reducing": ("reducing_scan.csv", 1),
    "stopping": ("stopping_decay.csv", 1),
    "multiplier": ("multiplier_bounds.csv", 1),
    "equivalence": ("equivalence_summary.csv", 1),
}


def _side_files(result) -> set:
    """Names of the JSON files of a run besides the manifest, in its file
    list and in its manifest."""
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    return {name for name in {p.name for p in result.files} | set(manifest["files"])
            if name.endswith(".json") and name != "manifest.json"}


@pytest.mark.parametrize("experiment", CELL_TABLES)
def test_cell_failure_isolation(tmp_path, monkeypatch, experiment):
    # the broken weight fails its weight cells; the haar cell of the grid
    # (1, 2, 2) raises in its draw. Neither leaves a row or a side file
    draw = experiments._random_exactness_errors

    def broken_grid(d, n, level, tags):
        if (d, n, level) == (1, 2, 2):
            raise MatrixDomainError("broken grid")
        return draw(d, n, level, tags)

    monkeypatch.setattr(experiments, "_random_exactness_errors", broken_grid)
    cfg = tiny_config(
        tmp_path / "out",
        experiments=(experiment,),
        weights=(
            WeightSpec("good", family="power", d=1, n=1, level=3,
                       params={"alpha": 0.3}),
            WeightSpec("broken", file=str(broken_weight_file(tmp_path))),
        ),
    )
    result = run_experiments(cfg, dump_stopping=True)
    broken, good = (("(1, 2, 2)", ["1,1,3"] * cfg.count) if experiment == "haar"
                    else ("('broken', 2.0)", ["good"]))
    assert [(f.experiment, f.cell) for f in result.failures] == [(experiment, broken)]
    table, key_columns = CELL_TABLES[experiment]
    with open(result.out_dir / table, newline="") as fh:
        assert [",".join(row[:key_columns]) for row in list(csv.reader(fh))[1:]] == good
    failures = (result.out_dir / "failures.csv").read_text()
    assert broken in failures and "MatrixDomainError" in failures
    sides = {"stopping": {"stopping_good_p2.json"},
             "equivalence": {"equivalence_good_p2.json"}}
    assert _side_files(result) == sides.get(experiment, set())


# a step of the cell after its measurement, and the meta of the weight it sees
AFTER_MEASURING = {
    "stopping": ("decay_ratio", lambda tree: tree.family.weight.meta),
    "equivalence": ("equivalence_rows", lambda report: report.weight_meta),
}


@pytest.mark.parametrize("experiment", AFTER_MEASURING)
def test_a_cell_that_raises_after_measuring_leaves_no_side_file(tmp_path, monkeypatch,
                                                                experiment):
    # wb's tree or report is built, then the next step of its cell raises:
    # the cell fails, and neither its row nor its JSON is written
    step, meta = AFTER_MEASURING[experiment]
    measured = getattr(experiments, step)

    def fails_on_wb(value, *args):
        if meta(value)["family"] == "rotating":
            raise RuntimeError("after the measurement")
        return measured(value, *args)

    monkeypatch.setattr(experiments, step, fails_on_wb)
    result = run_experiments(tiny_config(tmp_path / "out", experiments=(experiment,)),
                             dump_stopping=True)
    assert [(f.experiment, f.cell) for f in result.failures] == [(experiment, "('wb', 2.0)")]
    assert _side_files(result) == {f"{experiment}_wa_p2.json"}
    with open(result.out_dir / CELL_TABLES[experiment][0], newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == ["wa"]


def test_calibration_groups_by_the_realized_weight(tmp_path):
    # a file spec keeps the default d=1, n=1 whatever the file holds; the
    # power weight's thresholds must not depend on a d=1, n=2 file next to it
    rot = make_weight(WeightFamily("rotating", 1, 2, 5, params={"alpha": 0.6}))
    path = save_weight(rot, tmp_path / "rot.csv")
    power = WeightSpec("pow", family="power", d=1, n=1, level=5,
                       params={"alpha": -0.5})
    alone = RunContext(tiny_config("unused", weights=(power,)))
    both = RunContext(tiny_config(
        "unused", weights=(power, WeightSpec("rot", file=str(path)))))
    assert both.stopping_config("pow", 2.0) == alone.stopping_config("pow", 2.0)
    assert both.signatures() == {(1, 1): ["pow"], (1, 2): ["rot"]}
    assert both.calibration(1, 2, 2.0).lambda2_by_weight.keys() == {"rot"}


def test_failing_rotating_sharpness_point_is_a_cell_failure(tmp_path, monkeypatch):
    import haarweight.analysis as analysis

    make_ops = analysis._probe_operators

    def flaky(pairs):
        if any(w.n == 2 for w, _, _ in pairs):
            raise RuntimeError("no convergence")
        return make_ops(pairs)

    monkeypatch.setattr(analysis, "_probe_operators", flaky)
    cfg = tiny_config(tmp_path / "out", experiments=("haar", "sharpness"))
    result = run_experiments(cfg)
    cells = [f.cell for f in result.failures]
    assert cells == [f"rotating alpha={a}" for a in (0.3, 0.6, 0.9)]
    names = {p.name for p in result.files}
    assert {"sharpness_sweep.csv", "failures.csv", "manifest.json"} <= names
    failures = (result.out_dir / "failures.csv").read_text()
    assert "sharpness,rotating alpha=0.3,RuntimeError" in failures
    rows = (result.out_dir / "sharpness_sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + len(cfg.sweep_alphas)  # the scalar sweep still ran


def test_experiment_selection(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    result = run_experiments(dataclasses.replace(cfg, experiments=("haar",)))
    assert {p.name for p in result.files} == {"haar_checks.csv", "manifest.json"}
    result = run_experiments(dataclasses.replace(
        cfg, experiments=("haar", "reducing"), out_dir=str(tmp_path / "out2")))
    assert {p.name for p in result.files} == {
        "haar_checks.csv", "reducing_scan.csv", "manifest.json"}
    with pytest.raises(ConfigError, match="unknown experiment"):
        dataclasses.replace(cfg, experiments=("mystery",))


def test_stopping_dump_per_weight(tmp_path):
    cfg = tiny_config(tmp_path / "out", experiments=("stopping",))
    result = run_experiments(cfg, dump_stopping=True)
    names = {p.name for p in result.files}
    assert "stopping_wa_p2.json" in names and "stopping_wb_p2.json" in names
    tree = json.loads((result.out_dir / "stopping_wa_p2.json").read_text())
    assert tree["generation_count"] >= 1


def test_lambda_overrides_reach_trees(tmp_path):
    cfg = tiny_config(tmp_path / "out", stopping_lambda1=1.0001,
                      stopping_lambda2=1.0001)
    ctx = RunContext(cfg)
    sc = ctx.stopping_config("wa", 2.0)
    assert sc.lambda1 == 1.0001 and sc.lambda2 == 1.0001
    # degenerate thresholds fire far more generations than calibrated ones
    assert ctx.tree("wa", 2.0).generation_count() >= 3


def test_run_context_caches():
    ctx = RunContext(tiny_config("unused"))
    assert ctx.weight("wa") is ctx.weight("wa")
    assert ctx.family("wb", 2.0) is ctx.family("wb", 2.0)
    for _ in range(2):  # a failed build is not cached; the retry fails afresh
        with pytest.raises(ConfigError, match="no weight named"):
            ctx.weight("nope")


def test_run_starts_no_thread(tmp_path, monkeypatch):
    # the caches are plain dicts, which is safe only while no Python thread
    # runs a cell
    def refuse(self):
        raise AssertionError(f"thread {self.name} started during a run")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_experiments(tiny_config(tmp_path / "out")).ok


_RUN_WITHOUT_MASKED_ARRAYS = """
import sys
from haarweight import (ExperimentConfig, StoppingConfig, WeightFamily, WeightSpec,
                        build_generations, build_reducing_family, cross_term_rate,
                        make_weight, run_experiments)
cfg = ExperimentConfig(
    ps=(2.0, 3.0), count=6, seed=3, grids=((1, 1, 3),),
    sweep_alphas=(0.5, -0.5, -0.8), sweep_level=5,
    weights=(WeightSpec("wa", family="power", d=1, n=1, level=4, params={"alpha": -0.5}),
             WeightSpec("wb", family="rotating", d=1, n=2, level=3,
                        params={"alpha": 0.4}, seed=2)),
    out_dir=sys.argv[1])
assert run_experiments(cfg).ok
w = make_weight(WeightFamily("power", d=1, n=1, level=8, params={"alpha": 0.6}))
family = build_reducing_family(w, 2.0)
tree = build_generations(family, StoppingConfig(lambda1=1.2, lambda2=1.2))
cross_term_rate(tree, count=6, seed=0)
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_run_does_not_import_masked_arrays(tmp_path):
    # np.unique and np.quantile import numpy.ma on their first call, about
    # 10 ms per process; the run, its stopping trees, its quantiles and the
    # cross-term fit avoid both
    src = str(Path(haarweight.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_MASKED_ARRAYS, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def _cap_probe(monkeypatch, alpha):
    """Make the sweeps' probe of the point at alpha stop at two matvecs, so
    that point alone fails with EigenConvergenceError."""
    import haarweight.experiments as experiments

    probes = experiments.sharpness_probes

    def capped(families):
        out = probes(families)
        for i, family in enumerate(families):
            if family.weight.meta["params"]["alpha"] == alpha:
                with monkeypatch.context() as m:
                    m.setattr(analysis, "_MAX_MATVECS", 2)
                    (out[i],) = probes([family])
        return out

    monkeypatch.setattr(experiments, "sharpness_probes", capped)


def test_alpha_sweep_lists_an_unconverged_probe_under_failed(monkeypatch):
    _cap_probe(monkeypatch, -0.8)
    rep = alpha_sweep_report(ExperimentConfig(
        sweep_alphas=(0.5, -0.5, -0.8, 0.3), sweep_level=5, count=5, seed=1))
    assert [f["alpha"] for f in rep["failed"]] == [-0.8]
    assert "EigenConvergenceError" in rep["failed"][0]["error"]
    assert {r["alpha"] for r in rep["rows"]} == {0.5, -0.5, 0.3}


@pytest.mark.parametrize("alphas", [(0.5, -0.5, -0.8, 0.3), (0.5, -0.5, -0.8)])
def test_failing_power_sharpness_point_is_a_cell_failure(tmp_path, monkeypatch, alphas):
    # of three alphas two points are left, too few to fit the slopes: the
    # experiment fails after the point's failure and the sweep table are written
    _cap_probe(monkeypatch, -0.8)
    cfg = tiny_config(tmp_path / "out", experiments=("sharpness",), sweep_alphas=alphas)
    result = run_experiments(cfg)
    cells = [f.cell for f in result.failures]
    assert cells == ["power alpha=-0.8"] + ([] if len(alphas) == 4 else ["<experiment>"])
    with open(result.out_dir / "failures.csv", newline="") as fh:
        _, row, *_ = csv.reader(fh)
    assert row[:2] == ["sharpness", "power alpha=-0.8"]
    assert row[2].startswith("EigenConvergenceError")
    table = (result.out_dir / "sharpness_sweep.csv").read_text().splitlines()
    assert len(table) == 1 + len(alphas) - 1 + 3  # header, power, rotating
    if len(alphas) == 4:
        report = json.loads((result.out_dir / "sharpness_report.json").read_text())
        assert [f["alpha"] for f in report["failed"]] == [-0.8]


def test_sharpness_sweep_table_holds_the_power_then_the_rotating_rows(tmp_path):
    cfg = tiny_config(tmp_path / "out", experiments=("sharpness",))
    result = run_experiments(cfg)
    assert result.ok
    with open(result.out_dir / "sharpness_sweep.csv", newline="") as fh:
        table = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    power, rotating = table[:-3], table[-3:]
    assert sorted(r["alpha"] for r in power) == sorted(cfg.sweep_alphas)
    assert [r["alpha"] for r in rotating] == [0.3, 0.6, 0.9]
    eq = ("eq_max_ratio", "eq_max_inverse_ratio")
    for rows, finite in ((power, True), (rotating, False)):
        chars = [r["char"] for r in rows]
        assert chars == sorted(chars)
        assert all(np.isfinite(r[k]) if finite else np.isnan(r[k])
                   for r in rows for k in eq)
    report = json.loads((result.out_dir / "sharpness_report.json").read_text())
    assert power == report["rows"]


def test_alpha_sweep_report_shape():
    rep = alpha_sweep_report(ExperimentConfig(
        sweep_alphas=(0.5, -0.5, -0.8), sweep_level=5, count=5, seed=1))
    assert not rep["failed"]
    assert {r["alpha"] for r in rep["rows"]} == {0.5, -0.5, -0.8}
    chars = [r["char"] for r in rep["rows"]]
    assert chars == sorted(chars)  # rows come back ordered by characteristic
    for key in ("eq_ratio_slope", "eq_inverse_slope",
                "probe_ratio_slope", "probe_inverse_slope"):
        assert np.isfinite(rep[key]["slope"])
    assert rep["char_decades"] == pytest.approx(
        np.log10(max(chars) / min(chars)))


def test_probe_groups_make_one_operator_call_per_lock_step(monkeypatch, caplog):
    import logging

    import haarweight.analysis as analysis

    calls = {"forward": 0, "inverse": 0}
    make_ops = analysis._probe_operators

    def counted(pairs):
        forward, inverse, size = make_ops(pairs)

        def count(name, op):
            def wrapped(x, cols):
                calls[name] += 1
                return op(x, cols)
            return wrapped

        return count("forward", forward), count("inverse", inverse), size

    monkeypatch.setattr(analysis, "_probe_operators", counted)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        rep = alpha_sweep_report(ExperimentConfig(
            sweep_alphas=(0.5, -0.5, -0.8, -0.9), sweep_level=6, count=5, seed=1))
    matvecs = [r.args[1] for r in caplog.records if r.name == "haarweight.analysis"]
    assert not rep["failed"]
    # one group: its four forward columns converge before the inverse run
    assert len(matvecs) == 8
    assert calls == {"forward": max(matvecs[:4]), "inverse": max(matvecs[4:])}

