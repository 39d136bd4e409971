"""The calls the benchmark makes, made in-process on the tiny test config.

perfbench/child.py runs each workload as `run_experiments(cfg)` or
`run_all(AcceptanceContext(cfg), printer=...)`, and perfbench/checks.py
reads the written tables. In traced mode, perfbench/layers.py wraps the
program's public functions and reads its per-layer metrics from their
arguments and results. perfbench/ is not part of this suite, so without
these tests a change to those signatures, to a CSV column the checks read,
or to an argument the metrics read would break the benchmark unnoticed.
"""

import importlib
import json
import math
import sys
import time
from pathlib import Path

import pytest

import haarweight
from haarweight.config import WeightSpec, config_to_dict
from test_experiments import broken_weight_file, tiny_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child")


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("checks")


@pytest.mark.parametrize("mode", ["run", "verify"])
def test_benchmark_child_runs_in_process(tmp_path, child, checks, mode):
    cfg = config_to_dict(tiny_config(tmp_path / "out"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    result = tmp_path / "result.json"
    argv = [mode, str(config), str(result), repr(time.monotonic())]
    assert child.main(argv) == 0
    out = json.loads(result.read_text())
    assert out["wall_s"] > 0.0
    if mode == "run":
        attempted, failed, _, problems = checks.check_run(tmp_path / "out", cfg)
        assert attempted > 0 and failed == 0 and problems == []
    else:
        assert sorted(out["verdicts"]) == [f"{i:02d}" for i in range(1, 14)]


def test_benchmark_counts_a_broken_weight_as_its_failed_cells(tmp_path, checks):
    # a cell that raises leaves no row, so the output checks count it as a
    # missing cell: the broken weight fails its four cells (one per weight
    # experiment at p = 2) and the run attempts as many cells as one whose
    # third weight is sound
    third = {"sound": WeightSpec("sound", family="power", d=1, n=1, level=3,
                                 params={"alpha": 0.3}),
             "broken": WeightSpec("broken", file=str(broken_weight_file(tmp_path)))}
    counts = {}
    for name, spec in third.items():
        cfg = tiny_config(tmp_path / name, weights=tiny_config(tmp_path).weights + (spec,))
        result = haarweight.run_experiments(cfg)
        attempted, failed, _, problems = checks.check_run(result.out_dir,
                                                          config_to_dict(cfg))
        counts[name] = attempted, failed, sorted(problems)
    attempted, failed, problems = counts["broken"]
    assert counts["sound"] == (attempted, 0, [])
    tables = {"reducing": "reducing_scan.csv", "stopping": "stopping_decay.csv",
              "multiplier": "multiplier_bounds.csv", "equivalence": "equivalence_summary.csv"}
    assert failed == len(tables)
    assert problems == sorted([f"failures.csv: {e} ('broken', 2.0)" for e in tables]
                              + [f"{t} ('broken', '2.0'): missing" for t in tables.values()])


def _wrapped_names() -> set:
    """(namespace, name) of every function carrying __wrapped__ in the
    program's modules, the WeightSpec class and the criteria."""
    spaces = {key: vars(m) for key, m in list(sys.modules.items())
              if m is not None and key.split(".")[0] == "haarweight"}
    spaces["WeightSpec"] = vars(haarweight.config.WeightSpec)
    spaces["CRITERIA"] = dict(enumerate(haarweight.acceptance.CRITERIA))
    return {(space, key) for space, names in spaces.items()
            for key, val in names.items() if hasattr(val, "__wrapped__")}


def test_traced_mode_runs_in_process(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer_mod = importlib.import_module("tracer")
    before = _wrapped_names()  # lru_cache functions carry __wrapped__ too
    cfg = tiny_config(tmp_path / "out")
    tracer = tracer_mod.Tracer()
    # every family the run builds, recorded beneath the benchmark's wrapper
    built = []
    undo = tracer_mod.wrap_everywhere(
        tracer_mod.Tracer(), "record", haarweight.reducing, "build_reducing_family",
        "haarweight", lambda args, kwargs, fam: built.append(fam))
    undo += layers.instrument(tracer, haarweight)
    try:
        assert _wrapped_names() > before
        start = time.perf_counter()
        haarweight.run_experiments(cfg)
        haarweight.run_all(haarweight.AcceptanceContext(cfg), printer=lambda line: None)
        # the probe's attribute reader takes the grid from its first argument
        w = haarweight.make_weight(haarweight.WeightFamily(
            "power", 1, 1, 4, params={"alpha": 0.3}))
        haarweight.sharpness_probe(haarweight.build_reducing_family(w, 2.0))
        wall = time.perf_counter() - start
    finally:
        tracer_mod.undo(undo)
    assert _wrapped_names() == before
    metrics = layers.layer_metrics(tracer.spans, wall,
                                   tracer_mod.span_cost(calls=1000, rounds=1))
    assert sorted(metrics) == sorted(layers.METRICS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["reducing.build_family.calls"] > 0
    assert metrics["stopping.calibrate.calls"] > 0
    assert metrics["analysis.sharpness_probe.calls"] == 1
    assert metrics["analysis.sharpness_probe.gflop"] > 0.0
    # the method counts that layers.py reads from the per-level views are the
    # counts of the families' stored (2, cubes) method codes
    ell = haarweight.reducing.METHOD_NAMES.index("ellipsoid")
    ellipsoid = sum(int((fam.methods == ell).sum()) for fam in built)
    cubes = sum(fam.methods.size for fam in built)
    assert len(built) == metrics["reducing.build_family.calls"]
    assert ellipsoid > 0
    assert metrics["reducing.ellipsoid_cubes"] == ellipsoid
    assert metrics["reducing.shortcut_frac"] == 1.0 - ellipsoid / cubes
