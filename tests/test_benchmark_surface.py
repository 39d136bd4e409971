"""The calls the benchmark makes, made in-process on the tiny test config.

perfbench/child.py runs each workload as `run_experiments(cfg)` or
`run_all(AcceptanceContext(cfg), printer=...)`, and perfbench/checks.py
reads the written tables. perfbench/ is not part of this suite, so without
this test a change to those signatures, or to a CSV column the checks read,
would break the benchmark unnoticed.
"""

import importlib
import json
import time
from pathlib import Path

import pytest

from haarweight.config import config_to_dict
from test_experiments import tiny_config

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
