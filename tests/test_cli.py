"""Command line tests driven through main(argv): exit codes, artifact
paths, and the threshold-degenerate negative control for verify."""

import json

import numpy as np
import pytest

from haarweight import ExperimentConfig, WeightSpec, make_weight, save_weight
from haarweight.cli import main
from haarweight.config import config_to_dict


def write_config(tmp_path, **over):
    base = dict(
        experiments=("haar", "reducing"),
        seed=3,
        ps=(2.0,),
        count=5,
        grids=((1, 1, 3),),
        weights=(
            WeightSpec("wa", family="power", d=1, n=1, level=4,
                       params={"alpha": -0.5}),
            WeightSpec("wb", family="rotating", d=1, n=2, level=3,
                       params={"alpha": 0.4}, seed=2),
        ),
        sweep_alphas=(0.5, -0.5, -0.8),
        sweep_level=5,
        out_dir=str(tmp_path / "out"),
    )
    base.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(ExperimentConfig(**base))))
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(line.endswith("manifest.json") for line in printed)
    assert (tmp_path / "out" / "haar_checks.csv").exists()


def test_run_single_experiment(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "only"
    assert main(["run", "--config", str(cfg), "--experiment", "haar",
                 "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"haar_checks.csv", "manifest.json"}


def test_run_reports_cell_failures(tmp_path, capsys):
    w = make_weight(WeightSpec("w", "constant", 1, 2, 2, params={"matrix": np.eye(2)}))
    path = save_weight(w, tmp_path / "w.csv")
    lines = path.read_text().splitlines()
    lines[2] = "-1.0,0.0,-1.0"
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    cfg = write_config(
        tmp_path,
        experiments=("reducing",),
        weights=(
            WeightSpec("good", family="power", d=1, n=1, level=3,
                       params={"alpha": 0.3}),
            WeightSpec("broken", file=str(tmp_path / "bad.csv")),
        ),
    )
    assert main(["run", "--config", str(cfg)]) == 1
    assert "failures.csv" in capsys.readouterr().err
    assert (tmp_path / "out" / "failures.csv").exists()


def test_unreadable_weight_file_is_exit_2(tmp_path, capsys):
    w = make_weight(WeightSpec("w", "power", 1, 1, 2, params={"alpha": 0.3}))
    lines = save_weight(w, tmp_path / "w.csv").read_text().splitlines()
    lines[2] = "abc"
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    cfg = write_config(
        tmp_path, weights=(WeightSpec("broken", file=str(tmp_path / "bad.csv")),)
    )
    assert main(["calibrate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad.csv" in err
    # next to a healthy weight of the same (d, n), the healthy weight is still
    # calibrated and printed before the error
    cfg = write_config(tmp_path, weights=(
        WeightSpec("wa", family="power", d=1, n=1, level=4, params={"alpha": -0.5}),
        WeightSpec("broken", file=str(tmp_path / "bad.csv")),
    ))
    assert main(["calibrate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "wa" in out and "bad.csv" in err


def test_manifest_config_hash(tmp_path):
    cfg = write_config(tmp_path)

    def config_hash(out, experiment):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out),
                     "--experiment", experiment]) == 0
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        return manifest["config_sha256"]

    # where a run is written does not change what it computed; which
    # experiments ran does
    assert config_hash("a", "haar") == config_hash("b", "haar")
    assert config_hash("c", "haar") != config_hash("d", "reducing")


def test_bad_config_is_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{broken")
    assert main(["run", "--config", str(p)]) == 2
    assert "error:" in capsys.readouterr().err
    p.write_text(json.dumps({"schema_version": 99}))
    assert main(["run", "--config", str(p)]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_config_is_exit_2(tmp_path, capsys, kind):
    # these used to escape as FileNotFoundError, IsADirectoryError and
    # UnicodeDecodeError, with a traceback and exit 1
    p = tmp_path / "c.json"
    if kind == "directory":
        p.mkdir()
    elif kind == "undecodable":
        p.write_bytes(b'{"seed": "\xff"}')
    assert main(["run", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and str(p) in line


@pytest.mark.parametrize("command", [["calibrate"], ["dump-weight", "r3"]])
def test_bad_weight_parameters_are_exit_2(tmp_path, monkeypatch, capsys, command):
    # a d=3 rotating weight has no default x0; it used to escape as an
    # IndexError with a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, ps=(3.0,))
    payload = json.loads(cfg.read_text())
    payload["weights"] = [{"name": "r3", "family": "rotating", "d": 3, "n": 2,
                           "level": 2, "params": {"alpha": 0.5}}]
    cfg.write_text(json.dumps(payload))
    assert main(command + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x0" in err


def test_wrongly_typed_config_is_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"count": "5"}))
    assert main(["calibrate", "--config", str(p)]) == 2
    assert "'count'" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "mystery"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_negative_seed_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("run", "verify"):
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["wa", "wb"])  # a power and a rotating weight
def test_negative_weight_seed_is_exit_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    (spec,) = [w for w in raw["weights"] if w["name"] == name]
    spec["seed"] = -3
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"weight '{name}'" in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_repeated_experiment_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    argv = ["run", "--config", str(cfg), "--experiment", "haar", "--experiment", "haar"]
    assert main(argv) == 2
    assert "duplicate experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--out", "x"],
        ["calibrate", "--out", "x"],
        ["calibrate", "--seed", "1"],
        ["dump-weight", "wa", "--seed", "1"],
        ["dump-stopping", "wa", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]),
)
def test_unread_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_calibrate_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["calibrate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "lambda1" in out.splitlines()[0]
    assert "wa" in out and "wb" in out


def test_dump_weight(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "wa.csv"
    assert main(["dump-weight", "wa", "--config", str(cfg),
                 "--out", str(target)]) == 0
    assert target.read_text().startswith("# haarweight matrix-weight v1")
    assert main(["dump-weight", "missing", "--config", str(cfg)]) == 2


def test_dump_stopping(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "tree.json"
    assert main(["dump-stopping", "wa", "--p", "2", "--config", str(cfg),
                 "--out", str(target)]) == 0
    tree = json.loads(target.read_text())
    assert tree["p"] == 2.0 and tree["generation_count"] >= 1


def test_verify_negative_control(tmp_path, capsys):
    # thresholds barely above 1 stop everywhere, breaking geometric decay
    cfg = write_config(tmp_path, stopping_lambda1=1.0001,
                       stopping_lambda2=1.0001)
    assert main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "stopping-decay: FAIL" in out
    assert "failing:" in out
