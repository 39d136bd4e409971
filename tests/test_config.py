"""Configuration schema tests: defaults, JSON loading, validation
diagnostics, and the canonical weight suite."""

import dataclasses
import json

import pytest

from haarweight import (
    ConfigError,
    ExperimentConfig,
    WeightSpec,
    default_config,
    load_config,
    load_weight,
    save_weight,
    suite_weight_specs,
)
from haarweight.cli import main
from haarweight.config import EXPERIMENT_IDS, config_to_dict, sweep_alpha_grid


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.schema_version == 1
    assert cfg.experiments == EXPERIMENT_IDS
    assert len(cfg.weights) == 9
    assert {(w.d, w.n) for w in cfg.weights} >= {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}
    # desk scale: d=1 capped at L=10, d=2 at L=6
    assert all(w.level <= (10 if w.d == 1 else 6) for w in cfg.weights)


def test_dict_roundtrip(tmp_path):
    cfg = dataclasses.replace(default_config(), out_dir="elsewhere")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def test_unknown_key_named_in_error(tmp_path):
    payload = config_to_dict(default_config())
    payload["typo_key"] = 1
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(p)


def test_unknown_weight_key_locates_entry(tmp_path):
    payload = config_to_dict(default_config())
    payload["weights"][0]["alpha"] = 0.5  # params belong under 'params'
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=r"weights\[0\]"):
        load_config(p)


def test_unknown_weight_param_names_the_weight(tmp_path):
    payload = config_to_dict(default_config())
    payload["weights"][1]["params"] = {"alpah": 0.3}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=r"'pow-a03'.*alpah"):
        load_config(p)


def test_invalid_json_and_top_level(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(p)


@pytest.mark.parametrize("body, key", [
    ({"ps": ["2"]}, "ps"),
    ({"ps": 2}, "ps"),
    ({"count": "5"}, "count"),
    ({"count": True}, "count"),  # JSON true is not the integer 1
    ({"calibration_target": "0.5"}, "calibration_target"),
    ({"grids": [1]}, "grids"),
    ({"experiments": "haar"}, "experiments"),  # not split into characters
    ({"sweep_level": "x"}, "sweep_level"),
    ({"stopping_lambda1": "1.5", "stopping_lambda2": 1.5}, "stopping_lambda1"),
    ({"weights": 3}, "weights"),
    ({"weights": [{"name": "w", "level": "4"}]}, "level"),
    ({"weights": [{"name": "w", "params": []}]}, "params"),
])
def test_wrongly_typed_value_names_its_key(tmp_path, body, key):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(body))
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(p)


@pytest.mark.parametrize("family, params, key", [
    ("constant", {"matrix": "x"}, "matrix"),
    ("constant", {"matrix": [[1.0, 0.0], [0.0]]}, "matrix"),  # ragged
    ("constant", {"matrix": [[1.0, "0"], [0.0, 1.0]]}, "matrix"),
    ("power", {"x0": "a"}, "x0"),
    ("power", {"x0": ["a"]}, "x0"),
    ("power", {"alpha": "0.3"}, "alpha"),  # not read through float()
    ("power", {"alpha": True}, "alpha"),
    ("logbrownian", {"sigma": None}, "sigma"),
])
def test_wrongly_typed_param_names_weight_and_key(tmp_path, capsys, family,
                                                  params, key):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(
        {"weights": [{"name": "w", "family": family, "params": params}]}))
    with pytest.raises(ConfigError, match=rf"'{key}' at weights\[0\] \(w\)"):
        load_config(p)
    assert main(["calibrate", "--config", str(p)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_schema_version_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig(schema_version=2)


def test_field_validation():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiments=("haar", "mystery"))
    with pytest.raises(ConfigError, match="exceed 1"):
        ExperimentConfig(ps=(1.0,))
    with pytest.raises(ConfigError, match="spectra"):
        ExperimentConfig(spectra=("flat", "violet"))
    with pytest.raises(ConfigError, match="count"):
        ExperimentConfig(count=0)
    with pytest.raises(ConfigError, match="triples"):
        ExperimentConfig(grids=((1, 1),))
    for level in (0, -3):
        with pytest.raises(ConfigError, match="sweep_level"):
            ExperimentConfig(sweep_level=level)
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig(weights=(WeightSpec("w"), WeightSpec("w")))
    with pytest.raises(ConfigError, match="pair"):
        ExperimentConfig(stopping_lambda1=1.5)
    with pytest.raises(ConfigError, match="exceed 1"):
        ExperimentConfig(stopping_lambda1=0.9, stopping_lambda2=1.5)
    # the threshold-degenerate negative control stays representable
    ExperimentConfig(stopping_lambda1=1.0001, stopping_lambda2=1.0001)


def test_nan_stopping_thresholds_rejected(tmp_path, capsys):
    # every comparison with NaN is false: NaN overrides would fire no test,
    # leave one generation per tree and pass the decay checks vacuously.
    # Infinity, a test that never fires, stays allowed
    nan = float("nan")
    for lams in ((nan, nan), (nan, 1.5), (1.5, nan)):
        with pytest.raises(ConfigError, match="exceed 1"):
            ExperimentConfig(stopping_lambda1=lams[0], stopping_lambda2=lams[1])
    ExperimentConfig(stopping_lambda1=float("inf"), stopping_lambda2=float("inf"))
    payload = config_to_dict(default_config())
    payload.update(stopping_lambda1=nan, stopping_lambda2=nan)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))  # written as the JSON token NaN
    assert "NaN" in p.read_text()
    with pytest.raises(ConfigError, match="exceed 1"):
        load_config(p)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceed 1" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_rejected(tmp_path):
    # default_rng refuses negative seeds, so every seeded cell would fail
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=1.5)
    payload = config_to_dict(default_config())
    payload["seed"] = -1
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    ExperimentConfig(seed=0)


def test_duplicate_experiment_ids_rejected():
    with pytest.raises(ConfigError, match="duplicate experiment"):
        ExperimentConfig(experiments=("haar", "reducing", "haar"))


@pytest.mark.parametrize("field, values, named", [
    ("ps", (2.0, 3.0, 2.0), "[2.0]"),
    ("sweep_alphas", (0.5, -0.5, -0.5, 0.5), "[-0.5, 0.5]"),
    ("grids", ((1, 1, 6), (2, 1, 4), (1, 1, 6)), "[(1, 1, 6)]"),
])
def test_duplicate_entries_rejected(field, values, named):
    # a repeated entry would run its cells twice and write each row twice
    with pytest.raises(ConfigError, match=f"duplicate {field}") as exc:
        ExperimentConfig(**{field: values})
    assert str(exc.value).endswith(named)
    ExperimentConfig(**{field: tuple(dict.fromkeys(values))})


def test_exponents_sharing_a_file_name_rejected():
    # the artifacts of an exponent are named p{p:g}: two exponents spelled
    # alike would write each other's equivalence and stopping JSON
    with pytest.raises(ConfigError, match=r"exponents 2\.0 and 2\.0000001 .* p2$"):
        ExperimentConfig(ps=(2.0, 3.0, 2.0000001))
    ExperimentConfig(ps=(2.0, 2.00001))


def test_infinite_exponent_rejected(tmp_path):
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(ps=(2.0, float("inf")))
    payload = config_to_dict(default_config())
    payload["ps"] = [float("inf")]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(payload))  # written as the JSON token Infinity
    assert "Infinity" in p.read_text()
    with pytest.raises(ConfigError, match="finite"):
        load_config(p)


def test_empty_spectra_rejected():
    with pytest.raises(ConfigError, match="spectra"):
        ExperimentConfig(spectra=())


def test_weight_spec_realize_from_file(tmp_path):
    from haarweight import WeightFamily, make_weight

    w = make_weight(WeightFamily("power", 1, 1, 3, params={"alpha": 0.3}))
    path = save_weight(w, tmp_path / "w.csv")
    spec = WeightSpec("fromfile", file=str(path))
    back = spec.realize()
    assert back.level == 3
    assert back.meta["params"] == {"alpha": 0.3}


@pytest.mark.parametrize("key, value", [
    ("family", "power"), ("d", 2), ("n", 3), ("level", 9), ("seed", 7),
    ("params", {"alpha": 0.3}),
])
def test_file_weight_refuses_generator_keys(tmp_path, capsys, key, value):
    from haarweight import WeightFamily, make_weight

    path = save_weight(make_weight(WeightFamily("power", 1, 1, 3, params={"alpha": 0.3})),
                       tmp_path / "w.csv")
    payload = config_to_dict(ExperimentConfig(weights=(WeightSpec("w", file=str(path)),)))
    payload["weights"][0][key] = value  # even a value equal to the default
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=rf"'w' is read from 'file'.*remove \['{key}'\]"):
        load_config(cfg)
    assert main(["calibrate", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_file_weight_spec_roundtrip(tmp_path):
    spec = WeightSpec("w", file=str(tmp_path / "w.csv"))
    cfg = ExperimentConfig(weights=(spec,))
    payload = config_to_dict(cfg)
    assert payload["weights"] == [{"name": "w", "file": spec.file}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    assert load_config(path) == cfg
    with pytest.raises(ConfigError, match=r"'w'.*remove \['d', 'params'\]"):
        ExperimentConfig(weights=(dataclasses.replace(spec, d=2, params={"alpha": 0.3}),))


def test_suite_specs_realize():
    specs = suite_weight_specs()
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    small = [s for s in specs if s.level <= 6]
    assert small, "suite keeps some cheap weights"
    for s in small:
        w = s.realize()
        assert (w.d, w.n, w.level) == (s.d, s.n, s.level)


def test_sweep_grid_shape():
    alphas = sweep_alpha_grid()
    assert len(alphas) == 10
    assert all(-1.0 < a < 1.0 for a in alphas)  # in-range for p=2
    # characteristic 1/(1 - alpha^2) spans at least two decades
    chars = [1.0 / (1.0 - a * a) for a in alphas]
    assert max(chars) / min(chars) >= 100.0
