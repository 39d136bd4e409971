"""File format tests: weight round-trips, header and body validation, tree
JSON, equivalence reports, and manifests."""

import json
import struct

import numpy as np
import pytest

from haarweight import (
    MatrixDomainError,
    MatrixWeight,
    SerializationError,
    StoppingConfig,
    WeightFamily,
    build_generations,
    build_reducing_family,
    load_weight,
    make_weight,
    save_generation_tree,
    save_weight,
    write_manifest,
)
from haarweight.serialization import (
    equivalence_rows,
    equivalence_to_dict,
    sha256_file,
    tree_to_dict,
    write_csv,
    write_json,
)


@pytest.mark.parametrize("suffix", [".csv"])
def test_weight_roundtrip(tmp_path, suffix):
    w = make_weight(WeightFamily("rotating", 1, 2, 4, params={"alpha": 0.6}, seed=3))
    path = save_weight(w, tmp_path / f"w{suffix}")
    back = load_weight(path)
    assert (back.d, back.n, back.level) == (w.d, w.n, w.level)
    np.testing.assert_array_equal(back.cells, w.cells)
    assert back.meta["family"] == "rotating"


def test_weight_meta_survives(tmp_path):
    w = make_weight(WeightFamily("power", 1, 1, 3, params={"alpha": 0.3}))
    back = load_weight(save_weight(w, tmp_path / "w.csv"))
    assert back.meta["params"] == {"alpha": 0.3}
    assert back.meta["seed"] == 0


def test_non_pd_weight_file_rejected(tmp_path):
    w = make_weight(WeightFamily("constant", 1, 2, 2, params={"matrix": np.eye(2)}))
    path = save_weight(w, tmp_path / "w.csv")
    lines = path.read_text().splitlines()
    lines[2] = "-1.0,0.0,-1.0"  # first cell now negative definite
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixDomainError):
        load_weight(bad)


def test_bad_headers(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("# not a haarweight file\n1.0\n")
    with pytest.raises(SerializationError):
        load_weight(p)
    # the retired binary format: magic, four int64 fields, meta JSON, float64
    # body; it is no longer readable, and says so
    w = make_weight(WeightFamily("power", 1, 1, 2, params={"alpha": 0.3}))
    meta = json.dumps(w.meta, sort_keys=True).encode()
    b = tmp_path / "old.bin"
    b.write_bytes(b"HWMW\x01" + struct.pack("<4q", 1, 1, 2, len(meta)) + meta
                  + w.cells.reshape(-1).tobytes())
    with pytest.raises(SerializationError, match="old.bin"):
        load_weight(b)


_HEAD = b"# haarweight matrix-weight v1 d=1 n=1 "
UNREADABLE = {
    "undecodable": _HEAD + b"L=1\n\xff\xfe\n",
    "non-numeric": _HEAD + b"L=0\n# meta {}\nabc\n",
    "ragged": _HEAD + b"L=1\n# meta {}\n1.0\n1.0,2.0\n",
    "negative-level": _HEAD + b"L=-1\n# meta {}\n1.0\n",
    "meta-list": _HEAD + b"L=0\n# meta [1]\n1.0\n",
}


@pytest.mark.parametrize("case", ["missing", *UNREADABLE])
def test_unreadable_weight_file_names_its_path(tmp_path, case):
    path = tmp_path / "bad.csv"
    if case != "missing":
        path.write_bytes(UNREADABLE[case])
    with pytest.raises(SerializationError, match="bad.csv"):
        load_weight(path)


def test_body_shape_checked(tmp_path):
    w = make_weight(WeightFamily("power", 1, 1, 2, params={"alpha": 0.3}))
    path = save_weight(w, tmp_path / "w.csv")
    lines = path.read_text().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SerializationError):
        load_weight(tmp_path / "short.csv")


def test_tree_json(tmp_path):
    w = make_weight(WeightFamily("power", 1, 1, 5, params={"alpha": -0.8}))
    fam = build_reducing_family(w, 2.0)
    tree = build_generations(fam, StoppingConfig(lambda1=1.2, lambda2=1.2))
    d = tree_to_dict(tree)
    assert d["schema_version"] == 1
    assert d["generation_count"] == tree.generation_count()
    assert d["generations"][0]["roots"] == [{"level": 0, "index": [0]}]
    for gen in d["generations"]:
        for s in gen["stopping"]:
            assert s["reason"] in ("growth", "shrink", "both")
            assert s["test1"] >= 0.0 and s["test2"] >= 0.0
    path = save_generation_tree(tree, tmp_path / "tree.json")
    assert json.loads(path.read_text()) == json.loads(json.dumps(d))


def test_two_cell_tree_json_pinned():
    # W = (1, 4) on two cells, p = 2: both children fire below the root, the
    # left one because the weight shrank, the right one because it grew
    w = MatrixWeight(d=1, n=1, level=1, cells=np.array([[[1.0]], [[4.0]]]))
    fam = build_reducing_family(w, 2.0)
    tree = build_generations(fam, StoppingConfig(lambda1=1.2, lambda2=1.2))
    approx = lambda x: pytest.approx(x, rel=1e-12)
    left = {"level": 1, "index": [0], "reason": "shrink",
            "test1": approx(0.4), "test2": approx(2.5)}
    right = {"level": 1, "index": [1], "reason": "growth",
             "test1": approx(1.6), "test2": approx(0.625)}
    d = tree_to_dict(tree)
    assert d == {
        "schema_version": 1,
        "d": 1,
        "p": 2.0,
        "lambda1": 1.2,
        "lambda2": 1.2,
        "floor_level": 1,
        "generation_count": 2,
        "generations": [
            {"index": 1, "floor_hit": False,
             "roots": [{"level": 0, "index": [0]}],
             "stopping": [left, right]},
            {"index": 2, "floor_hit": True,
             "roots": [{"level": 1, "index": [0]}, {"level": 1, "index": [1]}],
             "stopping": []},
        ],
    }
    assert [type(g["floor_hit"]) for g in d["generations"]] == [bool, bool]


def test_equivalence_report_serialization():
    from haarweight import equivalence_ratios

    w = make_weight(WeightFamily("power", 1, 1, 4, params={"alpha": 0.3}))
    fam = build_reducing_family(w, 2.0)
    rep = equivalence_ratios(fam, count=6, seed=1)
    d = equivalence_to_dict(rep)
    assert d["count"] == 6 and d["p"] == 2.0
    assert d["max_ratio"] == max(r[2] for r in equivalence_rows(rep))
    assert len(equivalence_rows(rep)) == 6


def test_write_csv_deterministic(tmp_path):
    rows = [[1, "a", 0.1], [2, "b", 0.25]]
    p1 = write_csv(tmp_path / "a.csv", ["i", "s", "x"], rows)
    p2 = write_csv(tmp_path / "b.csv", ["i", "s", "x"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[1] == "1,a,0.1"


def test_write_json_keeps_bools(tmp_path):
    payload = {"flag": True, "np_flag": np.bool_(False), "count": 3,
               "np_count": np.int64(2), "x": np.float64(0.5),
               "mask": np.array([True, False])}
    path = write_json(tmp_path / "p.json", payload)
    assert json.loads(path.read_text()) == {
        "flag": True, "np_flag": False, "count": 3, "np_count": 2, "x": 0.5,
        "mask": [True, False],
    }
    assert '"flag": true' in path.read_text()
    back = json.loads(path.read_text())
    assert [type(back[k]) for k in ("flag", "np_flag", "count")] == [bool, bool, int]
    # a tree's floor_hit flags are written as JSON booleans
    w = MatrixWeight(d=1, n=1, level=1, cells=np.array([[[1.0]], [[4.0]]]))
    tree = build_generations(build_reducing_family(w, 2.0),
                             StoppingConfig(lambda1=1.2, lambda2=1.2))
    text = save_generation_tree(tree, tmp_path / "tree.json").read_text()
    assert '"floor_hit": false' in text and '"floor_hit": true' in text


def test_manifest_lists_hashes(tmp_path):
    f1 = write_csv(tmp_path / "t.csv", ["x"], [[1.5]])
    path = write_manifest(tmp_path, {"seed": 7}, [f1], "0.1.0")
    m = json.loads(path.read_text())
    assert m["library_version"] == "0.1.0"
    assert m["files"]["t.csv"] == sha256_file(f1)
    assert len(m["config_sha256"]) == 64
    assert "created" in m  # informational, excluded from byte comparisons
