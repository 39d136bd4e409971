"""File formats: weights, trees, reports, manifests.

Weights are CSV with a '#'-prefixed header, so bodies stay plot-ready. All
floats are written with repr(), which is the shortest round-trip form, so
identical inputs always produce identical bytes and a weight reads back bit
for bit; manifests are the only files carrying a timestamp.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from pathlib import Path

import numpy as np

from .dyadic import _levels
from .errors import SerializationError
from .stopping import GenerationTree
from .weights import MatrixWeight

__all__ = [
    "save_weight",
    "load_weight",
    "tree_to_dict",
    "save_generation_tree",
    "equivalence_to_dict",
    "equivalence_rows",
    "write_csv",
    "write_json",
    "sha256_file",
    "write_manifest",
]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_csv(path, header: list, rows) -> Path:
    """CSV with fixed '\\n' line ends and repr floats; returns the path."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_header(line: str) -> tuple:
    parts = line.strip().split()
    if parts[:3] != ["#", "haarweight", "matrix-weight"]:
        raise SerializationError(
            f"not a haarweight matrix-weight file: {line.strip()!r}"
        )
    kv = dict(part.split("=", 1) for part in parts[4:] if "=" in part)
    try:
        d, n, level = int(kv["d"]), int(kv["n"]), int(kv["L"])
    except KeyError as exc:
        raise SerializationError(f"header missing field {exc}") from exc
    if d < 1 or n < 1 or level < 0:
        raise SerializationError(f"header dims d={d} n={n} L={level} out of range")
    return d, n, level


# ---------------------------------------------------------------------------
# weights: lower-triangle entries per cell, family metadata as JSON


def save_weight(weight: MatrixWeight, path) -> Path:
    path = Path(path)
    i, j = np.tril_indices(weight.n)
    flat = weight.cells.reshape(-1, weight.n, weight.n)[:, i, j]
    meta = json.dumps(_jsonable(weight.meta or {}), sort_keys=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# haarweight matrix-weight v1 d={weight.d} n={weight.n} L={weight.level}\n"
        )
        fh.write(f"# meta {meta}\n")
        w = csv.writer(fh, lineterminator="\n")
        for row in flat:
            w.writerow([_fmt(x) for x in row])
    return path


def load_weight(path) -> MatrixWeight:
    """Read a weight written by save_weight.

    A missing, undecodable, non-numeric or ragged file, or a malformed
    header, raises SerializationError naming the path; cells that are not
    SPD raise MatrixDomainError from the MatrixWeight check.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            d, n, level = _parse_header(fh.readline())
            meta_line = fh.readline().strip()
            if not meta_line.startswith("# meta "):
                raise SerializationError("missing meta header line")
            meta = json.loads(meta_line[len("# meta ") :])
            if not isinstance(meta, dict):
                raise SerializationError("meta header is not a JSON object")
            flat = np.array(
                [[float(x) for x in row] for row in csv.reader(fh) if row]
            )
    except (OSError, ValueError) as exc:
        # ValueError covers the header checks (SerializationError), undecodable
        # bytes (UnicodeDecodeError), and a non-numeric or ragged body
        raise SerializationError(f"{path}: {exc}") from exc
    cells = (1 << level) ** d
    width = n * (n + 1) // 2
    if flat.shape != (cells, width):
        raise SerializationError(
            f"{path}: body shape {flat.shape}, expected {cells} x {width}"
        )
    i, j = np.tril_indices(n)
    mats = np.zeros((cells, n, n))
    mats[:, i, j] = flat
    mats[:, j, i] = flat  # diagonal written twice, harmlessly
    return MatrixWeight(d, n, level, mats.reshape(((1 << level),) * d + (n, n)), meta)


# ---------------------------------------------------------------------------
# stopping trees


def _reason(fired1: bool, fired2: bool) -> str:
    if fired1 and fired2:
        return "both"
    return "growth" if fired1 else "shrink"


def tree_to_dict(tree: GenerationTree) -> dict:
    """JSON form of a tree: per generation its roots (the previous
    generation's stopping cubes) and the stopping cubes that fired inside it,
    listed in (level, index) order, with test values and the reason each
    fired."""
    cfg = tree.config
    gens = []
    roots = [{"level": 0, "index": [0] * tree.d}]
    tests = [_levels(t, tree.d) for t in tree.tests]
    for j in range(1, tree.generation_count() + 1):
        stopping = []
        levels = zip(_levels(tree.stopping_masks(j), tree.d), *tests)
        for lvl, (mask, t1, t2) in enumerate(levels):
            # boolean indexing and argwhere both walk the mask in index order
            for idx, v1, v2 in zip(np.argwhere(mask).tolist(), t1[mask].tolist(),
                                   t2[mask].tolist()):
                stopping.append({
                    "level": lvl,
                    "index": idx,
                    "reason": _reason(v1 > cfg.lambda1, v2 > cfg.lambda2),
                    "test1": v1,
                    "test2": v2,
                })
        gens.append({"index": j, "floor_hit": tree.floor_hit(j),
                     "roots": roots, "stopping": stopping})
        roots = [{"level": c["level"], "index": list(c["index"])} for c in stopping]
    return {
        "schema_version": 1,
        "d": tree.d,
        "p": tree.p,
        "lambda1": cfg.lambda1,
        "lambda2": cfg.lambda2,
        "floor_level": tree.level,
        "generation_count": tree.generation_count(),
        "generations": gens,
    }


def save_generation_tree(tree: GenerationTree, path) -> Path:
    return write_json(path, tree_to_dict(tree))


# ---------------------------------------------------------------------------
# equivalence reports: JSON summary + one CSV row per test function


def equivalence_to_dict(rep) -> dict:
    return {
        "p": rep.p,
        "char": rep.char,
        "count": rep.count,
        "seed": rep.seed,
        "spectra": list(rep.spectra),
        "skipped": rep.skipped,
        "max_ratio": rep.max_ratio,
        "max_inverse_ratio": rep.max_inverse_ratio,
        "exponent_upper": rep.exponent_upper,
        "exponent_lower": rep.exponent_lower,
        "c1_emp": rep.c1_emp,
        "c2_emp": rep.c2_emp,
        "quantiles": rep.quantiles(),
        "weight_meta": rep.weight_meta,
    }


def equivalence_rows(rep) -> list:
    return [
        [i, rep.spectrum_of[i], float(rep.ratios[i]), float(1.0 / rep.ratios[i])]
        for i in range(len(rep.ratios))
    ]


# ---------------------------------------------------------------------------
# manifests


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config_payload: dict, files: list, version: str) -> Path:
    """Manifest listing every output with a content hash.

    The created timestamp is informational only; consumers comparing runs
    must compare the hashed bodies, not the manifest.
    """
    out_dir = Path(out_dir)
    cfg_text = json.dumps(_jsonable(config_payload), sort_keys=True)
    manifest = {
        "schema_version": 1,
        "library_version": version,
        "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
        "files": {
            str(Path(f).relative_to(out_dir)): sha256_file(f) for f in sorted(files)
        },
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return write_json(out_dir / "manifest.json", manifest)
