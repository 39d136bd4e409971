"""Output checks that hold for every seed.

Each check returns (attempted, failed, digest, problems). An operation is a
cell (one row key of one experiment table) for `run`, or one criterion for
`verify`. A cell fails when it is missing, lands in failures.csv, or breaks
a bound that the program's exactness or acceptance claims guarantee:

- Haar round-trip and Parseval errors <= 1e-10;
- duality_ok is true and min_pair_norm >= 1 - 1e-8;
- stopping decay_j <= 1.05 * 2^-j;
- sum_identity_error <= 1e-9;
- equivalence and sharpness ratios are finite and positive.

The digest covers the manifest's CSV hashes, so repeats of one seed must
agree and a change to any CSV body shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# criterion 11 fails by design: its sharpness windows are out of reach
EXPECTED_VERDICTS = {f"{i:02d}": i != 11 for i in range(1, 14)}


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_pos(*vals) -> bool:
    return all(math.isfinite(float(v)) and float(v) > 0.0 for v in vals)


def _reducing(r):
    return r["duality_ok"] in ("1", "True") and float(r["min_pair_norm"]) >= 1.0 - 1e-8


def _stopping(r):
    return all(float(r[f"decay_{j}"]) <= 1.05 * 2.0 ** -j for j in range(1, 6))


def _haar(r):
    return float(r["roundtrip_error"]) <= 1e-10 and float(r["parseval_error"]) <= 1e-10


# experiment -> (table, key columns, row check)
_TABLES = {
    "haar": ("haar_checks.csv", ("d", "n", "L"), _haar),
    "reducing": ("reducing_scan.csv", ("weight", "p"), _reducing),
    "stopping": ("stopping_decay.csv", ("weight", "p"), _stopping),
    "multiplier": ("multiplier_bounds.csv", ("weight", "p"),
                   lambda r: float(r["sum_identity_error"]) <= 1e-9),
    "equivalence": ("equivalence_summary.csv", ("weight", "p"),
                    lambda r: _finite_pos(r["max_ratio"], r["max_inverse_ratio"])),
    "sharpness": ("sharpness_sweep.csv", ("alpha",),
                  lambda r: _finite_pos(r["probe_max_ratio"],
                                        r["probe_max_inverse_ratio"])),
}


def _expected_keys(experiment: str, cfg: dict) -> set:
    if experiment == "haar":
        return {tuple(str(x) for x in g) for g in cfg["grids"]}
    if experiment == "sharpness":
        return {(repr(float(a)),) for a in cfg["sweep_alphas"]}
    return {(w["name"], repr(float(p))) for w in cfg["weights"] for p in cfg["ps"]}


def check_run(out_dir: Path, cfg: dict):
    problems = []
    if (out_dir / "failures.csv").exists():
        problems += [f"failures.csv: {r['experiment']} {r['cell']}"
                     for r in _rows(out_dir / "failures.csv")]
    attempted = failed = 0
    for exp in cfg["experiments"]:
        table, cols, ok = _TABLES[exp]
        keys = _expected_keys(exp, cfg)
        verdict = {}
        if (out_dir / table).exists():
            for r in _rows(out_dir / table):
                key = tuple(r[c] for c in cols)
                verdict[key] = verdict.get(key, True) and ok(r)
        keys |= set(verdict)
        attempted += len(keys)
        for key in sorted(keys):
            if not verdict.get(key, False):
                failed += 1
                problems.append(f"{table} {key}: " +
                                ("missing" if key not in verdict else "out of bounds"))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    csvs = sorted((k, v) for k, v in manifest["files"].items() if k.endswith(".csv"))
    for name, digest in csvs:
        body = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if body != digest:
            problems.append(f"manifest digest of {name} does not match its body")
    if not csvs:
        problems.append("manifest lists no CSV")
    return attempted, failed, _digest(csvs), problems


def check_verify(verdicts: dict, details: dict):
    """verdicts and details: criterion id -> passed, and -> its report line."""
    problems = [f"expected {'PASS' if want else 'FAIL'}: "
                + details.get(cid, f"criterion {cid} missing")
                for cid, want in EXPECTED_VERDICTS.items()
                if verdicts.get(cid) is not want]
    extra = sorted(set(verdicts) - set(EXPECTED_VERDICTS))
    problems += [f"unexpected: {details[cid]}" for cid in extra]
    attempted = len(EXPECTED_VERDICTS) + len(extra)
    return attempted, len(problems), _digest(sorted(verdicts.items())), problems


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]
