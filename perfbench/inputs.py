"""Workload definitions and the seeded config generator.

The program under test receives only the config JSON written here. The
workload seed sets the config `seed` (random test functions, fresh
directions) and every `WeightSpec.seed` (the log-Brownian path); the weight
suite, exponents and experiment lists come from the program's own
`default_config()`, so a change to the canonical suite reaches the benchmark
without editing it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# name -> (entry point, exponents, experiments); None keeps the default list
WORKLOADS = {
    # the p != 2 ellipsoid fits: 9 primal families plus 9 dual refits
    "fit-p3": ("run", (3.0,), ("reducing", "stopping", "multiplier", "equivalence")),
    # closed-form operators, so no fit; sharpness probe, stopping, multipliers
    "exact-p2": ("run", (2.0,), None),
    # the thirteen acceptance criteria on the default config
    "verify": ("verify", None, None),
}


def derived_seed(seed: int, tag: str) -> int:
    """A 31-bit seed from the workload seed and a tag, stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def write_config(haarweight, workload: str, seed: int, path: Path, out_dir: Path) -> Path:
    """Write the config of one workload and seed, with artifacts going to out_dir."""
    _, ps, experiments = WORKLOADS[workload]
    raw = haarweight.config.config_to_dict(haarweight.default_config())
    raw["seed"] = derived_seed(seed, "config")
    for spec in raw["weights"]:
        spec["seed"] = derived_seed(seed, "weight:" + spec["name"])
    if ps is not None:
        raw["ps"] = list(ps)
    if experiments is not None:
        raw["experiments"] = list(experiments)
    raw["out_dir"] = str(out_dir)
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return path
