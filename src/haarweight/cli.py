"""Command line harness.

Subcommands:
  run            execute the configured experiments, write CSV/JSON artifacts
  verify         run the thirteen acceptance checks, exit 0 iff all pass
  calibrate      print the stopping thresholds for the configured suite
  dump-weight    realize a configured weight and write it as CSV
  dump-stopping  build a calibrated generation tree and write it as JSON

Exit codes: 0 success, 1 recorded failures (cells or criteria), 2 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .acceptance import AcceptanceContext, run_all
from .config import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    _exponent_tag,
    default_config,
    load_config,
)
from .errors import HaarweightError
from .experiments import RunContext, run_experiments
from .serialization import save_generation_tree, save_weight


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    over = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        over["out_dir"] = str(args.out_dir)
    if getattr(args, "experiment", None):
        over["experiments"] = tuple(args.experiment)
    return dataclasses.replace(cfg, **over) if over else cfg


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiments(cfg, dump_stopping=args.dump_stopping)
    for f in result.files:
        print(f)
    if result.failures:
        print(f"{len(result.failures)} cell failure(s), see failures.csv",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    cfg = _load(args)
    ctx = AcceptanceContext(cfg)
    print(f"acceptance suite: {len(cfg.weights)} weights, p in "
          f"{tuple(cfg.ps)}, seed {cfg.seed}")
    results = run_all(ctx)
    failing = [r for r in results if not r.passed]
    print(f"{len(results) - len(failing)}/{len(results)} criteria passed")
    if failing:
        print("failing: " + ", ".join(f"{r.cid:02d} {r.name}" for r in failing))
        return 1
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    groups = ctx.signatures()
    print("d  n  p    lambda1      weight            lambda2       char")
    for d, n in sorted(groups):
        for p in cfg.ps:
            cal = ctx.calibration(d, n, p)
            for name, lam2 in sorted(cal.lambda2_by_weight.items()):
                print(f"{d}  {n}  {p:<4g} {cal.lambda1:<12.6f} {name:<17} "
                      f"{lam2:<13.6f} {cal.chars[name]:.4f}")
    grouped = {name for names in groups.values() for name in names}
    for w in cfg.weights:
        if w.name not in grouped:
            ctx.weight(w.name)  # raises the error that kept it out
    return 0


def _cmd_dump_weight(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    out = args.out or Path(f"{args.name}.csv")
    save_weight(ctx.weight(args.name), out)
    print(out)
    return 0


def _cmd_dump_stopping(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    out = args.out or Path(f"{args.name}_{_exponent_tag(args.p)}.json")
    save_generation_tree(ctx.tree(args.name, args.p), out)
    print(out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="haarweight",
        description="Dyadic Haar laboratory for matrix-weighted square functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run experiments and write artifacts")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out", dest="out_dir", type=Path,
                    help="output directory (overrides config out_dir)")
    sp.add_argument(
        "--experiment", action="append", choices=EXPERIMENT_IDS,
        help="restrict to one experiment (repeatable)",
    )
    sp.add_argument("--dump-stopping", action="store_true",
                    help="also write one generation-tree JSON per weight")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("verify", help="run the acceptance criteria")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("calibrate", help="print calibrated stopping thresholds")
    sp.set_defaults(fn=_cmd_calibrate)

    sp = sub.add_parser("dump-weight", help="write one weight as CSV")
    sp.add_argument("name", help="weight name from the config suite")
    sp.add_argument("--out", type=Path, help="target CSV path")
    sp.set_defaults(fn=_cmd_dump_weight)

    sp = sub.add_parser("dump-stopping", help="write one generation tree as JSON")
    sp.add_argument("name", help="weight name from the config suite")
    sp.add_argument("--p", type=float, default=2.0, help="integrability exponent")
    sp.add_argument("--out", type=Path, help="target JSON path")
    sp.set_defaults(fn=_cmd_dump_stopping)

    for sp in sub.choices.values():
        sp.add_argument("--config", type=Path, help="JSON experiment config")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HaarweightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
