"""haarweight benchmark: end-to-end timings, output checks, traced layers.

    python3 perfbench/run.py --workload fit-p3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the repository root; the program is imported from ./src. Every
repeat is a fresh process (perfbench/child.py) that makes the calls behind
`haarweight run` or `haarweight verify` on a config generated from --seed;
repeats run one after another (one closed-loop client) while another one
still fits in --seconds, and at least once. The program's worker count stays at its default.

--trace 0 reports the end-to-end metrics, each the median over the run's
samples. --trace 1 runs one traced repeat and reports the per-layer metrics
of perfbench/layers.py. Every repeat's outputs are
checked (perfbench/checks.py). The last stdout line is one JSON object with
keys correct, attempted, failed and metrics; the lines before it record the
environment, the CSV digest and each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import layers
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # extra set-up-only processes per run; each repeat adds one more sample
CHILD_TIMEOUT = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def steal_s() -> float | None:
    """CPU time the host gave to other guests so far (the `steal` column of
    /proc/stat), or None where the counter is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Run:
    """One benchmark run of one workload: its inputs, samples and checks."""

    def __init__(self, haarweight, workload: str, seed: int, work: Path):
        self.mode = inputs.WORKLOADS[workload][0]
        self.work = work
        self.out = work / "out"
        self.config_path = work / "config.json"
        (work / "tmp").mkdir(parents=True)
        inputs.write_config(haarweight, workload, seed, self.config_path, self.out)
        self.config = json.loads(self.config_path.read_text())
        self.samples = {k: [] for k in END_TO_END}
        self.attempted = self.failed = 0
        self.digests = set()
        self.problems = []
        self.environment = None
        self.steal = 0.0
        self.verdicts = None

    def _child(self, mode: str, spans: Path | None = None) -> dict:
        result = self.work / "result.json"
        env = dict(os.environ, TMPDIR=str(self.work / "tmp"))
        env.pop("HAARWEIGHT_WORKERS", None)  # keep the program's default
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.config_path),
               str(result), repr(time.monotonic())]
        if spans is not None:
            cmd.append(str(spans))
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT)
        return json.loads(result.read_text())

    def setup_probe(self) -> None:
        rep = self._child("setup")
        self.samples["setup_s"].append(rep["setup_s"])
        self.environment = self.environment or rep["environment"]

    def repeat(self, spans: Path | None = None) -> dict:
        """One checked workload process; returns its report."""
        shutil.rmtree(self.out, ignore_errors=True)
        before = steal_s()
        rep = self._child(self.mode, spans)
        after = steal_s()
        if before is not None and after is not None:
            self.steal += after - before
        if self.mode == "verify":
            got = checks.check_verify(rep["verdicts"], rep["details"])
            self.verdicts = rep["verdicts"]
        else:
            got = checks.check_run(self.out, self.config)
        attempted, failed, digest, problems = got
        self.attempted += attempted
        self.failed += failed
        self.digests.add(digest)
        self.problems += problems
        if spans is None:
            for key in END_TO_END:
                self.samples[key].append(rep[key])
        return rep

    @property
    def correct(self) -> bool:
        return not self.problems and len(self.digests) == 1


def environment_record(run_env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # never report an enclosing repository's commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "haarweight").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **run_env,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def tail(samples: list):
    """(q, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(haarweight, workload: str, seed: int, seconds: float, trace: bool,
            work: Path):
    """Run one workload; returns (result object, summary lines)."""
    run = Run(haarweight, workload, seed, work)
    for _ in range(SETUP_PROBES):
        run.setup_probe()
    lines = [f"environment {json.dumps(environment_record(run.environment))}",
             f"inputs workload={workload} seed={seed} config_sha256="
             + hashlib.sha256(run.config_path.read_bytes()).hexdigest()[:16]]
    if trace:
        spans_path = work / "spans.json"
        traced = run.repeat(spans_path)
        metrics = layers.layer_metrics(tracer.load_spans(spans_path),
                                       traced["wall_s"], traced["span_cost_s"])
        units = layers.METRICS
        for key, val in metrics.items():
            lines.append(f"layer {key} = {val:.6g} {units[key]}")
    else:
        # repeat while another repeat of the median length still fits
        start = time.monotonic()
        run.repeat()
        while (time.monotonic() - start
               + statistics.median(run.samples["wall_s"])) <= seconds:
            run.repeat()
        metrics = {k: statistics.median(v) for k, v in run.samples.items()}
        units = END_TO_END
        for key, vals in run.samples.items():
            t = tail(vals)
            extra = f", p{t[0]} {t[1]:.4f}" if t else ", no tail percentile below 11"
            lines.append(f"metric {key} = {metrics[key]:.4f} {units[key]} "
                         f"(median of n={len(vals)}{extra})")
    lines.append(f"host_steal_s {run.steal:.2f} (during the workload processes)")
    lines.append(f"csv_digest {','.join(sorted(run.digests))}")
    lines.append(f"fail_frac {run.failed}/{run.attempted}")
    if run.verdicts is not None:
        failing = [cid for cid, ok in sorted(run.verdicts.items()) if not ok]
        expected = [cid for cid, ok in checks.EXPECTED_VERDICTS.items() if not ok]
        lines.append(f"criteria {len(run.verdicts) - len(failing)}/{len(run.verdicts)} "
                     f"pass, failing {failing} (expected {expected})")
    lines += [f"problem {p}" for p in run.problems]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def _import_program():
    init = ROOT / "src" / "haarweight" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a "
                         "checkout of the haarweight repository")
    sys.path.insert(0, str(ROOT / "src"))
    import haarweight

    if Path(haarweight.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported haarweight from {haarweight.__file__}")
    return haarweight


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    haarweight = _import_program()
    names = list(inputs.WORKLOADS) if args.all else [args.workload]
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        for name in names:
            work = scratch / name
            result, lines = measure(haarweight, name, args.seed, args.seconds,
                                    bool(args.trace), work)
            if args.all:
                lines = [f"[{name}] {line}" for line in lines]
            print("\n".join(lines), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.all:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
