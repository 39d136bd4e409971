"""One workload process: set up as the haarweight CLI does, run, report.

    python3 perfbench/child.py MODE CONFIG RESULT SPAWNED [SPANS]

MODE is `setup` (import and load the config only), `run` (the calls behind
`haarweight run`) or `verify` (the calls behind `haarweight verify`).
SPAWNED is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, `import haarweight` and
`load_config`. With SPANS, the program's public functions are traced; after
the clock stops the spans are written there and the wrapper's cost per call
is measured. RESULT receives one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(haarweight) -> dict:
    import numpy
    import scipy

    from blas import blas_info

    experiments = getattr(haarweight, "experiments", None)
    default_workers = getattr(experiments, "default_workers", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(numpy),
        "default_workers": default_workers() if default_workers else None,
    }


def main(argv) -> int:
    mode, config, result_path, spawned = argv[0], argv[1], argv[2], float(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(ROOT / "src"))
    import haarweight

    if Path(haarweight.__file__).resolve().parent != ROOT / "src" / "haarweight":
        print(f"imported haarweight from {haarweight.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.instrument(tracer, haarweight)
    cfg = haarweight.load_config(config)
    setup_done = time.monotonic()
    out = {"setup_s": setup_done - spawned}
    if mode == "setup":
        out["environment"] = _environment(haarweight)
    elif mode == "run":
        haarweight.run_experiments(cfg)
    elif mode == "verify":
        results = haarweight.run_all(haarweight.AcceptanceContext(cfg),
                                     printer=lambda line: None)
        out["verdicts"] = {f"{r.cid:02d}": bool(r.passed) for r in results}
        out["details"] = {f"{r.cid:02d}": r.line() for r in results}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["wall_s"] = end - setup_done
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import span_cost

        tracer.dump(spans_path)
        out["span_cost_s"] = span_cost()
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
