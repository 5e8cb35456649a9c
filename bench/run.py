"""bayesfir benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
means the run finished and every output check passed.

Workloads, metrics and the layer-to-metric map are described in
``bench/README.md`` and listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported; the study
# subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="streams and studies a few batches long (for the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "bayesfir" / "__init__.py").is_file():
        print(f"error: no bayesfir package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import bayesfir
    import workloads

    if Path(bayesfir.__file__).resolve().parent != SRC / "bayesfir":
        print(f"error: bayesfir imported from {bayesfir.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = dataclasses.replace(wl, **workloads.TINY[args.workload])
    study = isinstance(wl, workloads.StudyWorkload)
    if args.trace:
        fn = workloads.trace_study if study else workloads.trace_streams
        wanted = spec["per_layer"]
    else:
        fn = workloads.measure_study if study else workloads.measure_streams
        wanted = spec["end_to_end"]
    extra = (ROOT,) if study else ()
    outcome = fn(wl, args.seed, args.seconds, *extra)

    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in outcome.notes:
        print(note)
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
