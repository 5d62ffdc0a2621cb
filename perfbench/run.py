#!/usr/bin/env python3
"""Benchmark of the retrack correction engine.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run it from the repository root. It builds the workload's scenes from the
seed, runs the argmax baseline, the engine and the evaluation over them
for ``--seconds`` in one process on one thread, and checks every engine
run against the reference digests. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.
The last line of standard output is the result as one JSON object;
per-scene digests and the traced spans are written under ``.bench_out/``.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# one thread everywhere, set before numpy can load a BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI reads RETRACK_* variables as flag values; keep the run reproducible
for _var in [v for v in os.environ if v.startswith("RETRACK_")]:
    del os.environ[_var]

import argparse  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "deform"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scenes", type=int, default=None,
                   help="cap on scenes per scenario kind (smoke runs)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.scenes is not None and args.scenes < 1):
        p.error("--seed must be >= 0, --seconds > 0 and --scenes >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "retrack" / "__init__.py").is_file():
        print(f"error: no retrack package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
