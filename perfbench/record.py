#!/usr/bin/env python3
"""Record a BENCH_<label>.json: repeated runs of every workload.

    python3 perfbench/record.py --label baseline --runs 10

Runs ``run.py --trace 0`` on every workload with seeds 0..runs-1,
interleaving the workloads so that slow spells of the host spread over
all of them, then one ``--trace 1`` run per workload at seed 0. For every
end-to-end metric it stores the median, the quartiles and the spread
(quartile distance over the median) next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run: the host facts and the result, with the run's median
    calibration probe time as ``kernel_ms`` when it reports one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("kernel_ms "):
            result["kernel_ms"] = float(line.split()[1])
    return host, result


def summary(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "bound": bound}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--note", default="")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs: dict[str, list] = {w: [] for w in names}
    host = None
    for seed in range(args.runs):
        for w in names:
            host, result = bench_run(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed {seed}: failed {result['failed']}", file=sys.stderr)
    report = {"label": args.label, "host": host, "run_seconds": seconds,
              "note": args.note, "workloads": {}}
    for w in names:
        _, traced = bench_run(w, 0, seconds, 1)
        report["workloads"][w] = {"summary": summary(runs[w], bounds),
                                  "runs": runs[w], "traced_seed0": traced}
    out = ROOT / "perfbench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for w in names:
        for name, s in report["workloads"][w]["summary"].items():
            print(f"{w:7s} {name:24s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
