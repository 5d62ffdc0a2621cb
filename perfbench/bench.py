"""Timed and traced passes of the engine over one workload's scenes.

A pass visits every scene once, as ``retrack evaluate`` does for one
seed: a fresh mock tracker, the argmax baseline, the engine stepped
frame by frame, and the evaluation of both outputs. The loop is closed:
a frame's ``step`` starts only after the previous one returns. Each
scene visit is one operation; it fails if it raises, breaks the
engine's output contract, or gives digests that differ from the
reference (or, for scenes the reference does not cover, from the
scene's first visit).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import calibrate
import reference
import retrack
import retrack.cli
import retrack.matching
import spans as spanlib
import workloads
from retrack.engine import EngineConfig, engine_init, run_baseline, step
from retrack.evalkit import EvalReport
from retrack.simworld import MockTracker

CFG = EngineConfig()
TARGET_ID = workloads.TARGET_ID
SETUP_REPEATS = 5  # one before the timed passes, one after each of the first four
SWEEP_SIZES = (2, 4, 8, 16, 32)
SWEEP_REPEATS = 8

IMPORT_PROBE = ("import time; t = time.perf_counter(); import retrack, retrack.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Visit:
    boxes: list
    records: list
    engine_ns: int
    baseline_ns: int
    eval_ns: int
    total_ns: int
    robustness: float


def run_engine(port, scene, step_ns: list, tracer=None, scene_id: int = -1):
    """Step the engine over the whole scene; one latency per stepped frame."""
    b0 = scene.true_box(TARGET_ID, 0)
    state = engine_init(port, 0, b0, CFG)
    boxes, records = [b0], []
    for f in range(1, scene.length):
        if tracer is None:
            t = perf_counter_ns()
            box, state, rec = step(state, f, port, CFG)
            step_ns.append(perf_counter_ns() - t)
        else:
            tracer.scene_id, tracer.frame_id = scene_id, f
            idx = tracer.begin("step")
            try:
                box, state, rec = step(state, f, port, CFG)
            finally:
                tracer.finish(idx)
        boxes.append(box)
        records.append(rec)
    return boxes, records


def visit(scene, step_ns: list) -> Visit:
    t0 = perf_counter_ns()
    port = MockTracker(scene)
    baseline = run_baseline(port, range(scene.length), scene.true_box(TARGET_ID, 0))
    t1 = perf_counter_ns()
    boxes, records = run_engine(port, scene, step_ns)
    t2 = perf_counter_ns()
    report = EvalReport.compute(boxes, scene, TARGET_ID)
    EvalReport.compute(baseline, scene, TARGET_ID)
    t3 = perf_counter_ns()
    return Visit(boxes, records, t2 - t1, t1 - t0, t3 - t2, t3 - t0, report.robustness)


class Checker:
    """Counts operations and checks each engine run's outputs."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.seen: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {name}: {why}", file=sys.stderr)

    def check(self, name: str, scene, boxes, records) -> None:
        self.attempted += 1
        error = reference.invariant_error(boxes, records, scene.true_box(TARGET_ID, 0),
                                          scene.length)
        if error is not None:
            self.fail(name, error)
            return
        got = reference.digests(boxes, records)
        want = self.ref.get(name, self.seen.get(name))
        self.seen.setdefault(name, got)
        if want is not None and got != want:
            parts = [p for p, a, b in zip(("gates", "sources", "boxes"), got, want) if a != b]
            self.fail(name, f"{', '.join(parts)} differ from the reference")

    def guarded(self, name: str, fn, *args):
        """Run one operation; a raised error counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.fail(name, traceback.format_exc(limit=3))
            return None


def host_facts() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def child_import_s(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def setup_once(specs, src: Path):
    """Imports, scene generation and one warm-up scene, between two
    calibration probes.

    Returns the scenes, the normalised set-up seconds and the normalised
    seconds spent generating the scenes alone."""
    before = calibrate.probe()
    imp = child_import_s(src)
    t0 = perf_counter()
    scenes = [workloads.build_scene(kind, seed) for _, kind, seed in specs]
    t1 = perf_counter()
    visit(scenes[0], [])
    t2 = perf_counter()
    scale = calibrate.factor(before, calibrate.probe())
    return scenes, (imp + t2 - t0) * scale, (t1 - t0) * scale


def timed_passes(specs, src: Path, seconds: float, passes: int, checker: Checker) -> dict:
    """End-to-end metrics: visit the scenes in order, a pass at a time.

    A calibration probe runs before every visit, so each visit sits
    between two probes and its times are normalised by their mean (see
    `calibrate`). Every time is then the median of the first `passes`
    visits to that scene, and each frame's latency the median of its
    first `passes` visits, before the metrics combine scenes. The number
    of timed visits is fixed, so every commit gets the same samples.
    Once the timed passes are done, visits go on until `seconds` have
    gone by, and only check outputs.

    Set-up is repeated after each of the first timed passes (every
    workload has at least four), so its repeats spread over the run;
    `setup_s` is their median."""
    scenes, setup_s, _ = setup_once(specs, src)
    setups = [setup_s]
    n = len(scenes)
    steps: list[list[np.ndarray]] = [[] for _ in range(n)]
    engine: list[list[float]] = [[] for _ in range(n)]
    baseline: list[list[float]] = [[] for _ in range(n)]
    total: list[list[float]] = [[] for _ in range(n)]
    robustness: list[float | None] = [None] * n
    probes: list[int] = []
    timed = passes * n
    start = perf_counter()
    deadline = start + seconds
    before = calibrate.probe()
    k = 0
    while k < timed or perf_counter() < deadline:
        i = k % n
        k += 1
        step_ns: list[int] = []
        v = checker.guarded(specs[i][0], visit, scenes[i], step_ns)
        after = calibrate.probe()
        if v is not None:
            checker.check(specs[i][0], scenes[i], v.boxes, v.records)
            if k <= timed:
                scale = calibrate.factor(before, after)
                probes.append(after)
                steps[i].append(np.asarray(step_ns, dtype=np.float64) * scale)
                engine[i].append(v.engine_ns * scale)
                baseline[i].append(v.baseline_ns * scale)
                total[i].append(v.total_ns * scale)
                if robustness[i] is None:
                    robustness[i] = v.robustness
        if k == timed:
            print(f"{passes} timed passes in {perf_counter() - start:.1f} s", file=sys.stderr)
        if i == n - 1 and k <= timed and len(setups) < SETUP_REPEATS:
            setups.append(setup_once(specs, src)[1])
            before = calibrate.probe()
        else:
            before = after
    ok = [i for i, r in enumerate(robustness) if r is not None]
    frames = sum(scenes[i].length - 1 for i in ok)
    latencies = np.concatenate([np.median(np.stack(steps[i]), axis=0) for i in ok]) / 1e3

    def summed(samples):
        return sum(statistics.median(samples[i]) for i in ok) / 1e9

    return {
        "engine_step_us_p50": float(np.percentile(latencies, 50)),
        "engine_step_us_p95": float(np.percentile(latencies, 95)),
        "engine_frames_per_s": frames / summed(engine),
        "baseline_frames_per_s": frames / summed(baseline),
        "pass_s": summed(total),
        "engine_robustness": sum(robustness[i] for i in ok) / len(ok),
        "setup_s": statistics.median(setups),
        "kernel_ms": statistics.median(probes) / 1e6,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def cli_evaluate(groups, out_dir: Path) -> None:
    """In-process ``retrack evaluate --jobs 1`` over the same scene seeds."""
    for kind, seeds in groups:
        argv = ["evaluate", "--scenario", kind, "--seeds", f"{seeds.start}:{seeds.stop}",
                "--jobs", "1", "--out", str(out_dir / kind)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = retrack.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"retrack {' '.join(argv)} exited with {code}")


def hungarian_sweep(seed: int) -> dict:
    """`hungarian_max` on seeded random n x n matrices: median normalised
    time per solve, and mean assignment sub-solves per solve."""
    rng = np.random.default_rng([seed, 505])
    out = {}
    for n in SWEEP_SIZES:
        mats = [rng.random((n, n)) for _ in range(SWEEP_REPEATS)]
        times = []
        before = calibrate.probe()
        for m in mats:
            t = perf_counter_ns()
            retrack.matching.hungarian_max(m)
            times.append(perf_counter_ns() - t)
        scale = calibrate.factor(before, calibrate.probe())
        tracer = spanlib.Tracer()
        with spanlib.instrumented(tracer, names=((), ("linear_sum_assignment",))):
            for m in mats:
                retrack.matching.hungarian_max(m)
        out[f"matching.hungarian_us_n{n}"] = statistics.median(times) * scale / 1e3
        out[f"matching.lsa_calls_n{n}"] = len(tracer.name) / len(mats)
    return out


def traced_passes(specs, scenes, deadline: float, checker: Checker, spans_path: Path):
    """Alternate untraced and traced passes over every scene, at least one
    of each, and another pair only while one more fits before the deadline.
    A calibration probe runs before every visit, and each visit's times
    (its spans too) are normalised by the probes on either side of it.
    Returns the per-layer metrics."""
    tracer = spanlib.Tracer()
    span_scale = array("d")
    untraced_ns = eval_ns = 0.0
    visits = 0
    fired: set[tuple[int, int]] = set()
    gates: dict[str, int] = {}
    sources: dict[str, int] = {}
    pair_s = 0.0
    while pair_s == 0.0 or perf_counter() + pair_s < deadline:
        t_pair = perf_counter()
        before = calibrate.probe()
        for i, scene in enumerate(scenes):
            step_ns: list[int] = []
            v = checker.guarded(specs[i][0], visit, scene, step_ns)
            after = calibrate.probe()
            if v is not None:
                checker.check(specs[i][0], scene, v.boxes, v.records)
                scale = calibrate.factor(before, after)
                untraced_ns += sum(step_ns) * scale
                eval_ns += v.eval_ns * scale
                visits += 1
            before = after
        with spanlib.instrumented(tracer):
            for i, scene in enumerate(scenes):
                port = spanlib.CountingPort(MockTracker(scene), tracer)
                first = len(tracer.name)
                out = checker.guarded(specs[i][0], run_engine, port, scene, [], tracer, i)
                after = calibrate.probe()
                span_scale.extend([calibrate.factor(before, after)] * (len(tracer.name) - first))
                before = after
                if out is None:
                    continue
                boxes, records = out
                checker.check(specs[i][0], scene, boxes, records)
                for rec in records:
                    gates[rec["gate"]] = gates.get(rec["gate"], 0) + 1
                    sources[rec["source"]] = sources.get(rec["source"], 0) + 1
                    if rec["gate"] == "fired":
                        fired.add((i, rec["frame"]))
        pair_s = perf_counter() - t_pair
    tracer.save(spans_path)
    tot = spanlib.layer_totals(tracer, fired, np.frombuffer(span_scale))
    counts = tracer.counts

    frames = tot["step"]["calls"]
    n_fired = gates.get("fired", 0)

    def calls(name, key="calls"):
        return tot.get(name, {}).get(key, 0)

    def per_frame(value):
        return value / frames

    def per_fired(value):
        return value / n_fired if n_fired else 0.0

    select_ns = sum(calls(n, "total_ns") for n in ("filter_by_confidence", "soft_nms",
                                                   "assemble"))
    n_hungarian = calls("hungarian_max")
    traced_ns = tot["step"]["total_ns"]
    return {
        "tracker_port.propose_calls_per_frame": per_frame(calls("propose")),
        "tracker_port.propose_calls_per_fired_frame": per_fired(calls("propose", "fired_calls")),
        "tracker_port.track_segment_calls_per_frame": per_frame(calls("track_segment")),
        "tracker_port.propose_self_us_per_frame": per_frame(calls("propose", "self_ns")) / 1e3,
        "tracker_port.track_segment_self_us_per_frame":
            per_frame(calls("track_segment", "self_ns")) / 1e3,
        "pools.chains_per_fired_frame": per_fired(counts["chains"]),
        "pools.build_candidate_pool_self_us_per_fired_frame":
            per_fired(calls("build_candidate_pool", "self_ns")) / 1e3,
        "pools.update_neighbor_pool_us_per_fired_frame":
            per_fired(calls("update_neighbor_pool", "total_ns")) / 1e3,
        "matching.build_weights_us_per_fired_frame":
            per_fired(calls("build_weights", "total_ns")) / 1e3,
        "matching.hungarian_us_per_fired_frame":
            per_fired(calls("hungarian_max", "total_ns")) / 1e3,
        "matching.resolve_us_per_fired_frame":
            per_fired(calls("resolve_target", "total_ns")) / 1e3,
        "matching.lsa_calls_per_fired_frame": per_fired(calls("linear_sum_assignment")),
        "matching.assignment_rows_mean": counts["rows"] / n_hungarian if n_hungarian else 0.0,
        "matching.assignment_cols_mean": counts["cols"] / n_hungarian if n_hungarian else 0.0,
        "geometry.tracklet_avg_iou_calls_per_frame": per_frame(calls("tracklet_avg_iou")),
        "motion.predict_us_per_frame": per_frame(calls("motion_predict", "total_ns")) / 1e3,
        "motion.update_us_per_frame": per_frame(calls("motion_update", "total_ns")) / 1e3,
        "candidate_select.us_per_frame": per_frame(select_ns) / 1e3,
        "candidate_select.raw_per_frame": per_frame(counts["raw"]),
        "candidate_select.kept_ratio": counts["kept"] / counts["raw"],
        "engine.step_self_us_per_frame": per_frame(calls("step", "self_ns")) / 1e3,
        **{f"engine.gate_{short}_share": per_frame(gates.get(gate, 0))
           for short, gate in (("single", "single_candidate"),
                               ("history", "history_overlap"), ("fired", "fired"))},
        **{f"engine.source_{src}_share": per_frame(sources.get(src, 0))
           for src in reference.SOURCE_CODES},
        "evalkit.compute_ms_per_scene": eval_ns / visits / 1e6,
        "trace.overhead_ratio": traced_ns / untraced_ns,
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def load_units(root: Path) -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def write_digests(path: Path, names: list[str], checker: Checker) -> str:
    lines = ["\t".join((name,) + checker.seen[name]) for name in names
             if name in checker.seen]
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(args, root: Path) -> int:
    if not Path(retrack.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported retrack from {retrack.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = load_units(root)
    calibrate.kernel()  # load what the kernel calls before the first probe
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    groups = workloads.scene_groups(args.workload, args.seed, args.scenes)
    specs = [(workloads.scene_name(kind, s), kind, s) for kind, seeds in groups for s in seeds]
    checker = Checker(reference.load())

    if args.trace:
        scenes, _, gen_s = setup_once(specs, root / "src")
        gens = [gen_s] + [setup_once(specs, root / "src")[2]
                          for _ in range(SETUP_REPEATS - 1)]
        deadline = perf_counter() + args.seconds
        _, cli_s = calibrate.timed(cli_evaluate, groups, out_dir / f"cli-{tag}")
        metrics = traced_passes(specs, scenes, deadline, checker,
                                out_dir / f"spans-{tag}.npz")
        metrics.update(hungarian_sweep(args.seed))
        metrics["simworld.generate_ms_per_scene"] = statistics.median(gens) / len(scenes) * 1e3
        metrics["cli.evaluate_s"] = cli_s
        units = layer_units
    else:
        metrics = timed_passes(specs, root / "src", args.seconds,
                               workloads.TIMED_PASSES[args.workload], checker)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"kernel_ms {metrics['kernel_ms']:.4f} (median calibration probe of the timed "
              f"passes; reference {calibrate.CAL_REF_NS / 1e6:.3f})")
        units = e2e_units

    names = [name for name, _, _ in specs]
    referenced = sum(1 for name in names if name in checker.ref)
    digest = write_digests(out_dir / f"digests-{tag}.tsv", names, checker)
    print(f"host {json.dumps(host_facts(), sort_keys=True)}")
    print(f"digests {tag}: {digest} ({referenced} of {len(names)} scenes "
          f"in the reference)")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result_metrics = {}
    for name, unit in units.items():
        value = float(metrics[name])
        print(f"  {name:58s} {value:14.6f} {unit}")
        result_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result_metrics}))
    return 1 if checker.failed else 0
