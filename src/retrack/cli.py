"""Command-line front end: track scenes, evaluate the runs.

A run's scenes come from one source: a scripted `--scenario`, generated
per seed, or a `--mot` ground-truth file, parsed once before any output
is written and built per seed, the seed drawing only the appearances.

Every command is reproducible from its flags and seeds alone: no setting
is read from the environment, outputs embed the resolved configuration and
contain no timestamps or wall times. Re-running a command, at any `--jobs`,
produces byte-identical files. `evaluate` states the engine's cost as
backbone passes, which the mock port counts (`MockTracker.port_frames`).
`--config` applies to `--scenario` only; given with `--mot`, it is an error.

One job per seed builds its scene and runs the baseline once, then the
engine once per distinct config: `track`'s one config (none under
`--baseline-only`), or `evaluate`'s main config and each other `--ablate` value.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path as FsPath

import click

from .engine import EngineConfig, run_baseline, run_sequence
from .evalkit import EvalReport, check_fail_iou
from .geometry import BBox
from .simworld import (SCENARIO_IDS, SCENARIOS, MockTracker, MotTracks, Scene, ScenarioConfig,
                       generate_scene, mot_scene, parse_mot)

TRACK_FORMAT = "retrack-track-v1"


class ConfigError(click.ClickException):
    """A flag value or config file that no run can use."""


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Turn a bad value met while building configuration into a ConfigError."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_seeds(text: str) -> list[int]:
    """'0:200' (half-open range) or '3,7,19' or a single integer; the
    seeds must be non-negative and distinct."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse seed list {text!r}") from None
    if not seeds:
        raise ConfigError(f"seed list {text!r} is empty")
    seen: set[int] = set()
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"seed list {text!r}: seed {seed} is negative")
        if seed in seen:
            raise ConfigError(f"seed list {text!r}: seed {seed} is repeated")
        seen.add(seed)
    return seeds


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One seed's scene source, fully determined and picklable: a scenario
    config, or the tracks parsed from a MOT file."""

    name: str
    source: str  # the scenario's kind or the MOT file's path
    scenario_cfg: ScenarioConfig | None
    mot_tracks: MotTracks | None
    seed: int
    target_id: int | None

    def build_scene(self) -> Scene:
        if self.mot_tracks is not None:
            return mot_scene(self.mot_tracks, self.seed)
        return generate_scene(self.scenario_cfg, self.seed)


def _execute_run(spec: RunSpec, cfgs: list[EngineConfig]) -> tuple:
    """Build the scene once, run the baseline, then the engine under each of
    `cfgs`, each run on its own port. Returns the scene, the target, the
    baseline's boxes and one `(boxes, records, port_frames)` per config."""
    scene = spec.build_scene()
    target = min(scene.ids()) if spec.target_id is None else spec.target_id
    frames = range(scene.length)
    b0 = scene.true_box(target, 0)
    baseline = run_baseline(MockTracker(scene), frames, b0)
    engine_runs = []
    for cfg in cfgs:
        port = MockTracker(scene)
        engine_runs.append((*run_sequence(port, frames, b0, cfg), port.port_frames))
    return scene, target, baseline, engine_runs


def _boxes_csv(boxes: list[BBox], config: dict) -> str:
    lines = [f"# {TRACK_FORMAT} config={json.dumps(config, sort_keys=True)}",
             "frame,x,y,w,h"]
    for f, b in enumerate(boxes):
        lines.append(f"{f},{b.x!r},{b.y!r},{b.w!r},{b.h!r}")
    return "\n".join(lines) + "\n"


def _records_jsonl(records: list[dict], config: dict) -> str:
    lines = [json.dumps({"config": config}, sort_keys=True)]
    for rec in records:
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def _track_one(args: tuple[RunSpec, EngineConfig, bool, str]) -> str:
    spec, engine_cfg, baseline_only, out_dir = args
    _, target, baseline, engine_runs = _execute_run(
        spec, [] if baseline_only else [engine_cfg])
    out = FsPath(out_dir)
    config = {"engine": engine_cfg.as_dict(), "seed": spec.seed, "target": target,
              "source": spec.source}
    (out / f"{spec.name}_baseline.csv").write_text(_boxes_csv(baseline, config))
    for boxes, records, _ in engine_runs:
        (out / f"{spec.name}_engine.csv").write_text(_boxes_csv(boxes, config))
        (out / f"{spec.name}_engine_log.jsonl").write_text(
            _records_jsonl(records, config))
    return spec.name


def _eval_one(args: tuple[RunSpec, list[EngineConfig], float]) -> tuple[int, list[dict]]:
    """The seed's stepped frames, and one comparison row per config in
    `cfgs`, each scored against the seed's one baseline report."""
    spec, cfgs, fail_iou = args
    scene, target, baseline, engine_runs = _execute_run(spec, cfgs)
    base = EvalReport.compute(baseline, scene, target, fail_iou).as_dict()
    return scene.length - 1, [
        {"name": spec.name, "seed": spec.seed, "baseline": base,
         "engine": EvalReport.compute(boxes, scene, target, fail_iou).as_dict(),
         "port_frames": port_frames}
        for boxes, _, port_frames in engine_runs]


def _map_jobs(fn, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
def cli():
    """Synthetic tracking benchmark and correction-engine runner."""


input_options = [
    click.option("--scenario", type=click.Choice(SCENARIOS), default=None,
                 help="Scripted scenario to generate per seed."),
    click.option("--mot", "mot_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="MOT ground-truth file to ingest instead."),
    click.option("--config", "config_path",
                 type=click.Path(exists=True, dir_okay=False), default=None,
                 help="JSON scenario config overriding the defaults (--scenario only)."),
    click.option("--seeds", default="0:10", show_default=True,
                 help="Distinct non-negative seeds: 'a:b' half-open range "
                      "or comma-separated."),
    click.option("--target-id", type=int, default=None,
                 help="Object id to track (default: lowest id)."),
]

engine_options = [
    click.option("--tau", type=int, default=EngineConfig.tau, show_default=True,
                 help="Backtrack depth in frames."),
    click.option("--no-kalman", is_flag=True, default=False,
                 help="Do not inject the motion-predicted candidate."),
]


def _add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


def _make_specs(scenario, mot_path, config_path, seeds, target_id) -> list[RunSpec]:
    if (scenario is None) == (mot_path is None):
        raise ConfigError("exactly one of --scenario or --mot is required")
    if mot_path is not None and config_path is not None:
        raise ConfigError("--config applies to --scenario only, not to --mot")
    seed_list = _parse_seeds(seeds)
    with _config_errors(f"bad scenario config {config_path}: "):
        scenario_cfg = (ScenarioConfig.from_file(config_path, kind=scenario) if config_path
                        else ScenarioConfig(kind=scenario) if scenario else None)
    tracks = parse_mot(mot_path) if mot_path else None
    stem = FsPath(mot_path).stem if mot_path else scenario
    specs = [RunSpec(name=f"{stem}_{seed:04d}", source=mot_path or scenario,
                     scenario_cfg=scenario_cfg, mot_tracks=tracks, seed=seed,
                     target_id=target_id)
             for seed in seed_list]
    if target_id is not None:
        ids = [t[0] for t in tracks] if tracks else list(SCENARIO_IDS)
        if target_id not in ids:
            raise ConfigError(f"target id {target_id} not present in scene (have {ids})")
    return specs


@cli.command("track")
@_add_options(input_options)
@_add_options(engine_options)
@click.option("--baseline-only", is_flag=True, default=False,
              help="Run only the argmax baseline, no correction.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_track(scenario, mot_path, config_path, seeds, target_id, tau, no_kalman,
              baseline_only, jobs, out_dir):
    """Track scenes with the baseline and the correction engine; write one
    CSV per system per seed plus a decision log for the engine."""
    with _config_errors():
        engine_cfg = EngineConfig(tau=tau, use_kalman=not no_kalman)
    specs = _make_specs(scenario, mot_path, config_path, seeds, target_id)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = _map_jobs(_track_one,
                      [(s, engine_cfg, baseline_only, str(out)) for s in specs], jobs)
    click.echo(f"tracked {len(names)} run(s) into {out}")


@cli.command("evaluate")
@_add_options(input_options)
@_add_options(engine_options)
@click.option("--fail-iou", type=float, default=0.0, show_default=True,
              help="Overlap at or below which a frame counts as a failure.")
@click.option("--ablate", default=None,
              help="'tau=1,3,9,27' sweeps backtrack depth; 'kalman' compares "
                   "the motion candidate on and off.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_evaluate(scenario, mot_path, config_path, seeds, target_id, tau, no_kalman,
                 fail_iou, ablate, jobs, out_dir):
    """Run baseline and engine, compute metrics, and write a side-by-side
    report; optionally sweep an ablation axis."""
    with _config_errors():
        check_fail_iou(fail_iou)
        engine_cfg = EngineConfig(tau=tau, use_kalman=not no_kalman)
    specs = _make_specs(scenario, mot_path, config_path, seeds, target_id)
    # a bad sweep spec fails before the main evaluation writes anything
    axis, values, swept = (_ablation_configs(ablate, engine_cfg) if ablate
                           else (None, [], []))
    cfgs = list(dict.fromkeys([engine_cfg, *swept]))
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # per seed, its stepped frames and one row per config in `cfgs`, main first
    per_seed = _map_jobs(_eval_one, [(s, cfgs, fail_iou) for s in specs], jobs)
    rows = [seed_rows[0] for _, seed_rows in per_seed]
    aggregate = _aggregate(rows)
    report = {
        "config": {"engine": engine_cfg.as_dict(), "fail_iou": fail_iou,
                   "source": mot_path or scenario, "seeds": seeds},
        "aggregate": aggregate,
        "per_seed": rows,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    (out / "comparison.csv").write_text(_comparison_csv(rows))
    click.echo(f"baseline robustness {aggregate['baseline']['robustness']:.3f} | "
               f"engine robustness {aggregate['engine']['robustness']:.3f} | "
               f"delta {aggregate['delta']['robustness']:+.3f}")

    if ablate:
        steps = sum(seed_steps for seed_steps, _ in per_seed)
        lines = [f"{axis},auc,robustness,port_frames_per_frame"]
        for value, cfg in zip(values, swept):
            col = [seed_rows[cfgs.index(cfg)] for _, seed_rows in per_seed]
            engine = _aggregate(col)["engine"]
            cost = sum(r["port_frames"] for r in col) / steps
            lines.append(f"{int(value)},{engine['auc']!r},{engine['robustness']!r},{cost!r}")
        (out / f"ablation_{axis}.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"report written to {out}")


def _aggregate(rows: list[dict]) -> dict:
    """Each metric's mean over `rows`, for the baseline and the engine, and
    the engine's minus the baseline's."""
    agg = {side: {key: sum(r[side][key] for r in rows) / len(rows) for key in rows[0][side]}
           for side in ("baseline", "engine")}
    agg["delta"] = {key: eng - agg["baseline"][key] for key, eng in agg["engine"].items()}
    return agg


def _comparison_csv(rows: list[dict]) -> str:
    metrics = list(rows[0]["baseline"].keys())
    header = ["name", "seed"]
    for m in metrics:
        header += [f"baseline_{m}", f"engine_{m}", f"delta_{m}"]
    lines = [",".join(header)]
    for r in rows:
        cells = [r["name"], str(r["seed"])]
        for m in metrics:
            b, e = r["baseline"][m], r["engine"][m]
            cells += [f"{b!r}", f"{e!r}", f"{e - b!r}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ablation_configs(ablate: str, engine_cfg: EngineConfig
                      ) -> tuple[str, list, list[EngineConfig]]:
    """Parse an ablation spec into its axis name, the swept values and one
    validated engine config per value."""
    with _config_errors(f"ablation {ablate!r}: "):
        if ablate.startswith("tau="):
            # a bad entry's message names it, an empty one as ''
            values = [int(v) for v in ablate[4:].split(",")]
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ValueError(f"tau {repeated[0]} is repeated")
            axis, field = "tau", "tau"
        elif ablate == "kalman":
            axis, field, values = "kalman", "use_kalman", [True, False]
        else:
            raise ConfigError(f"unknown ablation axis {ablate!r}; "
                              f"expected 'tau=...' or 'kalman'")
        cfgs = [dataclasses.replace(engine_cfg, **{field: v}) for v in values]
    return axis, values, cfgs


def main(argv=None) -> int:
    """Entry point with stable exit codes: 0 ok, 1 usage or config, 2 runtime."""
    try:
        return cli.main(args=argv, standalone_mode=False) or 0
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
