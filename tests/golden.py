"""Golden tables: one sha256 per (scenario, seed, config) run.

    PYTHONPATH=src python tests/golden.py    # rewrite both tables

Each digest covers the three files `retrack track` writes for one run
(`*_baseline.csv`, `*_engine.csv`, `*_engine_log.jsonl`), produced by the
CLI's own writers, so any change to a box, a score, a weight or a
decision flips the row. Each row also names the gates and sources its
log holds, so the table shows which decision paths it covers. A change
that moves a row must say why in CHANGES.md; `test_golden.py`
regenerates every row and compares.

The `mot` rows run the scenes `mot_scene` builds from `parse_mot`'s tracks,
at seeds 0-2, of the file `save_mot` writes for crossing seed 3.

The evaluation table pins what `retrack evaluate` computes from those
runs: each digest is that of the `comparison.csv` the command writes for
one seed (it holds no wall-clock field), under the default failure
threshold and under `--fail-iou 0.3`. Its `hard_*` rows score the scenes
that `--config tests/hard_scenario.json` generates.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

from conftest import zero_iou_scene
from props import WindowPort
from retrack import cli
from retrack.engine import EngineConfig, run_baseline, run_sequence
from retrack.evalkit import EvalReport
from retrack.simworld import (MockTracker, ScenarioConfig, generate_scene, mot_scene,
                              parse_mot, save_mot)

TABLE = Path(__file__).with_name("golden_decisions.tsv")
HEADER = "scenario\tseed\tconfig\tsha256\tgates\tsources"
EVAL_TABLE = Path(__file__).with_name("golden_evaluations.tsv")
EVAL_HEADER = "scenario\tseed\tfail_iou\tsha256"

HARD = Path(__file__).with_name("hard_scenario.json")


def crossing_mot_scene(seed: int):
    """The scene of crossing 3's MOT file at `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "crossing_0003.txt"
        save_mot(generate_scene(ScenarioConfig("crossing"), 3), path)
        return mot_scene(parse_mot(path), seed)


def _hard(kind: str):
    return lambda s: generate_scene(ScenarioConfig.from_file(HARD, kind), s)


# scenario name -> (seeds, scene builder)
SCENES = {
    "crossing": (range(10), lambda s: generate_scene(ScenarioConfig("crossing"), s)),
    "convoy": (range(100, 110), lambda s: generate_scene(ScenarioConfig("convoy"), s)),
    "deform": (range(10), lambda s: generate_scene(ScenarioConfig("deform"), s)),
    "zero_iou": (range(1), zero_iou_scene),
    "mot": (range(3), crossing_mot_scene),
}
# the target `retrack track` picks, the lowest id, except where the scene
# was built around another one
TARGETS = {"zero_iou": 2}

DEFAULT = EngineConfig()
# config name -> engine config
CONFIGS = {
    "default": DEFAULT,
    "no_kalman": dataclasses.replace(DEFAULT, use_kalman=False),
    "tau1": dataclasses.replace(DEFAULT, tau=1),
    "tau27": dataclasses.replace(DEFAULT, tau=27),
}
# table name -> (seeds, scene builder, the scenario `retrack evaluate` names
# its runs after), and the command's `--fail-iou` values
EVAL_SCENES = {
    **{name: (*SCENES[name], name) for name in ("crossing", "convoy", "deform")},
    "hard_convoy": (range(5), _hard("convoy"), "convoy"),
    "hard_crossing": (range(5), _hard("crossing"), "crossing"),
}
FAIL_IOUS = (0.0, 0.3)


def _runs(scene, target: int, engine_cfg: EngineConfig):
    """The baseline boxes, engine boxes and engine records of one run; the
    engine's port calls must stay within its frame window."""
    port = MockTracker(scene)
    frames = range(scene.length)
    b0 = scene.true_box(target, 0)
    baseline = run_baseline(port, frames, b0)
    boxes, records = run_sequence(WindowPort(port), frames, b0, engine_cfg)
    return baseline, boxes, records


def track_files(scene, source: str, target: int,
                engine_cfg: EngineConfig) -> tuple[str, list[dict]]:
    """The baseline CSV, engine CSV and engine log of one run, concatenated
    as `retrack track` writes them, and the engine's decision records."""
    baseline, boxes, records = _runs(scene, target, engine_cfg)
    config = {"engine": engine_cfg.as_dict(), "seed": scene.seed, "target": target,
              "source": source}
    text = (cli._boxes_csv(baseline, config) + cli._boxes_csv(boxes, config)
            + cli._records_jsonl(records, config))
    return text, records


def _histogram(values) -> str:
    return ",".join(f"{k}={n}" for k, n in sorted(Counter(values).items()))


def rows() -> list[str]:
    out = []
    for name, (seeds, build) in SCENES.items():
        for seed in seeds:
            scene = build(seed)
            target = TARGETS.get(name, min(scene.ids()))
            for cfg_name, engine_cfg in CONFIGS.items():
                text, records = track_files(scene, name, target, engine_cfg)
                digest = hashlib.sha256(text.encode()).hexdigest()
                out.append("\t".join((name, str(seed), cfg_name, digest,
                                      _histogram(r["gate"] for r in records),
                                      _histogram(r["source"] for r in records))))
    return out


def comparison_csvs(scene, source: str) -> dict[float, str]:
    """The `comparison.csv` that `retrack evaluate` writes for this one
    scene, keyed by `--fail-iou`: the runs are tracked once and scored
    under each threshold."""
    target = min(scene.ids())
    baseline, boxes, _ = _runs(scene, target, DEFAULT)
    out = {}
    for fail_iou in FAIL_IOUS:
        row = {"name": f"{source}_{scene.seed:04d}", "seed": scene.seed,
               "baseline": EvalReport.compute(baseline, scene, target, fail_iou).as_dict(),
               "engine": EvalReport.compute(boxes, scene, target, fail_iou).as_dict()}
        out[fail_iou] = cli._comparison_csv([row])
    return out


def eval_rows() -> list[str]:
    out = []
    for name, (seeds, build, source) in EVAL_SCENES.items():
        for seed in seeds:
            for fail_iou, text in comparison_csvs(build(seed), source).items():
                digest = hashlib.sha256(text.encode()).hexdigest()
                out.append("\t".join((name, str(seed), repr(fail_iou), digest)))
    return out


def render(header: str, lines: list[str]) -> str:
    return "\n".join([header] + lines) + "\n"


if __name__ == "__main__":
    TABLE.write_text(render(HEADER, rows()))
    EVAL_TABLE.write_text(render(EVAL_HEADER, eval_rows()))
    print(f"wrote {TABLE} and {EVAL_TABLE}", file=sys.stderr)
