"""Golden decision table: one sha256 per (scenario, seed, config) run.

    PYTHONPATH=src python tests/golden.py    # rewrite tests/golden_decisions.tsv

Each digest covers the three files `retrack track` writes for one run
(`*_baseline.csv`, `*_engine.csv`, `*_engine_log.jsonl`), produced by the
CLI's own writers, so any change to a box, a score, a weight or a
decision flips the row. Each row also names the gates and sources its
log holds, so the table shows which decision paths it covers. A change
that moves a row must say why in CHANGES.md; `test_golden.py`
regenerates every row and compares.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections import Counter
from pathlib import Path

from conftest import zero_iou_scene
from retrack import cli
from retrack.engine import EngineConfig, run_baseline, run_sequence
from retrack.simworld import MockConfig, MockTracker, ScenarioConfig, generate_scene

TABLE = Path(__file__).with_name("golden_decisions.tsv")
HEADER = "scenario\tseed\tconfig\tsha256\tgates\tsources"

# scenario name -> (seeds, scene builder)
SCENES = {
    "crossing": (range(10), lambda s: generate_scene(ScenarioConfig("crossing"), s)),
    "convoy": (range(100, 110), lambda s: generate_scene(ScenarioConfig("convoy"), s)),
    "deform": (range(10), lambda s: generate_scene(ScenarioConfig("deform"), s)),
    "zero_iou": (range(1), zero_iou_scene),
}
# the target `retrack track` picks, the lowest id, except where the scene
# was built around another one
TARGETS = {"zero_iou": 2}

DEFAULT = EngineConfig()
# config name -> (engine config, mock tracker config)
CONFIGS = {
    "default": (DEFAULT, MockConfig()),
    "no_kalman": (dataclasses.replace(DEFAULT, use_kalman=False), MockConfig()),
    "tau1": (dataclasses.replace(DEFAULT, tau=1), MockConfig()),
    "tau27": (dataclasses.replace(DEFAULT, tau=27), MockConfig()),
    "jitter1.5": (DEFAULT, MockConfig(jitter=1.5)),
    "clutter3": (DEFAULT, MockConfig(clutter=3)),
}


def track_files(scene, source: str, target: int, engine_cfg: EngineConfig,
                mock_cfg: MockConfig) -> tuple[str, list[dict]]:
    """The baseline CSV, engine CSV and engine log of one run, concatenated
    as `retrack track` writes them, and the engine's decision records."""
    port = MockTracker(scene, mock_cfg)
    frames = range(scene.length)
    b0 = scene.true_box(target, 0)
    baseline = run_baseline(port, frames, b0)
    boxes, records = run_sequence(port, frames, b0, engine_cfg)
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
            for cfg_name, (engine_cfg, mock_cfg) in CONFIGS.items():
                text, records = track_files(scene, name, target, engine_cfg, mock_cfg)
                digest = hashlib.sha256(text.encode()).hexdigest()
                out.append("\t".join((name, str(seed), cfg_name, digest,
                                      _histogram(r["gate"] for r in records),
                                      _histogram(r["source"] for r in records))))
    return out


def render() -> str:
    return "\n".join([HEADER] + rows()) + "\n"


if __name__ == "__main__":
    TABLE.write_text(render())
    print(f"wrote {TABLE}", file=sys.stderr)
