"""Reference outputs: per-scene digests of the engine's decisions and boxes.

A scene's outputs reduce to three digests: of its per-frame gate
sequence, of its per-frame source sequence, and of its boxes rounded to
1e-6 px. Two boxes more than 1e-6 px apart always round apart, so a box
moved by more than that changes the digest. ``reference.tsv`` holds the
digests for every scene that benchmark seeds 0-99 use, as produced by
the engine when the benchmark was defined. Regenerate it with
``python3 perfbench/reference.py`` only when a change to the engine's
outputs is intended.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.tsv")
REFERENCE_SEEDS = range(100)

GATE_CODES = {"single_candidate": "s", "history_overlap": "h", "fired": "f"}
SOURCE_CODES = {"argmax": "a", "target_matched": "t", "best_unmatched": "b",
                "kalman_fallback": "k", "degraded_argmax": "d"}


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(boxes, records) -> tuple[str, str, str]:
    """(gates, sources, boxes) digests of one engine run over a scene."""
    gates = "".join(GATE_CODES.get(r["gate"], "?") for r in records)
    sources = "".join(SOURCE_CODES.get(r["source"], "?") for r in records)
    box_text = ";".join("%.6f,%.6f,%.6f,%.6f" % b.as_tuple() for b in boxes)
    return _hash(gates), _hash(sources), _hash(box_text)


def invariant_error(boxes, records, b0, length: int) -> str | None:
    """Why an engine run breaks the engine's contract, or None if it holds."""
    if len(boxes) != length or len(records) != length - 1:
        return f"{len(boxes)} boxes and {len(records)} records for {length} frames"
    if boxes[0] != b0:
        return "first box is not the anchor box"
    for rec, box in zip(records, boxes[1:]):
        if rec["gate"] not in GATE_CODES or rec["source"] not in SOURCE_CODES:
            return f"frame {rec['frame']}: unknown gate or source"
        if (rec["gate"] == "fired") == (rec["source"] == "argmax"):
            return f"frame {rec['frame']}: source {rec['source']} under gate {rec['gate']}"
        if rec["box"] != list(box.as_tuple()):
            return f"frame {rec['frame']}: record box differs from returned box"
    return None


def load() -> dict[str, tuple[str, str, str]]:
    out = {}
    for line in REFERENCE_FILE.read_text().splitlines():
        name, gates, sources, boxes = line.split("\t")
        out[name] = (gates, sources, boxes)
    return out


def covered_scenes() -> list[tuple[str, int]]:
    """Every (kind, scene seed) that some benchmark seed in range uses."""
    from workloads import WORKLOADS, scene_groups
    seen = set()
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            for kind, seeds in scene_groups(workload, seed):
                seen.update((kind, s) for s in seeds)
    return sorted(seen)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from retrack.engine import EngineConfig, run_sequence
    from retrack.simworld import MockTracker
    from workloads import TARGET_ID, build_scene, scene_name

    lines = []
    for kind, seed in covered_scenes():
        scene = build_scene(kind, seed)
        b0 = scene.true_box(TARGET_ID, 0)
        boxes, records = run_sequence(MockTracker(scene), range(scene.length), b0,
                                      EngineConfig())
        error = invariant_error(boxes, records, b0, scene.length)
        if error is not None:
            raise RuntimeError(f"{scene_name(kind, seed)}: {error}")
        lines.append("\t".join((scene_name(kind, seed),) + digests(boxes, records)))
    REFERENCE_FILE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} scene digests to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
