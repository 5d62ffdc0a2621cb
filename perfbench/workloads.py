"""Scene sets for the benchmark workloads, built from a seed.

A workload is a list of ``(kind, seeds)`` groups; :func:`build_scene`
turns one ``(kind, seed)`` into a :class:`retrack.simworld.Scene`. The
benchmark seed shifts the scene seeds, so seed 0 is the fixed acceptance
corpus and nearby seeds share most of their scenes.

- ``corpus``: crossing seeds s..s+99 and convoy seeds s+100..s+199, the
  acceptance corpus and the engine's operating point (the gate fires on
  about a third of frames, with about three candidates).
- ``deform``: deform seeds s..s+199. Most frames hold one candidate, so
  backtracking and matching do little and the motion filter dominates:
  the control workload for optimisations of the fired path.
"""
from __future__ import annotations

from retrack.simworld import Scene, ScenarioConfig, generate_scene

WORKLOADS = ("corpus", "deform")
TARGET_ID = 1

# scenes per scenario kind at full size
CORPUS_PER_KIND = 100
DEFORM_SCENES = 200

# Full passes over the scenes whose times count: the same on every commit,
# so a faster commit gets no extra samples; at least four, one per set-up
# repeat. Sized so that they take about 20 s on a 2-vCPU Xeon host at the
# seed commit in its fast spells and 45 s in its slowest; later visits only
# check outputs.
TIMED_PASSES = {"corpus": 4, "deform": 6}


def build_scene(kind: str, seed: int) -> Scene:
    return generate_scene(ScenarioConfig(kind), seed)


def scene_name(kind: str, seed: int) -> str:
    return f"{kind}_{seed:04d}"


def scene_groups(workload: str, seed: int,
                 per_kind: int | None = None) -> list[tuple[str, range]]:
    """The workload's ``(kind, scene seeds)`` groups for a benchmark seed.

    ``per_kind`` caps the number of scenes of each kind (for smoke runs).
    """
    def take(full: int) -> int:
        return full if per_kind is None else min(per_kind, full)

    if workload == "corpus":
        n = take(CORPUS_PER_KIND)
        return [("crossing", range(seed, seed + n)),
                ("convoy", range(seed + CORPUS_PER_KIND, seed + CORPUS_PER_KIND + n))]
    if workload == "deform":
        return [("deform", range(seed, seed + take(DEFORM_SCENES)))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
