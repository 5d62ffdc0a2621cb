"""Tracker-agnostic correction engine for single-object tracking.

The engine sits behind any tracker exposing the small `TrackerPort`
interface. Each frame it screens the tracker's raw candidates, backtracks
the survivors, and matches them against the target's recent history and
the neighbor pool to decide which box really is the target; a constant
velocity motion model supplies a fallback candidate for full occlusion.
The package also ships a synthetic occlusion benchmark (`simworld`), whose
scenes are generated from a scenario and a seed or read from a MOT file,
an evaluation kit, and a command-line front end that tracks and
evaluates them.
"""

from .candidate_select import (CandidateSet, assemble, filter_by_confidence,
                               soft_nms)
from .engine import (EngineConfig, EngineState, engine_init, run_baseline,
                     run_sequence, step)
from .evalkit import EvalReport
from .geometry import BBox, Tracklet, iou, tracklet_avg_iou
from .matching import build_weights, hungarian_max, resolve_target
from .motion import (MotionState, motion_init, motion_predict, motion_update)
from .pools import build_candidate_pool, update_neighbor_pool
from .simworld import (MockTracker, MotFormatError, ObjectSpec, Scene, ScenarioConfig,
                       generate_scene, load_mot, save_mot)
from .tracker_port import RawCandidates, TrackerPort

__version__ = "0.1.0"

__all__ = [
    "BBox", "Tracklet", "iou", "tracklet_avg_iou",
    "RawCandidates", "TrackerPort",
    "CandidateSet", "filter_by_confidence", "soft_nms", "assemble",
    "MotionState", "motion_init", "motion_predict", "motion_update",
    "build_candidate_pool", "update_neighbor_pool",
    "build_weights", "hungarian_max", "resolve_target",
    "EngineConfig", "EngineState", "engine_init", "step",
    "run_sequence", "run_baseline",
    "Scene", "ObjectSpec", "ScenarioConfig",
    "MockTracker", "MotFormatError",
    "generate_scene", "save_mot", "load_mot",
    "EvalReport",
    "__version__",
]
