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

The package root exports only `__version__`: import from the modules,
as in `from retrack.engine import run_sequence`, so that importing the
engine loads neither the simulator nor the metrics.
"""

__version__ = "0.1.0"
