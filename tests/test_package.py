"""The package's import cost."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _probe(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy():
    # the assignment solver lives in the package; scipy is a test oracle only
    assert _probe("import retrack, retrack.cli, sys; print('scipy' in sys.modules)") == "False"


def test_engine_import_loads_no_simulator_metrics_or_cli():
    # the engine sits behind a tracker port: it needs nothing of the
    # simulator, the metrics or the command line
    loaded = _probe("import retrack.engine, sys; print(sorted(m for m in sys.modules "
                    "if m.startswith('retrack') or m == 'click'))")
    assert loaded == str(sorted(
        ["retrack"] + [f"retrack.{m}" for m in ("candidate_select", "engine", "geometry",
                                                "matching", "motion", "pools",
                                                "tracker_port")]))
