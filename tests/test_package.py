"""The package's public names and its import cost."""
import os
import subprocess
import sys
from pathlib import Path

import retrack

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    # a stale `__all__` entry breaks `from retrack import *`, though
    # `import retrack` still works
    missing = [name for name in retrack.__all__ if not hasattr(retrack, name)]
    assert not missing


def test_import_loads_no_scipy():
    # the assignment solver lives in the package; scipy is a test oracle only
    probe = "import retrack, retrack.cli, sys; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
