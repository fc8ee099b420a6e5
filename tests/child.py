"""A fresh interpreter that imports svdet from this checkout's source."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_child(*args, env=None, timeout=120):
    """sys.executable with args, svdet's source first on PYTHONPATH and
    env over this process's environment; the CompletedProcess, with its
    output captured as text."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, **(env or {}),
                               "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=timeout)
