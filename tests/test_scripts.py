"""The experiment scripts reject a bad argument before any work."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("flag, value", [("--feature-tag", "bogus"),
                                         ("--smoothing", "viterbi")])
def test_experiment_rejects_choice_before_writing_corpus(flag, value,
                                                         tmp_path):
    work = tmp_path / "exp"
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--work-dir", str(work), "--clips", "1", flag, value],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert not work.exists()
