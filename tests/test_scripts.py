"""The experiment scripts reject a bad argument before any work."""

import pytest

from child import ROOT, run_child


def run_experiment(work, *args):
    return run_child(str(ROOT / "scripts" / "run_synthetic_experiment.py"),
                     "--work-dir", str(work), "--clips", "1", *args)


@pytest.mark.parametrize("flag, value", [("--feature-tag", "bogus"),
                                         ("--smoothing", "viterbi")])
def test_experiment_rejects_choice_before_writing_corpus(flag, value,
                                                         tmp_path):
    work = tmp_path / "exp"
    proc = run_experiment(work, flag, value)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert not work.exists()


def test_experiment_rejects_config_before_writing_corpus(tmp_path):
    work = tmp_path / "exp"
    proc = run_experiment(work, "--folds", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: data: folds must be at least 2, got 1\n"
    assert not work.exists()
