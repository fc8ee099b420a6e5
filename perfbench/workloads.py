"""Benchmark workloads: synthetic inputs, svdet CLI calls, output checks.

A workload is set up once per repetition (corpus synthesis, plus the
checkpoint training on predict-long), then driven as a closed loop of
in-process `svdet.cli.main` calls, one client in one process. Each
call's outputs are checked against the generated truth; the checks use
only the files the call wrote, never svdet's own scoring code.
"""

from __future__ import annotations

import hashlib
import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The synthetic corpus is 16 kHz; PipelineConfig frames it at 40 ms / 20 ms.
SAMPLE_RATE = 16000
FRAME_LEN = 640
HOP = 320


class CheckError(Exception):
    """A call's outputs are wrong or differ between identical calls."""


def set_args(pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


def n_frames(wav: Path) -> int:
    with wave.open(str(wav), "rb") as wf:
        if wf.getframerate() != SAMPLE_RATE:
            raise CheckError(f"{wav}: unexpected rate {wf.getframerate()}")
        return (wf.getnframes() - FRAME_LEN) // HOP + 1


def frame_centers(n: int) -> np.ndarray:
    return (np.arange(n) * HOP + FRAME_LEN / 2.0) / SAMPLE_RATE


def rasterize(lab: Path, n: int) -> np.ndarray:
    """1 where a frame center falls inside a `sing` segment of a .lab file."""
    centers = frame_centers(n)
    labels = np.zeros(n, dtype=np.int8)
    for line in lab.read_text().splitlines():
        start, end, token = line.split()
        if token == "sing":
            labels[(centers >= float(start)) & (centers < float(end))] = 1
    return labels


def confusion(pred: np.ndarray, truth: np.ndarray):
    """(tp, tn, fp, fn) with vocal as the positive class."""
    return (int(np.sum((pred == 1) & (truth == 1))),
            int(np.sum((pred == 0) & (truth == 0))),
            int(np.sum((pred == 1) & (truth == 0))),
            int(np.sum((pred == 0) & (truth == 1))))


def tree_digest(*dirs: Path) -> str:
    """Hash of the file names and bytes under the given directories."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(top)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def corpus_frames(corpus: Path) -> int:
    return sum(n_frames(p) for p in (corpus / "audio").glob("*.wav"))


@dataclass(frozen=True)
class KFold:
    """`svdet pipeline` on one synthetic corpus; one call is one k-fold run."""

    name: str
    sets: tuple
    clips: int
    clip_s: float
    folds: int = 5
    setup_reps = 5     # set-up is a second or less; more repetitions steady it
    # the first k-fold run in a process is slower; it is run once untimed
    warmup_rounds = 1

    @property
    def ops_per_call(self) -> int:
        return self.folds

    def setup(self, svdet, work: Path, seed: int) -> dict:
        corpus = work / "corpus"
        svdet.synth.write_corpus(corpus, self.clips, seed=seed,
                                 duration=self.clip_s)
        return {"corpus": corpus, "frames": corpus_frames(corpus)}

    def setup_digest(self, state) -> str:
        return tree_digest(state["corpus"])

    def inputs(self, state) -> list:
        return ["corpus"]

    def argv(self, state, key, out: Path) -> list:
        corpus = state["corpus"]
        return set_args((f"folds={self.folds}",) + self.sets) + [
            "pipeline", "--audio-dir", str(corpus / "audio"),
            "--label-dir", str(corpus / "labels"), "--out-dir", str(out)]

    def check(self, state, key, out: Path):
        """Returns (digest, pooled confusion counts) of one k-fold report."""
        path = out / "report.json"
        report = json.loads(path.read_text())
        keys = ("tp", "tn", "fp", "fn")
        pooled = tuple(int(report["pooled"][k]) for k in keys)
        if len(report["folds"]) != self.folds:
            raise CheckError(f"{len(report['folds'])} fold reports, "
                             f"expected {self.folds}")
        fold_sum = tuple(sum(int(f[k]) for f in report["folds"]) for k in keys)
        if fold_sum != pooled:
            raise CheckError("fold counts do not add up to the pooled counts")
        if sum(pooled) != state["frames"]:
            raise CheckError(f"pooled counts cover {sum(pooled)} frames, "
                             f"corpus has {state['frames']}")
        return file_digest(path), pooled


@dataclass(frozen=True)
class PredictLong:
    """`svdet predict` per held-out clip with a checkpoint trained in set-up."""

    name: str
    sets: tuple
    train_clips: int
    train_s: float
    heldout_clips: int
    heldout_s: float
    ops_per_call = 1
    setup_reps = 3
    warmup_rounds = 0  # set-up already ran one predict

    def setup(self, svdet, work: Path, seed: int) -> dict:
        state = {"train": work / "train", "heldout": work / "heldout",
                 "model": work / "model"}
        svdet.synth.write_corpus(state["train"], self.train_clips,
                                 seed=2 * seed, duration=self.train_s)
        svdet.synth.write_corpus(state["heldout"], self.heldout_clips,
                                 seed=2 * seed + 1, duration=self.heldout_s)
        train = state["train"]
        if svdet.cli.main(set_args(self.sets) + [
                "train", "--audio-dir", str(train / "audio"),
                "--label-dir", str(train / "labels"),
                "--out-dir", str(state["model"])]) != 0:
            raise RuntimeError("svdet train failed during set-up")
        # the first predict in a process pays one-off costs; pay them here
        warm = work / "warmup"
        if svdet.cli.main(self._predict_argv(
                state, train / "audio" / "clip000.wav", warm)) != 0:
            raise RuntimeError("warm-up svdet predict failed during set-up")
        return state

    def setup_digest(self, state) -> str:
        h = hashlib.sha256(tree_digest(state["train"],
                                       state["heldout"]).encode())
        with np.load(state["model"] / "checkpoint.npz") as ckpt:
            for name in sorted(ckpt.files):
                h.update(name.encode())
                h.update(ckpt[name].tobytes())
        return h.hexdigest()

    def inputs(self, state) -> list:
        return sorted(p.stem for p in (state["heldout"] / "audio").glob("*.wav"))

    def _predict_argv(self, state, wav: Path, out: Path) -> list:
        return set_args(self.sets) + [
            "predict", str(wav),
            "--checkpoint", str(state["model"] / "checkpoint.npz"),
            "--out", str(out / "pred.csv"), "--label-out", str(out / "pred.lab")]

    def argv(self, state, key, out: Path) -> list:
        return self._predict_argv(state, state["heldout"] / "audio" / f"{key}.wav",
                                  out)

    def check(self, state, key, out: Path):
        """Returns (digest, confusion counts) of one clip's prediction."""
        n = n_frames(state["heldout"] / "audio" / f"{key}.wav")
        csv_path, lab_path = out / "pred.csv", out / "pred.lab"
        with open(csv_path) as fh:
            header = fh.readline().strip()
        if header != "frame_time,posterior,smoothed_label":
            raise CheckError(f"{key}: unexpected CSV header {header!r}")
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (n, 3):
            raise CheckError(f"{key}: CSV has shape {rows.shape}, "
                             f"expected {n} frames x 3 columns")
        post = rows[:, 1]
        if not (np.all(np.isfinite(post)) and post.min() >= 0.0
                and post.max() <= 1.0):
            raise CheckError(f"{key}: posterior outside [0, 1] or not finite")
        if np.max(np.abs(rows[:, 0] - frame_centers(n))) > 1e-6:
            raise CheckError(f"{key}: frame times off the 20 ms grid")
        pred = rasterize(lab_path, n)
        if not np.array_equal(pred, rows[:, 2]):
            raise CheckError(f"{key}: .lab output disagrees with the CSV labels")
        truth = rasterize(state["heldout"] / "labels" / f"{key}.lab", n)
        return file_digest(csv_path, lab_path), confusion(pred, truth)


WORKLOADS = {
    "kfold-train": KFold("kfold-train", sets=("epochs=3",), clips=5, clip_s=4.0),
    "predict-long": PredictLong(
        "predict-long", sets=("feature_tag=lpcc_mfcc_plp", "epochs=3"),
        train_clips=6, train_s=8.0, heldout_clips=8, heldout_s=20.0),
    "kfold-hmm": KFold(
        "kfold-hmm", sets=("separate=false", "smoothing_method=hmm", "epochs=1"),
        clips=5, clip_s=6.0),
}

# Toy sizes for the self-check: same code paths, seconds instead of minutes.
TOY_WORKLOADS = {
    "kfold-train": KFold("kfold-train", sets=("epochs=1",), clips=5, clip_s=4.0),
    "predict-long": PredictLong(
        "predict-long", sets=("feature_tag=lpcc_mfcc_plp", "epochs=1"),
        train_clips=3, train_s=8.0, heldout_clips=2, heldout_s=10.0),
    "kfold-hmm": KFold(
        "kfold-hmm", sets=("separate=false", "smoothing_method=hmm", "epochs=1"),
        clips=5, clip_s=4.0),
}
