"""Ground-truth ingestion, confusion counting, metrics, k-fold splits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .audio import HOP, SAMPLE_RATE, frame_times
from .errors import DataError
from .tracks import LabelTrack

POSITIVE_TOKENS = {"sing", "1", "vocal"}
NEGATIVE_TOKENS = {"nosing", "0", "nonvocal"}
# label times past this are refused: evaluate rasterizes up to the last end
MAX_LABEL_SECONDS = 24 * 3600.0


@dataclass(frozen=True)
class Segment:
    start: float
    end: float
    label: int


def parse_label_file(path) -> list[Segment]:
    """Lines of 'start_seconds end_seconds label', label in {sing, nosing, 1, 0}."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at offset "
                        f"{exc.start}") from exc
    if lines:  # a leading byte-order mark is no part of the first line
        lines[0] = lines[0].removeprefix("\ufeff")
    segments = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'start end label'")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable time") from exc
        if not (np.isfinite(start) and np.isfinite(end)):
            raise DataError(f"{path}:{lineno}: non-finite time")
        if max(start, end) > MAX_LABEL_SECONDS:
            raise DataError(f"{path}:{lineno}: time {max(start, end)} s is "
                            f"past the {MAX_LABEL_SECONDS:g} s bound")
        token = parts[2].lower()
        if token in POSITIVE_TOKENS:
            label = 1
        elif token in NEGATIVE_TOKENS:
            label = 0
        else:
            raise DataError(f"{path}:{lineno}: unknown label {parts[2]!r}")
        if end < start:
            raise DataError(f"{path}:{lineno}: non-monotone segment")
        segments.append(Segment(start, end, label))
    segments.sort(key=lambda s: s.start)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start < prev.end - 1e-9:
            raise DataError(f"{path}: overlapping segments at {cur.start}s")
    return segments


def rasterize_labels(segments, n_frames: int) -> LabelTrack:
    """Segments onto the first n_frames frames.

    A frame is vocal iff its center time falls inside a sing segment;
    time not covered by any segment defaults to non-vocal.
    """
    centers = frame_times(n_frames)
    labels = np.zeros(n_frames, dtype=np.int8)
    for seg in segments:
        if seg.label == 1:
            labels[(centers >= seg.start) & (centers < seg.end)] = 1
    return LabelTrack(labels=labels)


def load_labels(path, n_frames: int) -> LabelTrack:
    """A segment label file rasterized onto the first n_frames frames."""
    return rasterize_labels(parse_label_file(path), n_frames)


def save_labels(path, track: LabelTrack) -> None:
    """Write a label track as merged 'start end sing|nosing' segments."""
    # boundaries halfway between frame centers, so rasterizing the file
    # back onto the same number of frames reproduces the track exactly
    labels = track.labels
    centers = frame_times(len(labels))
    hop_s = HOP / SAMPLE_RATE
    # runs are labels[i:j] between consecutive cuts; an empty track has none
    cuts = np.r_[0, np.flatnonzero(labels[1:] != labels[:-1]) + 1, len(labels)]
    lines = [f"{centers[i] - hop_s / 2:.6f} {centers[j - 1] + hop_s / 2:.6f} "
             f"{'sing' if labels[i] == 1 else 'nosing'}"
             for i, j in zip(cuts[:-1], cuts[1:]) if i < j]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def confusion_counts(pred: LabelTrack, truth: LabelTrack):
    """(TP, TN, FP, FN) with vocal as the positive class."""
    p, t = pred.labels, truth.labels
    if len(p) != len(t):
        raise DataError(f"length mismatch: pred {len(p)} vs truth {len(t)}")
    tp = int(np.sum((p == 1) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    return tp, tn, fp, fn


@dataclass
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    zero_division_flags: list = field(default_factory=list)
    per_file: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def metrics(counts) -> EvalReport:
    """Accuracy / precision / recall / F1 from confusion counts.

    Division by zero yields 0 for the affected metric, with a flag.
    """
    tp, tn, fp, fn = counts
    total = tp + tn + fp + fn
    if total == 0:
        raise DataError("zero total frames")
    flags = []

    def _ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    accuracy = (tp + tn) / total
    precision = _ratio(tp, tp + fp, "precision")
    recall = _ratio(tp, tp + fn, "recall")
    f1 = _ratio(2.0 * precision * recall, precision + recall, "f1")
    return EvalReport(tp=tp, tn=tn, fp=fp, fn=fn, accuracy=accuracy,
                      precision=precision, recall=recall, f1=f1,
                      zero_division_flags=flags)


def pooled_report(per_file_counts: dict) -> EvalReport:
    """Micro-average: sum confusion counts over files, then compute metrics.

    Per-file metric means are attached under per_file for macro-style rows.
    """
    total = np.zeros(4, dtype=np.int64)
    per_file = {}
    for name, counts in sorted(per_file_counts.items()):
        total += np.array(counts, dtype=np.int64)
        rep = metrics(counts)
        per_file[name] = {"tp": rep.tp, "tn": rep.tn, "fp": rep.fp,
                          "fn": rep.fn, "accuracy": rep.accuracy,
                          "precision": rep.precision, "recall": rep.recall,
                          "f1": rep.f1}
    report = metrics(tuple(int(v) for v in total))
    report.per_file = per_file
    if per_file:
        report.per_file["__mean__"] = {
            key: float(np.mean([v[key] for v in per_file.values()]))
            for key in ("accuracy", "precision", "recall", "f1")
        }
    return report


def kfold_split(items, k: int, seed: int):
    """Deterministic shuffled partition into k folds of near-equal size.

    Splitting is always by whole item (file), never by frame.
    """
    items = list(items)
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    if len(items) < k:
        raise DataError(f"{len(items)} items < {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    folds = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(items[idx])
    return folds
