"""Per-frame prediction and label tracks aligned to a frame grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FrameGrid
from .errors import DataError


@dataclass(frozen=True)
class PredictionTrack:
    """One posterior in [0, 1] per frame."""

    posteriors: np.ndarray
    grid: FrameGrid

    def __post_init__(self):
        p = np.asarray(self.posteriors, dtype=np.float64)
        object.__setattr__(self, "posteriors", p)
        if len(p) != self.grid.n_frames:
            raise DataError("posterior count does not match frame grid")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise DataError("posteriors must be finite and lie in [0, 1]")

    def binarize(self) -> "LabelTrack":
        labels = (self.posteriors >= 0.5).astype(np.int8)
        return LabelTrack(labels=labels, grid=self.grid)


@dataclass(frozen=True)
class LabelTrack:
    """Binary per-frame labels; 1 = vocal."""

    labels: np.ndarray
    grid: FrameGrid

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "labels", lab)
        if len(lab) != self.grid.n_frames:
            raise DataError("label count does not match frame grid")
        if lab.size and not np.all((lab == 0) | (lab == 1)):
            raise DataError("labels must be 0 or 1")
