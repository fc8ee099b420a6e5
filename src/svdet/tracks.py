"""Per-frame prediction and label tracks, one value per frame.

A track's frame count is its length; frame i covers the fixed front
end's frame i (audio.frame_times gives the centers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class PredictionTrack:
    """One posterior in [0, 1] per frame."""

    posteriors: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.posteriors, dtype=np.float64)
        object.__setattr__(self, "posteriors", p)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise DataError("posteriors must be finite and lie in [0, 1]")

    def binarize(self) -> "LabelTrack":
        return LabelTrack(labels=(self.posteriors >= 0.5).astype(np.int8))


@dataclass(frozen=True)
class LabelTrack:
    """Binary per-frame labels; 1 = vocal."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "labels", lab)
        if lab.size and not np.all((lab == 0) | (lab == 1)):
            raise DataError("labels must be 0 or 1")
