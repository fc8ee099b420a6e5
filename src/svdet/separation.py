"""Repeating-pattern separation of vocal and accompaniment.

The accompaniment is modelled as the element-wise median of the
magnitude spectrogram over repetitions of its repeating period; the
residual (non-repeating) energy is routed to the vocal estimate via a
complementary soft mask applied with the mixture phase. The
accompaniment estimate, where one is wanted, is the mixture minus the
vocal estimate.
"""

from __future__ import annotations

import numpy as np

from .audio import (HOP, SAMPLE_RATE, AudioClip, frame_signal, istft,
                    row_chunks, stft)
from .errors import ClipTooShortError, DataError

MASK_EPS = 1e-10

# the REPET period search range, 0.8 s to 8 s, in frames: 40 to 400
MIN_PERIOD = round(0.8 * SAMPLE_RATE / HOP)
MAX_PERIOD = round(8.0 * SAMPLE_RATE / HOP)


def beat_spectrum(mag: np.ndarray) -> np.ndarray:
    """Normalized per-row autocorrelation over time, averaged across rows.

    mag is (n_frames, n_bins); lags run over the frame axis. Returns the
    (n_frames,) lag-domain self-similarity, lags 0..n_frames - 1. Each
    lag is normalized by the energies of the two windows it correlates,
    which keeps every value in [-1, 1] with lag 0 at the global maximum.
    """
    n_frames = mag.shape[0]
    if n_frames < 2:
        raise DataError("beat spectrum needs at least two frames")
    n = 1
    while n < 2 * n_frames:
        n *= 2
    # one chunk of frequency bins at a time, each bin a row
    total = np.zeros(n_frames)
    for rows in row_chunks(mag.shape[1]):
        x = np.ascontiguousarray(mag[:, rows].T)
        # FFT-based linear autocorrelation of every row
        spec = np.fft.rfft(x, n=n, axis=1)
        acc = np.fft.irfft(np.abs(spec) ** 2, n=n, axis=1)[:, :n_frames]
        cum = np.cumsum(x ** 2, axis=1)
        # norm[:, l] = sqrt(energy of x[l : T] * energy of x[0 : T-l])
        norm = np.empty_like(acc)
        norm[:, 0] = cum[:, -1]
        np.subtract(cum[:, -1:], cum[:, :-1], out=norm[:, 1:])
        norm *= cum[:, ::-1]
        np.sqrt(np.maximum(norm, 0.0, out=norm), out=norm)
        # a lag whose window holds no energy correlates 0
        acc = np.divide(acc, norm, out=np.zeros_like(acc), where=norm > 0.0)
        for row in acc:  # in bin order: the bits of a mean over all rows
            total += row
    # per row lag l <= lag 0 by Cauchy-Schwarz, so lag 0 stays the maximum
    return total / mag.shape[1]


def estimate_period(bs: np.ndarray, search_range: tuple[int, int]) -> int:
    """Lag whose integer multiples carry the most beat-spectrum mass.

    bs is a beat_spectrum; its last index is the max lag. Scores are
    means over the multiples within [1, max lag]; ties break toward the
    smaller lag.
    """
    max_lag = len(bs) - 1
    lo, hi = search_range
    lo = max(lo, 1)
    hi = min(hi, max_lag)
    if lo > hi:
        raise DataError(f"empty period search range [{search_range[0]}, "
                        f"{search_range[1]}] for max lag {max_lag}")
    best_lag, best_score = lo, -np.inf
    for p in range(lo, hi + 1):
        mult = bs[p :: p]
        score = mult.mean()
        if score > best_score + 1e-12:
            best_lag, best_score = p, score
    return best_lag


def repet_mask(mag: np.ndarray, period: int) -> np.ndarray:
    """Accompaniment soft mask from the median repeating model.

    The repeating model U is the per-bin median over all frames at the
    same offset within the period (trailing partial periods use the
    segments available). W = min(U, mag); the mask is W / (mag + eps)
    clipped to [0, 1], same shape as mag. The vocal mask is one minus it.
    """
    if period < 1:
        raise DataError("period must be >= 1")
    q, r = divmod(mag.shape[0], period)
    if q:
        reps = mag[: q * period].reshape(q, period, -1)
        # offsets below r also see the trailing partial period; their
        # stack is a copy, so its median may partition it in place
        low = np.median(np.concatenate([reps[:, :r], mag[None, q * period :]]),
                        axis=0, overwrite_input=True)
        per_offset = np.concatenate([low, np.median(reps[:, r:], axis=0)])
        # C order, so the reshape below is a view whatever mag's layout
        weights = np.empty(mag.shape)
        weights[: q * period].reshape(reps.shape)[:] = per_offset
        weights[q * period :] = per_offset[:r]
        np.minimum(weights, mag, out=weights)
    else:  # period >= n_frames: each offset holds one frame
        weights = mag.copy()
    weights /= mag + MASK_EPS
    return np.clip(weights, 0.0, 1.0, out=weights)


def separate(clip: AudioClip) -> AudioClip:
    """The vocal estimate of a mixture, zero after the end of its last frame.

    The vocal mask (one minus the REPET mask) is applied with the
    mixture phase and inverted.
    """
    try:
        n_frames = frame_signal(clip)
    except DataError as exc:
        raise ClipTooShortError(f"clip too short to separate: {exc}") from exc
    if n_frames < 3 * MIN_PERIOD:
        raise ClipTooShortError(
            f"clip too short: {n_frames} frames < 3 periods of {MIN_PERIOD}"
        )
    bins = stft(clip)
    period = estimate_period(beat_spectrum(np.abs(bins)),
                             (MIN_PERIOD, min(MAX_PERIOD, n_frames // 3)))
    # the medians are per bin: the mixture turns vocal a chunk at a time
    for rows in row_chunks(bins.shape[1]):
        chunk = bins[:, rows]
        weights = repet_mask(np.abs(chunk), period)
        np.subtract(1.0, weights, out=weights)
        chunk *= weights
    voc_clip = istft(bins)
    del bins
    vocal = np.zeros(len(clip.samples))
    vocal[: len(voc_clip.samples)] = voc_clip.samples
    return AudioClip(samples=vocal, source_id=clip.source_id)
