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

from .audio import (HOP, SAMPLE_RATE, AudioClip, chunk_map, frame_signal,
                    istft, row_chunks, stft)
from .errors import ClipTooShortError, DataError

MASK_EPS = 1e-10
# a beat-spectrum lag whose normalization is at most this share of its
# bin's total energy correlates 0
NORM_FLOOR = 1e-12

# the REPET period search range, 0.8 s to 8 s, in frames: 40 to 400
MIN_PERIOD = round(0.8 * SAMPLE_RATE / HOP)
MAX_PERIOD = round(8.0 * SAMPLE_RATE / HOP)


def beat_spectrum(spec: np.ndarray) -> np.ndarray:
    """Normalized per-row autocorrelation over time, averaged across rows.

    spec is the (n_frames, n_bins) complex STFT or its magnitude; lags
    run over the frame axis, and a chunk of bins' magnitudes is formed at
    a time. Returns the (n_frames,) lag-domain self-similarity, lags
    0..n_frames - 1. Each lag is normalized by the energies of the two
    windows it correlates, which keeps every value in [-1, 1] with lag 0
    at the global maximum; a lag whose normalization is at most
    NORM_FLOOR times its bin's energy reads 0.
    """
    n_frames, n_bins = spec.shape
    if n_frames < 2:
        raise DataError("beat spectrum needs at least two frames")
    n = 1
    while n < 2 * n_frames:
        n *= 2
    # each bin is a row, autocorrelated by FFT a chunk of bins at a time;
    # each side sums its own normalized rows
    totals = np.zeros((2, n_frames))

    def autocorrelate(rows, side, mags, spectra, powers, norm, positive):
        x = np.abs(spec[:, rows].T, out=mags)
        ft = np.fft.rfft(x, n=n, axis=1, out=spectra)
        # |ft|^2 as the real part of a complex row: irfft reads it uncast
        power = powers.real
        np.square(np.abs(ft, out=power), out=power)
        # the linear autocorrelation, in the spectra's (now free) memory
        acc = np.fft.irfft(powers, n=n, axis=1,
                           out=ft.view(np.float64)[:, :n])[:, :n_frames]
        cum = np.cumsum(np.square(x, out=x), axis=1, out=x)
        # norm[:, l] = sqrt(energy of x[l : T] * energy of x[0 : T-l])
        norm[:, 0] = cum[:, -1]
        np.subtract(cum[:, -1:], cum[:, :-1], out=norm[:, 1:])
        norm *= cum[:, ::-1]
        np.sqrt(np.maximum(norm, 0.0, out=norm), out=norm)
        # near-silent windows: rounding noise over a tiny norm is no signal
        mask = np.greater(norm, NORM_FLOOR * cum[:, -1:], out=positive)
        np.divide(acc, norm, out=norm, where=mask)
        np.copyto(norm, 0.0, where=np.logical_not(mask, out=mask))
        totals[side] += norm.sum(axis=0)

    by_frame = ((n_frames,), np.float64)
    spectrum = ((n // 2 + 1,), np.complex128)
    chunk_map(autocorrelate, n_bins, by_frame, spectrum, spectrum, by_frame,
              ((n_frames,), bool))
    # the mean over bins; per row lag l <= lag 0 by Cauchy-Schwarz, so
    # lag 0 stays the maximum
    return (totals[0] + totals[1]) / n_bins


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
        # ndarray.mean's arithmetic without its Python wrapper
        mult = bs[p :: p]
        score = np.add.reduce(mult) / len(mult)
        if score > best_score + 1e-12:
            best_lag, best_score = p, score
    return best_lag


def _median_last(stack: np.ndarray, out: np.ndarray) -> None:
    """out = np.median(stack, axis=-1), bitwise, for a stack without NaNs,
    which is partitioned in place.

    One partition puts the middle value at index k // 2 and smaller ones
    before it; for an even count the lower middle value is their
    maximum, and the two are averaged as np.median's mean does.
    """
    k = stack.shape[-1]
    half = k // 2
    stack.partition(half)
    if k % 2:
        out[...] = stack[..., half]
        return
    np.copyto(out, stack[..., 0])
    for j in range(1, half):
        np.maximum(out, stack[..., j], out=out)
    out += stack[..., half]
    out /= 2


def repet_mask(mag: np.ndarray, period: int) -> np.ndarray:
    """Accompaniment soft mask from the median repeating model.

    The repeating model U is the per-bin median over all frames at the
    same offset within the period (trailing partial periods use the
    segments available). W = min(U, mag); the mask is W / (mag + eps)
    clipped to [0, 1], same shape as mag. The vocal mask is one minus it.
    """
    if period < 1:
        raise DataError("period must be >= 1")
    n_frames, n_bins = mag.shape
    q, r = divmod(n_frames, period)
    if q:
        reps = mag[: q * period].reshape(q, period, n_bins)
        # each offset's frames along the last axis of an (offsets, bins,
        # segments) copy, which the median partitions in place; offsets
        # below r also see the trailing partial period
        model = np.empty((period, n_bins))
        low = np.empty((r, n_bins, q + 1))
        low[..., :q] = reps[:, :r].transpose(1, 2, 0)
        low[..., q] = mag[q * period :]
        _median_last(low, model[:r])
        _median_last(reps[:, r:].transpose(1, 2, 0).copy(), model[r:])
        # C order, so the reshape below is a view whatever mag's layout
        weights = np.empty(mag.shape)
        weights[: q * period].reshape(reps.shape)[:] = model
        weights[q * period :] = model[:r]
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
    period = estimate_period(beat_spectrum(bins),
                             (MIN_PERIOD, min(MAX_PERIOD, n_frames // 3)))
    # the medians are per bin: the mixture turns vocal a chunk at a time
    for rows in row_chunks(bins.shape[1]):
        chunk = bins[:, rows]
        weights = repet_mask(np.abs(chunk), period)
        np.subtract(1.0, weights, out=weights)
        chunk *= weights
    del chunk, weights  # chunk is a view: it would keep bins alive
    voc_clip = istft(bins)
    del bins
    vocal = np.zeros(len(clip.samples))
    vocal[: len(voc_clip.samples)] = voc_clip.samples
    return AudioClip(samples=vocal, source_id=clip.source_id)
