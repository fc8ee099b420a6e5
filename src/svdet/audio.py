"""Audio loading, framing, and short-time transforms.

The front end is fixed: SAMPLE_RATE audio in frames of FRAME_LEN
samples every HOP samples, frame i covering samples [i*HOP, i*HOP +
FRAME_LEN). A clip is its samples, a spectrogram is its complex bins
array and a frame count is the length of an array; none carries the
layout. All operations are pure and the clip container is frozen; a
clip can be shared freely between threads or worker processes.
"""

from __future__ import annotations

import os
import wave
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DataError

INT16_SCALE = 32768.0

# the paper's fixed front end; a checkpoint's front_end records it
SAMPLE_RATE = 16000
FRAME_MS = 40.0
HOP_MS = 20.0
N_FFT = 1024

# the same frame layout in samples: 640 and 320
FRAME_LEN = int(round(SAMPLE_RATE * FRAME_MS / 1000.0))
HOP = int(round(SAMPLE_RATE * HOP_MS / 1000.0))

# periodic Hamming: constant overlap-add at a hop of half the frame. The
# arithmetic of scipy's general_cosine over FRAME_LEN + 1 points, last
# point dropped, so it equals scipy.signal.get_window("hamming",
# FRAME_LEN) bit for bit without importing scipy.signal
_FAC = np.linspace(-np.pi, np.pi, FRAME_LEN + 1)
WINDOW = (0.54 * np.cos(0 * _FAC) + (1 - 0.54) * np.cos(_FAC))[:-1]
del _FAC
WINDOW.flags.writeable = False

# Rows of a full-spectrogram intermediate built at a time. stft, istft,
# the features' front end, the beat spectrum and the REPET mask work a
# chunk of frames or bins at a time, so their temporaries are this many
# rows long whatever the clip length. Separation's outputs are the same
# for any chunk size; the last bits of the beat spectrum's sum and of
# the features' BLAS products, whose kernel follows the rows, are not.
CHUNK_ROWS = 32


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The one thread that runs the second half of a chunk_map's chunks; None
# where the process may use a single CPU, and in a forked child, which
# holds the executor but not its thread.
_POOL = ThreadPoolExecutor(1, "svdet-chunks") if _usable_cpus() > 1 else None


def _drop_pool():
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):  # every platform that can fork
    os.register_at_fork(after_in_child=_drop_pool)


@dataclass(frozen=True)
class AudioClip:
    """Mono SAMPLE_RATE sample buffer in [-1, 1]."""

    samples: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise DataError("AudioClip samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DataError("AudioClip samples must be finite")


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file with 16-bit PCM samples.

    Stereo is downmixed by channel mean and samples are scaled by
    1/32768. A file at another rate than SAMPLE_RATE is resampled by an
    anti-aliased polyphase filter.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataError(f"unsupported encoding: {str(exc) or 'truncated file'}") from exc
    if sampwidth != 2:
        raise DataError(f"unsupported encoding: {8 * sampwidth}-bit PCM (need 16-bit)")
    if n_channels not in (1, 2):
        raise DataError(f"unsupported channel count {n_channels}")
    if rate <= 0:
        raise DataError(f"unsupported sample rate {rate}")
    if len(raw) % (n_channels * sampwidth):  # data ends inside a frame
        raise DataError("unsupported encoding: truncated file")
    # the float64 sum of 16-bit channels and the power-of-two scale are
    # exact: the float channel mean's samples, without a copy of each channel
    data = np.frombuffer(raw, dtype="<i2").reshape(-1, n_channels).sum(
        axis=1, dtype=np.float64)
    del raw  # the PCM bytes are not held through the resampler
    data *= 1.0 / (INT16_SCALE * n_channels)
    if rate != SAMPLE_RATE:
        # imported here: scipy.signal loads ten scipy subpackages, and
        # 16 kHz input never needs them
        import scipy.signal

        g = np.gcd(rate, SAMPLE_RATE)
        data = scipy.signal.resample_poly(data, SAMPLE_RATE // g, rate // g)
    return AudioClip(samples=data, source_id=str(path))


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as mono 16-bit PCM WAV at SAMPLE_RATE."""
    pcm = np.clip(np.round(clip.samples * INT16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def row_chunks(n_rows: int, size: int | None = None):
    """Consecutive slices of at most size (CHUNK_ROWS) rows over n_rows."""
    size = size or CHUNK_ROWS
    return [slice(start, min(start + size, n_rows))
            for start in range(0, n_rows, size)]


def chunk_map(fn, n_rows: int, *workspaces) -> None:
    """fn(rows, side, *views) for rows in row_chunks(n_rows), two chunks
    at a time.

    The caller's thread runs the first half of the chunks (the middle one
    too, for an odd count) as side 0 and the pool thread the second half
    as side 1; without a pool the caller runs both halves. So a side
    always runs the same chunks, in order. Each workspace is a (row
    shape, dtype) pair, for which chunk_map makes each side one zeroed
    array of the largest chunk's row count; views are the first
    len(rows) rows of the running side's arrays, so no side allocates a
    chunk-sized temporary. fn writes only into its views and into rows
    of its caller's arrays that no other chunk writes; its return value
    is dropped. fn calls no BLAS, no function the benchmark traces and
    not chunk_map. An exception from either side is raised once both
    sides have stopped.
    """
    chunks = row_chunks(n_rows)
    half = (len(chunks) + 1) // 2
    first_half, second_half = chunks[:half], chunks[half:]
    spaces = [np.zeros((2, min(n_rows, CHUNK_ROWS), *shape), dtype)
              for shape, dtype in workspaces]

    def run(part, side):
        for rows in part:
            n = rows.stop - rows.start
            fn(rows, side, *(space[side, :n] for space in spaces))

    pool = _POOL
    if pool is None or not second_half:
        run(first_half, 0)
        run(second_half, 1)
        return
    second = pool.submit(run, second_half, 1)
    try:
        run(first_half, 0)
    finally:  # the pool side writes into the caller's arrays until it stops
        wait([second])
    second.result()


def frame_count(n_samples: int) -> int:
    """Frames over n_samples; the trailing remainder is dropped."""
    if n_samples < FRAME_LEN:
        raise DataError(f"span of {n_samples} samples is shorter than one frame "
                        f"({FRAME_LEN})")
    return (n_samples - FRAME_LEN) // HOP + 1


def frame_signal(clip: AudioClip) -> int:
    """The clip's frame count (see frame_count)."""
    return frame_count(len(clip.samples))


def frame_times(n_frames: int) -> np.ndarray:
    """Center time (seconds) of each of n_frames frames."""
    starts = np.arange(n_frames) * HOP
    return (starts + FRAME_LEN / 2.0) / SAMPLE_RATE


def frame_matrix(clip: AudioClip) -> np.ndarray:
    """The clip's frames as a read-only (n_frames, FRAME_LEN) view."""
    n_frames = frame_signal(clip)
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, FRAME_LEN)
    return windows[::HOP][:n_frames]


def stft(clip: AudioClip) -> np.ndarray:
    """Hamming-windowed FFT per frame, zero-padded to N_FFT.

    Returns the complex (n_frames, N_FFT // 2 + 1) positive-frequency bins.
    """
    frames = frame_matrix(clip)
    bins = np.empty((len(frames), N_FFT // 2 + 1), dtype=np.complex128)

    def transform(rows, side, windowed):
        x = np.multiply(frames[rows], WINDOW, out=windowed)
        np.fft.rfft(x, n=N_FFT, axis=1, out=bins[rows])

    chunk_map(transform, len(frames), ((FRAME_LEN,), np.float64))
    return bins


def istft(bins: np.ndarray) -> AudioClip:
    """Windowed overlap-add inverse, normalized by the summed squared window."""
    # HOP is half of FRAME_LEN: piece 0 of frame i lands on output row i
    # and piece 1 on row i + 1, so row i sums 0 + piece 1 of frame i - 1
    # + piece 0 of frame i. A chunk's first row may take its piece 1 from
    # the other side, so each chunk keeps its first frame's piece 0 in
    # starts, added once both sides have stopped: no row is written by
    # both sides, and every row adds piece 1 before piece 0.
    n_frames = len(bins)
    num = np.zeros((n_frames + 1, HOP))
    starts = np.empty((len(row_chunks(n_frames)), HOP))

    def overlap_add(rows, side, frames):
        x = np.fft.irfft(bins[rows], n=N_FFT, axis=1, out=frames)
        pieces = np.multiply(x[:, :FRAME_LEN], WINDOW,
                             out=x[:, :FRAME_LEN]).reshape(-1, 2, HOP)
        num[rows.start + 1 : rows.stop + 1] += pieces[:, 1]
        starts[rows.start // CHUNK_ROWS] = pieces[0, 0]
        num[rows.start + 1 : rows.stop] += pieces[1:, 0]

    chunk_map(overlap_add, n_frames, ((N_FFT,), np.float64))
    num[:n_frames:CHUNK_ROWS] += starts
    # the squared window summed over the frames that cover each row: the
    # first, the interior and the last; each entry >= WINDOW[0] ** 2 > 0
    wsq = (WINDOW ** 2).reshape(2, HOP)
    num[0] /= wsq[0]
    num[1:-1] /= wsq[1] + wsq[0]
    num[-1] /= wsq[1]
    return AudioClip(samples=num.ravel())
