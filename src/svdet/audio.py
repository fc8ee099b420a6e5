"""Audio loading, framing, and short-time transforms.

All operations are pure and the containers are frozen; a clip can be
shared freely between threads or worker processes.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import DataError

INT16_SCALE = 32768.0

# the paper's fixed front end; a checkpoint's front_end records it
SAMPLE_RATE = 16000
FRAME_MS = 40.0
HOP_MS = 20.0
N_FFT = 1024

# Rows of a full-spectrogram intermediate built at a time. stft, istft,
# the LPC autocorrelation and the beat spectrum fill one preallocated
# result chunk by chunk, so their temporaries are this many rows long
# whatever the clip length. FFT rows do not depend on the rows computed
# with them, so every value is the same for any chunk size.
CHUNK_ROWS = 32


@dataclass(frozen=True)
class AudioClip:
    """Mono sample buffer in [-1, 1] with its sample rate."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise DataError("sample_rate must be positive")
        if samples.ndim != 1:
            raise DataError("AudioClip samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DataError("AudioClip samples must be finite")


@dataclass(frozen=True)
class FrameGrid:
    """Frame layout: frame i covers samples [i*hop, i*hop + frame_len)."""

    frame_len: int
    hop: int
    n_frames: int
    sample_rate: int

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len):
            raise DataError("need 0 < hop <= frame_len")

    def frame_times(self) -> np.ndarray:
        """Center time (seconds) of each frame."""
        starts = np.arange(self.n_frames) * self.hop
        return (starts + self.frame_len / 2.0) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Positive-frequency STFT bins, one row per frame."""

    bins: np.ndarray  # complex, (n_frames, n_fft // 2 + 1)
    grid: FrameGrid
    n_fft: int

    def __post_init__(self):
        if self.bins.shape != (self.grid.n_frames, self.n_fft // 2 + 1):
            raise DataError("spectrogram shape inconsistent with grid/n_fft")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)

    def power(self) -> np.ndarray:
        return np.abs(self.bins) ** 2


def load_wav(path, target_rate: int | None = None) -> AudioClip:
    """Read a RIFF/WAVE file with 16-bit PCM samples.

    Stereo is downmixed by channel mean and samples are scaled by
    1/32768. If target_rate is given and differs from the file rate,
    the signal is resampled by an anti-aliased polyphase filter.
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
    if len(raw) % (n_channels * sampwidth):  # data ends inside a frame
        raise DataError("unsupported encoding: truncated file")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_SCALE
    if n_channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    if target_rate is not None and target_rate != rate and rate > 0:
        g = np.gcd(rate, target_rate)
        data = scipy.signal.resample_poly(data, target_rate // g, rate // g)
        rate = target_rate
    return AudioClip(samples=data, sample_rate=rate, source_id=str(path))


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as mono 16-bit PCM WAV."""
    pcm = np.clip(np.round(clip.samples * INT16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(clip.sample_rate)
        wf.writeframes(pcm.tobytes())


def row_chunks(n_rows: int):
    """Consecutive slices of at most CHUNK_ROWS rows covering n_rows."""
    return [slice(start, min(start + CHUNK_ROWS, n_rows))
            for start in range(0, n_rows, CHUNK_ROWS)]


def frame_grid(n_samples: int, sample_rate: int, frame_ms: float,
               hop_ms: float) -> FrameGrid:
    """Overlapping frames over n_samples; the trailing remainder is dropped."""
    frame_len = int(round(sample_rate * frame_ms / 1000.0))
    hop = int(round(sample_rate * hop_ms / 1000.0))
    if n_samples < frame_len:
        raise DataError(f"span of {n_samples} samples is shorter than one frame "
                        f"({frame_len})")
    # a hop below one sample is left to FrameGrid to reject
    n_frames = (n_samples - frame_len) // max(hop, 1) + 1
    return FrameGrid(frame_len=frame_len, hop=hop, n_frames=n_frames,
                     sample_rate=sample_rate)


def frame_signal(clip: AudioClip) -> FrameGrid:
    """The clip's grid of FRAME_MS frames every HOP_MS (see frame_grid)."""
    return frame_grid(len(clip.samples), clip.sample_rate, FRAME_MS, HOP_MS)


def frame_matrix(clip: AudioClip, grid: FrameGrid) -> np.ndarray:
    """The grid's frames as a read-only (n_frames, frame_len) view."""
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, grid.frame_len)
    return windows[:: grid.hop][: grid.n_frames]


def _window(grid: FrameGrid) -> np.ndarray:
    # periodic Hamming: satisfies constant-overlap-add at 50% overlap
    return scipy.signal.get_window("hamming", grid.frame_len, fftbins=True)


def stft(clip: AudioClip, grid: FrameGrid, n_fft: int = N_FFT) -> Spectrogram:
    """Hamming-windowed FFT per frame, zero-padded to n_fft."""
    if n_fft < grid.frame_len:
        raise DataError(f"n_fft {n_fft} smaller than frame length {grid.frame_len}")
    if n_fft & (n_fft - 1):
        raise DataError(f"n_fft {n_fft} is not a power of two")
    frames = frame_matrix(clip, grid)
    win = _window(grid)
    bins = np.empty((grid.n_frames, n_fft // 2 + 1), dtype=np.complex128)
    for rows in row_chunks(grid.n_frames):
        bins[rows] = np.fft.rfft(frames[rows] * win, n=n_fft, axis=1)
    return Spectrogram(bins=bins, grid=grid, n_fft=n_fft)


def istft(spec: Spectrogram) -> AudioClip:
    """Windowed overlap-add inverse, normalized by the summed squared window."""
    grid = spec.grid
    win = _window(grid)
    if not scipy.signal.check_COLA(win, grid.frame_len, grid.frame_len - grid.hop,
                                   tol=1e-6):
        raise DataError(
            f"hop {grid.hop} violates constant overlap-add for the window"
        )
    # Hamming is COLA only for hops dividing the frame: piece c of frame i
    # lands on output piece i + c. Frames are added in frame order, a
    # chunk of frames at a time, each chunk with the largest c first.
    m = grid.frame_len // grid.hop
    wsq = (win ** 2).reshape(m, grid.hop)
    num = np.zeros((grid.n_frames + m - 1, grid.hop))
    den = np.zeros_like(num)
    for rows in row_chunks(grid.n_frames):
        frames = np.fft.irfft(spec.bins[rows], n=spec.n_fft, axis=1)
        pieces = (frames[:, : grid.frame_len] * win).reshape(-1, m, grid.hop)
        for c in range(m - 1, -1, -1):
            num[rows.start + c : rows.stop + c] += pieces[:, c]
    for c in range(m - 1, -1, -1):
        den[c : c + grid.n_frames] += wsq[c]
    covered = den > 1e-12
    np.divide(num, den, out=num, where=covered)
    num[~covered] = 0.0
    return AudioClip(samples=num.ravel(), sample_rate=grid.sample_rate)
