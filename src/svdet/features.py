"""Per-frame acoustic features: MFCC, LPCC, PLP, and block packing.

extract_features squares a spectrogram's complex bins (audio.stft)
once; every extractor takes that power spectrum and returns a
FeatureMatrix with one row per frame, computed for all frames at once.
Combinations follow the feature set tags in FEATURE_SETS; fit_norm_stats
and apply_norm min-max scale the columns with statistics fit on
training data. blockify views every frame's centered block; prediction
uses them all, training every train_stride-th block that lies inside
one clip, picked by its center frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .audio import N_FFT, SAMPLE_RATE, chunk_map, side_buffers
from .errors import DataError

LOG_FLOOR = 1e-10

# the paper's cepstra: MFCC from N_MELS bands, LPCC and PLP of order LPC_ORDER
N_MELS = 26
LPC_ORDER = 12
N_CEPSTRA = 13

# tag -> ordered list of base extractors
FEATURE_SETS = {
    "mfcc": ("mfcc",),
    "lpcc": ("lpcc",),
    "plp": ("plp",),
    "mfcc_plp": ("mfcc", "plp"),
    "lpcc_plp": ("lpcc", "plp"),
    "lpcc_mfcc": ("lpcc", "mfcc"),
    "lpcc_mfcc_plp": ("lpcc", "mfcc", "plp"),
}


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature vectors, one row per frame."""

    values: np.ndarray  # (n_frames, dim)
    feature_tag: str
    degenerate_frames: tuple = ()  # frames zeroed for singular autocorrelation

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-D matrix")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature values must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-column min/max learned on training data."""

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self):
        if np.any(self.col_min > self.col_max):
            raise DataError("NormStats requires min <= max per column")


def fit_norm_stats(mats) -> NormStats:
    """Per-column min/max over the rows of all given feature matrices."""
    stacked = np.concatenate([m.values for m in mats], axis=0)
    return NormStats(col_min=stacked.min(axis=0), col_max=stacked.max(axis=0))


def apply_norm(feat: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Min-max scale each column; constant columns map to 0.

    Rows outside the fitted range leave [0, 1] and are not clipped.
    """
    if len(stats.col_min) != feat.dim:
        raise DataError(f"normalization statistics are for {len(stats.col_min)} "
                        f"feature columns, the features have {feat.dim}")
    span = stats.col_max - stats.col_min
    scaled = np.zeros_like(feat.values)
    nz = span > 0
    scaled[:, nz] = (feat.values[:, nz] - stats.col_min[nz]) / span[nz]
    return FeatureMatrix(values=scaled, feature_tag=feat.feature_tag)


# ---------------------------------------------------------------------------
# MFCC

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """N_MELS triangular mel filters over the rfft bins, 0 Hz to Nyquist."""
    nyq = SAMPLE_RATE / 2.0
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(nyq), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    fb = np.zeros((N_MELS, len(freqs)))
    for m in range(N_MELS):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / (ctr - lo)
        down = (hi - freqs) / (hi - ctr)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def cepstra_from_log_energies(log_e: np.ndarray, n_coeffs: int) -> np.ndarray:
    """DCT-II decorrelation, dropping the 0-th (energy) coefficient."""
    cep = dct(log_e, type=2, norm="ortho", axis=1)
    return cep[:, 1 : n_coeffs + 1]


def mfcc(power: np.ndarray) -> FeatureMatrix:
    """Mel filterbank energies -> log -> DCT-II, keeping coefficients
    1..N_CEPSTRA of N_MELS; the 0-th (energy) coefficient is dropped."""
    energies = power @ MEL_FB.T
    log_e = np.log(np.maximum(energies, LOG_FLOOR))
    return FeatureMatrix(values=cepstra_from_log_energies(log_e, N_CEPSTRA),
                         feature_tag="mfcc")


# ---------------------------------------------------------------------------
# LPC / LPCC

def levinson_durbin(r: np.ndarray, order: int):
    """Solve the Toeplitz normal equations for LPC coefficients.

    Returns (a, err, ok), predictor x[n] ~ sum_k a[..., k-1] x[n-k], for a
    1-D r or for all rows of a 2-D r at once. A row with r[0] <= 0 or an
    error <= 0 before some step is degenerate: zeros with ok=False.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] < order + 1:
        raise DataError("autocorrelation too short for requested order")
    rows = np.atleast_2d(r)
    a = np.zeros((len(rows), order))
    err = rows[:, 0].copy()
    ok = err > 0.0
    for i in range(1, order + 1):
        ok &= err > 0.0
        prev = a[:, : i - 1]
        # one dot product per row, as for a single row, so a row's result
        # does not depend on the rows solved with it
        lagged = np.ascontiguousarray(rows[:, i - 1 : 0 : -1])
        acc = rows[:, i] - np.matmul(prev[:, None], lagged[:, :, None])[:, 0, 0]
        k = np.divide(acc, err, out=np.zeros_like(acc), where=ok)
        a[:, : i - 1] = prev - k[:, None] * prev[:, ::-1]
        a[:, i - 1] = k
        err *= 1.0 - k * k
    a[~ok] = 0.0
    err[~ok] = 0.0
    if r.ndim == 1:
        return a[0], float(err[0]), bool(ok[0])
    return a, err, ok


def lpc_to_cepstrum(a: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Cepstral recursion c_n = a_n + sum_{k<n} (k/n) c_k a_{n-k}, for one
    predictor (1-D a) or for all rows of a 2-D a at once."""
    a = np.asarray(a, dtype=np.float64)
    rows = np.atleast_2d(a)
    order = rows.shape[1]
    c = np.zeros((len(rows), n_coeffs))
    c[:, :order] = rows[:, :n_coeffs]
    for n in range(2, n_coeffs + 1):
        for k in range(max(1, n - order), n):
            c[:, n - 1] += (k / n) * c[:, k - 1] * rows[:, n - k - 1]
    return c[0] if a.ndim == 1 else c


def _lpc_cepstra(r: np.ndarray, order: int, n_coeffs: int):
    """Cepstra of all autocorrelation rows; degenerate rows are zero."""
    a, _, ok = levinson_durbin(r, order)
    return lpc_to_cepstrum(a, n_coeffs), tuple(int(t) for t in np.flatnonzero(~ok))


def autocorr_from_spectrogram(power: np.ndarray) -> np.ndarray:
    """Lags 0..LPC_ORDER of each windowed frame's autocorrelation.

    Inverse-transforms the power spectrum a chunk of frames at a time.
    """
    r = np.empty((len(power), LPC_ORDER + 1))
    # each chunk as the real part of complex rows: irfft reads it uncast
    spectra = side_buffers(len(power), (power.shape[1],), np.complex128)
    lags = side_buffers(len(power), (N_FFT,))

    def transform(rows, side):
        c = rows.stop - rows.start
        spectra[side, :c].real = power[rows]
        np.fft.irfft(spectra[side, :c], n=N_FFT, axis=1, out=lags[side, :c])
        r[rows] = lags[side, :c, : LPC_ORDER + 1]

    chunk_map(transform, len(power))
    return r


def lpcc(power: np.ndarray) -> FeatureMatrix:
    """Linear-prediction cepstra per frame, solved for all frames at once.

    The autocorrelation comes from the power spectrum. All-zero frames
    produce all-zero coefficients rather than an error.
    """
    r = autocorr_from_spectrogram(power)
    values, degenerate = _lpc_cepstra(r, LPC_ORDER, N_CEPSTRA)
    return FeatureMatrix(values=values, feature_tag="lpcc",
                         degenerate_frames=degenerate)


# ---------------------------------------------------------------------------
# PLP

def hz_to_bark(f):
    f = np.asarray(f, dtype=np.float64)
    return 6.0 * np.arcsinh(f / 600.0)


def bark_to_hz(z):
    return 600.0 * np.sinh(np.asarray(z, dtype=np.float64) / 6.0)


def bark_filterbank():
    """Critical-band masking curves at ~1 Bark spacing over the rfft bins.

    Returns (weights (n_bands, n_bins), center frequencies in Hz).
    """
    freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    z = hz_to_bark(freqs)
    z_max = hz_to_bark(SAMPLE_RATE / 2.0)
    n_bands = int(np.ceil(z_max)) + 1
    centers_z = np.linspace(0.0, z_max, n_bands)
    # flat top one Bark wide, 25 dB/Bark lower skirt, 10 dB/Bark upper skirt
    d = z[None, :] - centers_z[:, None]
    lo = -2.5 * (d - 0.5)
    hi = d + 0.5
    w = 10.0 ** np.minimum(0.0, np.minimum(hi, lo))
    return w, bark_to_hz(centers_z)


def equal_loudness(f):
    """Hermansky's equal-loudness curve approximation."""
    f = np.asarray(f, dtype=np.float64)
    fsq = f ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * ((fsq + 1.44e6) / (fsq + 9.61e6))


# fixed by the front end, like audio.WINDOW: built once, read-only
MEL_FB = mel_filterbank()
BARK_FB, _centers_hz = bark_filterbank()
BARK_LOUDNESS = equal_loudness(_centers_hz)
MEL_FB.flags.writeable = BARK_FB.flags.writeable = False
BARK_LOUDNESS.flags.writeable = False


def plp(power: np.ndarray) -> FeatureMatrix:
    """Perceptual linear prediction cepstra per frame.

    Bark-band integration -> equal-loudness weighting -> cube-root
    compression -> inverse DFT to autocorrelation -> LPC -> cepstra.
    """
    bands = np.maximum(power @ BARK_FB.T, LOG_FLOOR)
    bands = bands * BARK_LOUDNESS
    bands = bands ** (1.0 / 3.0)
    # duplicate edge bands to flatten the spectrum ends before the IDFT
    bands[:, 0] = bands[:, 1]
    bands[:, -1] = bands[:, -2]
    # IDFT of the even extension of the bands
    r = np.fft.irfft(bands, n=2 * (bands.shape[1] - 1), axis=1)[:, : LPC_ORDER + 1]
    values, degenerate = _lpc_cepstra(r, LPC_ORDER, N_CEPSTRA)
    return FeatureMatrix(values=values, feature_tag="plp",
                         degenerate_frames=degenerate)


# ---------------------------------------------------------------------------
# Combination, blocking

def extract_features(bins: np.ndarray, tag: str) -> list[FeatureMatrix]:
    """Feature matrices of a tag, in tag order, from one power spectrum."""
    if tag not in FEATURE_SETS:
        raise DataError(f"unknown feature set {tag!r}")
    if len(bins) == 0:
        raise DataError("empty spectrogram")
    power = np.abs(bins)
    power **= 2
    extractors = {"mfcc": mfcc, "lpcc": lpcc, "plp": plp}
    return [extractors[name](power) for name in FEATURE_SETS[tag]]


def blockify(values: np.ndarray, block_len: int) -> np.ndarray:
    """Every frame's block, as one (n_frames, block_len, dim) window view.

    The matrix is edge-replicated so that block i is centered on frame i
    (at position block_len // 2); training picks its blocks by center
    frame. Consecutive blocks share memory: the view has equal strides
    on its first two axes.
    """
    if len(values) == 0:
        raise DataError("empty feature matrix")
    values = np.pad(values, ((block_len // 2, (block_len - 1) // 2), (0, 0)),
                    mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(values, block_len, axis=0)
    return windows.transpose(0, 2, 1)


def features_to_csv(path, feat: FeatureMatrix) -> None:
    """One frame per row; header carries the feature tag."""
    header = ",".join(f"{feat.feature_tag}_{i}" for i in range(feat.dim))
    np.savetxt(path, feat.values, delimiter=",", header=header, comments="")
