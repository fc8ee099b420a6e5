"""Chunked spectrogram intermediates: same values, bounded memory.

stft, istft, the LPC autocorrelation and the beat spectrum fill their
result CHUNK_ROWS rows at a time. The references below are the
whole-array versions they replaced; with the chunk size patched to a
few rows, chunk boundaries fall mid-array and the results must still be
bitwise equal. The memory tests trace numpy's buffers with tracemalloc,
which counts them deterministically.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.signal

from svdet import audio, cli, separation
from svdet.audio import (AudioClip, Spectrogram, frame_matrix, frame_signal,
                         istft, stft)
from svdet.features import autocorr_from_spectrogram, lpcc
from svdet.separation import (beat_spectrum, estimate_period,
                              period_search_range, repet_mask, separate)
from svdet.synth import repeating_loop, vibrato_voice

SR = 16000


def reference_stft(clip, grid, n_fft=1024):
    win = scipy.signal.get_window("hamming", grid.frame_len, fftbins=True)
    return np.fft.rfft(frame_matrix(clip, grid) * win, n=n_fft, axis=1)


def reference_istft(bins, grid, n_fft=1024):
    win = scipy.signal.get_window("hamming", grid.frame_len, fftbins=True)
    frames = np.fft.irfft(bins, n=n_fft, axis=1)[:, : grid.frame_len]
    frames *= win
    m = grid.frame_len // grid.hop
    chunks = frames.reshape(grid.n_frames, m, grid.hop)
    wsq = (win ** 2).reshape(m, grid.hop)
    num = np.zeros((grid.n_frames + m - 1, grid.hop))
    den = np.zeros_like(num)
    for c in range(m - 1, -1, -1):
        num[c : c + grid.n_frames] += chunks[:, c]
        den[c : c + grid.n_frames] += wsq[c]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 1e-12).ravel()


def reference_beat_spectrum(mag):
    n_frames = mag.shape[0]
    max_lag = n_frames - 1
    x = np.ascontiguousarray(mag.T)
    n = 1
    while n < 2 * n_frames:
        n *= 2
    spec = np.fft.rfft(x, n=n, axis=1)
    ac = np.fft.irfft(np.abs(spec) ** 2, n=n, axis=1)[:, : max_lag + 1]
    cum = np.cumsum(x ** 2, axis=1)
    norm = np.empty_like(ac)
    norm[:, 0] = cum[:, -1]
    np.subtract(cum[:, -1:], cum[:, :max_lag], out=norm[:, 1:])
    norm *= cum[:, n_frames - 1 - max_lag :][:, ::-1]
    np.sqrt(norm, out=norm)
    np.maximum(norm, 1e-300, out=norm)
    ac /= norm
    return ac.mean(axis=0)


def reference_autocorr(spec, max_lag):
    return np.fft.irfft(spec.power(), n=spec.n_fft, axis=1)[:, : max_lag + 1]


def reference_separate(clip):
    """Whole-array separation: (vocal, accompaniment, period)."""
    grid = frame_signal(clip)
    lo, hi = period_search_range(grid)
    bins = reference_stft(clip, grid)
    mag = np.abs(bins)
    period = estimate_period(reference_beat_spectrum(mag),
                             (lo, min(hi, grid.n_frames // 3)))
    voc = 1.0 - repet_mask(mag, period)
    samples = reference_istft(bins * voc, grid)
    span = len(samples)
    vocal, accompaniment = np.zeros(len(clip.samples)), np.zeros(len(clip.samples))
    vocal[:span] = samples
    accompaniment[:span] = clip.samples[:span] - samples
    return vocal, accompaniment, period


def song(duration, seed=5):
    rng = np.random.default_rng(seed)
    x = (repeating_loop(rng, duration, SR)
         + 0.5 * vibrato_voice(rng, duration, SR)[0])
    return AudioClip(samples=x, sample_rate=SR)


@pytest.fixture(params=[1, 3, 7])
def few_rows(request, monkeypatch):
    monkeypatch.setattr(audio, "CHUNK_ROWS", request.param)
    return request.param


# 8500 samples make 25 frames at a 20 ms hop and 50 at 10 ms, so the
# last chunk of 3 or 7 rows is partial.
class TestChunksMatchWholeArray:
    def test_stft(self, few_rows, rng):
        clip = AudioClip(samples=rng.standard_normal(8500), sample_rate=SR)
        grid = frame_signal(clip)
        assert np.array_equal(stft(clip, grid).bins, reference_stft(clip, grid))

    @pytest.mark.parametrize("hop_ms", [20.0, 10.0])
    def test_istft(self, few_rows, rng, hop_ms):
        clip = AudioClip(samples=rng.standard_normal(8500), sample_rate=SR)
        grid = audio.frame_grid(len(clip.samples), SR, 40.0, hop_ms)
        bins = reference_stft(clip, grid)
        got = istft(Spectrogram(bins=bins, grid=grid, n_fft=1024)).samples
        assert np.array_equal(got, reference_istft(bins, grid))

    def test_beat_spectrum(self, few_rows, rng):
        mag = rng.uniform(0.0, 1.0, size=(61, 40))
        mag[:, 5] = 0.0  # a silent bin takes the norm floor
        assert np.array_equal(beat_spectrum(mag), reference_beat_spectrum(mag))

    def test_autocorr_from_spectrogram(self, few_rows, random_spectrogram):
        got = autocorr_from_spectrogram(random_spectrogram, 12)
        assert np.array_equal(got, reference_autocorr(random_spectrogram, 12))

    def test_separate(self, few_rows, monkeypatch):
        periods = []

        def spy(bs, search_range):
            periods.append(estimate_period(bs, search_range))
            return periods[-1]

        monkeypatch.setattr(separation, "estimate_period", spy)
        clip = song(5.0)
        want_vocal, want_accompaniment, want_period = reference_separate(clip)
        vocal = separate(clip)
        accompaniment = cli.accompaniment(clip, vocal)
        assert periods == [want_period]
        assert np.array_equal(vocal.samples, want_vocal)
        assert np.array_equal(accompaniment.samples, want_accompaniment)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, its result included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def minute_song():
    clip = song(60.0, seed=11)
    return clip, stft(clip, frame_signal(clip))


class TestMemoryFollowsTheStft:
    """Peaks in units of the clip's complex STFT (2999 x 513 x 16 bytes)."""

    def test_separate_peak(self, minute_song):
        clip, spec = minute_song
        assert traced_peak(separate, clip) <= 4.0 * spec.bins.nbytes

    def test_lpcc_peak(self, minute_song):
        _, spec = minute_song
        assert traced_peak(lpcc, spec) <= 0.5 * spec.bins.nbytes
